#!/usr/bin/env python
"""Benchmark report for the repo's hot paths.

Times the workloads the performance work targets -- corpus synthesis,
the discrete-event simulate sweep, cold/warm ``run_all`` through the
artifact engine, multi-seed ensemble throughput, the columnar
fleet engine (10k-server trace replay, columnar vs scalar, a placement
sweep, and a warm 20-server cap query through ``execute``), the sharded
out-of-core tier (a million-server replay, run in
a subprocess so its peak RSS is attributable), the incremental
``repro checks`` self-scan (cold vs fully-warm), the serve
daemon's warm mixed-query throughput, its cold compute scaling
through the process-pool worker tier (all-distinct engine builds,
``--workers 4`` vs the in-thread baseline), and the serve overload
path (shed-answer p99 and graceful-drain time under an injected
burst) --
and writes the results to
``BENCH_core.json`` at the repo root so the perf trajectory is tracked
in-tree.  Fleet benchmarks record peak RSS (``resource.getrusage``)
next to their timings.

Usage::

    PYTHONPATH=src python scripts/bench_report.py            # full
    PYTHONPATH=src python scripts/bench_report.py --quick    # CI smoke
    PYTHONPATH=src python scripts/bench_report.py --check    # + ceilings

``--check`` asserts every timing stays under a generous ceiling (sized
for slow CI runners, not for regressions of a few percent) and exits
non-zero on a breach, which is how CI catches an order-of-magnitude
regression without flaking on machine noise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = REPO_ROOT / "BENCH_core.json"

#: Generous wall-clock ceilings (seconds) for --check, sized so only a
#: gross regression (or a broken vectorized path) trips them.
CEILINGS = {
    "generate_corpus_s": 2.0,
    "simulate_sweep_s": 5.0,
    "run_all_cold_s": 60.0,
    "run_all_warm_s": 10.0,
    "ensemble_serial_s": 60.0,
    "ensemble_parallel_s": 60.0,
    "fleet_replay_10k_s": 30.0,
    "placement_sweep_s": 20.0,
    "fleet_replay_1m_s": 120.0,
    "checks_src_s": 30.0,
    "serve_drain_s": 10.0,
}

#: Minimum cold/warm speedup --check demands on the incremental
#: ``repro checks`` self-scan.  A fully-warm run skips parsing and
#: every rule pass, so this is a property of the finding cache, not of
#: runner speed (measured ~100-250x; required 5x).
MIN_CHECKS_WARM_SPEEDUP = 5.0

#: Fixed peak-RSS budget (MiB) for the million-server sharded replay.
#: The out-of-core design keeps residency at the spilled column maps
#: plus a few per-step scalars, and the spill tier writes each derived
#: column as it is built instead of holding the whole layout first, so
#: the peak is a property of the tier, not of trace length; measured
#: ~115 MiB (~275 MiB when the layout was built resident), budgeted
#: about 3x.
MAX_FLEET_1M_RSS_MB = 384.0

#: Minimum columnar-over-scalar speedup --check demands on the
#: 10k-server trace replay (the scalar side is measured on a truncated
#: trace and extrapolated, so this is a property of the engines, not
#: of runner speed).
MIN_FLEET_SPEEDUP = 10.0

#: Floor on warm mixed-query throughput against the serve daemon and a
#: ceiling on its p99 latency.  Warm queries are memo hits, so both are
#: properties of the serve pipeline (HTTP framing + memo lookup), not
#: of engine speed, and only a gross regression trips them.
MIN_SERVE_QPS = 1000.0
MAX_SERVE_P99_MS = 100.0

#: Worker count for the serve compute-scaling benchmark, and the
#: minimum throughput ratio --check demands over the --workers 0
#: baseline on that pool.  The all-distinct workload is pure engine
#: builds, so the ratio is a property of the worker tier (fork
#: sharing + sticky routing), not of memo or batching.  Enforced only
#: on machines with >= MIN_COMPUTE_CPUS cores: a 4-worker pool cannot
#: beat 2.5x on fewer physical cores, so smaller boxes record the
#: measured ratio (next to ``config.cpus``) without gating on it.
SERVE_COMPUTE_WORKERS = 4
MIN_SERVE_COMPUTE_SCALING = 2.5
MIN_COMPUTE_CPUS = 4

#: Ceiling (ms) on a warm 20-server cap query through ``execute``:
#: 40 totals-only probes plus one materialized outcome, each inverting
#: only the marginal server (measured ~1 ms with the closed-form
#: single-row inversion, ~2 ms with 50 plain halvings; the per-server
#: bisection before that took 24-35 ms, so a regression to it trips
#: this).
MAX_CAP_QUERY_20_MS = 15.0

#: Ceiling on the p99 turnaround of a *shed* (503) answer while the
#: daemon is saturated.  Shedding happens before any engine work, so
#: its cost is one event-loop exchange (measured ~10 ms under a
#: 4x-capacity burst); a breach means admission control is queueing
#: behind the engine instead of failing fast.  The companion
#: ``serve_drain_s`` ceiling lives in ``CEILINGS``.
MAX_SERVE_SHED_P99_MS = 100.0


def _host() -> dict:
    """The machine the timings were taken on: OS, arch, CPU model.

    The core count is recorded once, as ``config.cpus``.
    """
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "system": platform.system(),
        "machine": platform.machine(),
        "cpu": model,
    }


def _peak_rss_mb() -> float:
    """This process's lifetime peak resident set, in MiB.

    ``ru_maxrss`` is a monotone high-water mark, so values recorded
    after each fleet benchmark bound that workload from above (every
    earlier workload is included); the million-server bench runs in
    its own subprocess precisely so its peak is exact.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def bench_generate_corpus(repeats: int) -> float:
    from repro.dataset.synthesis import generate_corpus

    return _best_of(repeats, lambda: generate_corpus(2016))


def bench_simulate_sweep(repeats: int) -> float:
    from repro.hwexp.reference import simulate_sweep
    from repro.hwexp.testbed import TESTBED
    from repro.ssj.load_levels import MeasurementPlan

    plan = MeasurementPlan(interval_s=1.0, ramp_s=0.25)
    return _best_of(
        repeats,
        lambda: simulate_sweep(
            TESTBED[2],
            frequencies=(1.2, 1.5, 1.8),
            memory_per_core=(2.0, 4.0),
            plan=plan,
        ),
    )


def bench_run_all(jobs: int):
    """Cold build then warm (fully cached) rerun; returns both times."""
    from repro.core.cache import ArtifactCache
    from repro.core.study import Study

    with tempfile.TemporaryDirectory(prefix="bench_cache_") as cache_dir:
        study = Study()
        cache = ArtifactCache(cache_dir)
        started = time.perf_counter()
        study.run_all(jobs=jobs, cache=cache)
        cold = time.perf_counter() - started
        started = time.perf_counter()
        study.run_all(jobs=jobs, cache=cache)
        warm = time.perf_counter() - started
    return cold, warm


def _tiled_fleet(n_servers: int):
    from repro.cluster.fleet_arrays import tile_fleet
    from repro.dataset.synthesis import generate_corpus

    corpus = generate_corpus(2016)
    return tile_fleet(corpus.by_hw_year(2016).results(), n_servers)


def bench_fleet_replay(n_servers: int, steps: int, scalar_steps: int):
    """Columnar full-day replay vs scalar on the same tiled fleet.

    The columnar engine replays the whole day; the scalar path is
    measured on the first ``scalar_steps`` timesteps only (a full
    scalar day at 10k servers takes minutes) and extrapolated
    linearly, which flatters the scalar side if anything (it skips
    most of the trace's high-demand steps).
    """
    from repro.cluster.batch_trace import BatchTraceReplay
    from repro.cluster.reference import _replay_scalar
    from repro.cluster.trace import DemandTrace, diurnal_trace

    fleet = _tiled_fleet(n_servers)
    trace = diurnal_trace(steps_per_day=steps, noise=0.0)
    started = time.perf_counter()
    BatchTraceReplay(fleet).replay(trace, "ep-aware")
    columnar = time.perf_counter() - started
    truncated = DemandTrace(
        times_h=trace.times_h[:scalar_steps],
        demand_fraction=trace.demand_fraction[:scalar_steps],
    )
    started = time.perf_counter()
    _replay_scalar(fleet, truncated, "ep-aware")
    scalar = (time.perf_counter() - started) * (steps / scalar_steps)
    return columnar, scalar


#: The subprocess body for the mega-fleet bench: build the lazy tiled
#: view, build the sharded replayer (spilling the columns out of
#: core), replay the trace, and report wall time + exact peak RSS.
_MEGA_BENCH_SCRIPT = """\
import json, resource, sys, time
from repro.cluster.fleet_arrays import tile_fleet
from repro.cluster.sharded import ShardedTraceReplay
from repro.cluster.trace import diurnal_trace
from repro.dataset.synthesis import generate_corpus

n_servers, steps = int(sys.argv[1]), int(sys.argv[2])
corpus = generate_corpus(2016)
fleet = tile_fleet(corpus.by_hw_year(2016).results(), n_servers)
trace = diurnal_trace(steps_per_day=steps, noise=0.0)
started = time.perf_counter()
replayer = ShardedTraceReplay(fleet)
outcome = replayer.replay(trace, "ep-aware")
elapsed = time.perf_counter() - started
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({
    "elapsed_s": elapsed,
    "peak_rss_mb": peak_mb,
    "energy_kwh": outcome.energy_kwh,
    "spilled": replayer.engine.spilled,
}))
"""


def bench_fleet_replay_1m(n_servers: int, steps: int):
    """Sharded mega-fleet replay in a subprocess; (seconds, peak MiB).

    ``ru_maxrss`` is a process-lifetime high-water mark, so the only
    way to attribute a peak to this one workload is to give it its own
    process; a fresh spill directory keeps the run cold (layout build
    and spill write are part of the cost a caller pays).
    """
    with tempfile.TemporaryDirectory(prefix="bench_spill_") as spill_dir:
        env = dict(os.environ)
        env["REPRO_SPILL_DIR"] = spill_dir
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        completed = subprocess.run(
            [sys.executable, "-c", _MEGA_BENCH_SCRIPT,
             str(n_servers), str(steps)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=900,
        )
    report = json.loads(completed.stdout.splitlines()[-1])
    if not report["spilled"]:
        raise RuntimeError("mega-fleet bench did not engage the spill tier")
    return report["elapsed_s"], report["peak_rss_mb"]


def bench_placement_sweep(n_servers: int, repeats: int) -> float:
    """A demand sweep through both columnar placement policies.

    Includes engine construction, so the timing covers the full cost a
    caller pays from a cold fleet list.
    """
    from repro.cluster.batch_placement import BatchPlacementEngine

    fleet = _tiled_fleet(n_servers)
    fractions = [i / 12 for i in range(13)]

    def run():
        engine = BatchPlacementEngine(fleet)
        capacity = sum(engine.arrays.full_capacity.tolist())
        for fraction in fractions:
            for policy in ("pack-to-full", "ep-aware"):
                engine.place(policy, fraction * capacity)

    return _best_of(repeats, run)


def bench_cap_query(repeats: int) -> float:
    """Best-of warm ``execute(CapQuery(servers=20))`` on one context, ms.

    The first call builds the cohort's engine; the timed calls are the
    cap search alone (no result memo sits in front of ``execute``).
    """
    from repro.api import CapQuery, QueryContext, execute

    context = QueryContext()
    request = CapQuery(servers=20, power_cap_w=1900.0)
    execute(request, context)
    return _best_of(repeats, lambda: execute(request, context)) * 1000.0


#: Warm-up passes over the mixed workload before any serve timing.
#: Pinned (never scaled down by --quick): the first rounds pay memo
#: fills, TCP slow paths and branch-predictor warm-up, and letting
#: --quick skip them is exactly the 3700-vs-3041 q/s drift the medians
#: below are meant to kill.
SERVE_WARM_ROUNDS = 5

#: Independent timed trials per serve benchmark; the reported figure
#: is the per-metric median, so one noisy trial (GC pause, cron tick)
#: cannot move the recorded number.
SERVE_TRIALS = 3


def _median(values):
    ranked = sorted(values)
    return ranked[len(ranked) // 2]


def bench_serve(timed_rounds: int):
    """Warm mixed-query throughput against an in-process daemon.

    Starts the serve daemon on a background thread, drives the stock
    mixed workload (every servable query family) through a persistent
    HTTP client for :data:`SERVE_WARM_ROUNDS` passes, then runs
    :data:`SERVE_TRIALS` timed trials of ``timed_rounds`` passes each
    and reports the per-metric median.  Returns
    ``(qps, p50_ms, p99_ms)``.
    """
    from repro.serve import ServeClient, start_daemon_thread
    from repro.serve.client import mixed_query_payloads

    payloads = mixed_query_payloads(servers=30, steps=8)
    handle = start_daemon_thread()
    trials = []
    try:
        client = ServeClient(port=handle.port)
        for _ in range(SERVE_WARM_ROUNDS):
            for payload in payloads:
                status, document = client.query(dict(payload))
                if status != 200:
                    raise RuntimeError(
                        f"serve returned {status} for {payload}: {document}"
                    )
        for _trial in range(SERVE_TRIALS):
            latencies = []
            started = time.perf_counter()
            for _ in range(timed_rounds):
                for payload in payloads:
                    sent = time.perf_counter()
                    client.query(dict(payload))
                    latencies.append(time.perf_counter() - sent)
            elapsed = time.perf_counter() - started
            latencies.sort()
            count = len(latencies)
            trials.append((
                count / elapsed if elapsed > 0 else float("inf"),
                latencies[count // 2] * 1000.0,
                latencies[min(count - 1, int(count * 0.99))] * 1000.0,
            ))
        client.close()
    finally:
        handle.stop()
    return tuple(
        _median([trial[i] for trial in trials]) for i in range(3)
    )


def _compute_payloads(queries: int):
    """All-distinct compute-heavy placement queries.

    Every payload differs in fleet size *and* demand level, so no two
    share a spec key (memo and coalescer never collapse them) or a
    fleet cohort (the batch window never groups them) -- each query is
    one full engine build, the workload the worker pool parallelizes.
    """
    return [
        {
            # ~25 ms of engine build per query at this fleet size, so
            # the per-exchange worker IPC cost (~1 ms) stays noise
            "family": "placement",
            "servers": 1600 + 7 * index,
            "demand_fraction": round(0.25 + 0.5 * index / queries, 4),
            "policy": "ep-aware",
        }
        for index in range(queries)
    ]


def bench_serve_compute(workers: int, queries: int, clients: int):
    """Cold compute throughput through ``workers`` engine workers.

    Drives ``queries`` all-distinct placement builds from ``clients``
    concurrent HTTP clients against a daemon with ``workers`` engine
    worker processes (0 = the in-thread fallback), repeated for
    :data:`SERVE_TRIALS` trials of fresh payloads each, and returns
    the median queries-per-second.  Distinct specs spread across
    workers by sticky routing, so the figure measures multi-core
    engine scaling, not memo or batching wins.
    """
    import queue as queue_module
    import threading

    from repro.serve import ServeApp, ServeClient, start_daemon_thread

    app = ServeApp(workers=workers)
    handle = start_daemon_thread(app)
    rates = []
    try:
        # one distinct warm pass spins up every worker's first exchange
        for trial in range(SERVE_TRIALS + 1):
            payloads = _compute_payloads(queries)
            # disjoint server counts per trial keep every query cold
            for payload in payloads:
                payload["servers"] += 7 * queries * trial
            jobs = queue_module.Queue()
            for payload in payloads:
                jobs.put(payload)
            failures = []

            def drain():
                client = ServeClient(port=handle.port, timeout_s=120)
                try:
                    while True:
                        try:
                            payload = jobs.get_nowait()
                        except queue_module.Empty:
                            return
                        status, document = client.query(dict(payload))
                        if status != 200:
                            failures.append((status, document))
                finally:
                    client.close()

            threads = [
                threading.Thread(target=drain) for _ in range(clients)
            ]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
            elapsed = time.perf_counter() - started
            if failures:
                raise RuntimeError(
                    f"compute bench failed: {failures[:3]}"
                )
            if trial > 0:  # trial 0 is the warm pass
                rates.append(queries / elapsed if elapsed > 0 else 0.0)
    finally:
        handle.stop()
    return _median(rates)


def bench_serve_overload(clients: int = 32):
    """Shed-path p99 and graceful-drain duration under overload.

    Saturates a deliberately tiny daemon (4 slots + 4 queue places)
    with a ``clients``-wide burst of distinct cold queries while the
    engine carries injected latency (the ``serve.engine`` fault site),
    and measures the p99 turnaround of the *shed* (503) answers --
    shedding happens before engine work, so it must cost event-loop
    exchanges, not engine seconds.  Then, with fresh queries still in
    flight, stops the daemon and times the graceful drain.  Returns
    ``(shed_p99_ms, drain_s)``.
    """
    import threading

    from repro.core.faults import FaultPlan, FaultSpec, install
    from repro.serve import (
        ServeApp,
        ServeClient,
        ServeLimits,
        start_daemon_thread,
    )

    def spec(index: int, base: float = 0.0):
        lo = round(base + 0.01 * index, 3)
        return {"family": "cdf", "metric": "ep", "lo": lo, "hi": lo + 0.005}

    app = ServeApp(limits=ServeLimits(max_inflight=4, max_queue=4))
    plan = FaultPlan(
        [FaultSpec(site="serve.engine", mode="latency", delay_s=0.25)]
    )
    answers = [None] * clients
    barrier = threading.Barrier(clients)
    drain_workers = 4
    drained = [None] * drain_workers
    with install(plan):
        handle = start_daemon_thread(app)

        def burst(index):
            client = ServeClient(port=handle.port, timeout_s=60)
            try:
                barrier.wait(timeout=30)
                sent = time.perf_counter()
                status, _doc = client.query(spec(index))
                answers[index] = (status, time.perf_counter() - sent)
            finally:
                client.close()

        threads = [
            threading.Thread(target=burst, args=(i,)) for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)

        def worker(index):
            client = ServeClient(port=handle.port, timeout_s=60)
            try:
                drained[index] = client.query(spec(index, base=0.9))[0]
            finally:
                client.close()

        admitted_before = app.stats.admitted
        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(drain_workers)
        ]
        for thread in threads:
            thread.start()
        settle = time.monotonic() + 5.0
        while (app.stats.admitted < admitted_before + drain_workers
               and time.monotonic() < settle):
            time.sleep(0.005)
        started = time.perf_counter()
        handle.stop(timeout_s=30)
        drain_s = time.perf_counter() - started
        for thread in threads:
            thread.join(timeout=30)
    shed = sorted(
        latency for entry in answers if entry
        for status, latency in [entry] if status == 503
    )
    if not shed:
        raise RuntimeError("overload bench shed nothing; burst too small")
    if any(status != 200 for status in drained):
        raise RuntimeError(f"graceful drain lost requests: {drained}")
    shed_p99_ms = shed[min(len(shed) - 1, int(len(shed) * 0.99))] * 1000.0
    return shed_p99_ms, drain_s


def bench_checks():
    """Cold vs fully-warm ``repro checks`` self-scan over ``src/``.

    Both runs share one fresh cache directory: the first pays parsing
    plus every rule pass, the second must be served entirely from the
    fingerprint-keyed finding cache.  Raises if the self-scan is not
    clean, so the bench doubles as a gate on the shipped tree.
    """
    from repro.checks import run_checks
    from repro.checks.incremental import FindingCache

    target = str(REPO_ROOT / "src")
    with tempfile.TemporaryDirectory(prefix="bench_checks_") as tmp:
        cache_dir = Path(tmp) / "cache"
        started = time.perf_counter()
        findings = run_checks([target], cache=FindingCache(cache_dir))
        cold = time.perf_counter() - started
        started = time.perf_counter()
        run_checks([target], cache=FindingCache(cache_dir))
        warm = time.perf_counter() - started
    if findings:
        raise RuntimeError(
            f"repro checks self-scan is not clean: {len(findings)} findings"
        )
    return cold, warm


def bench_ensemble(seeds: int, jobs: int):
    """Serial and parallel ensemble wall times over the same seeds."""
    from repro.core.ensemble import run_ensemble

    started = time.perf_counter()
    run_ensemble(seeds, jobs=1)
    serial = time.perf_counter() - started
    started = time.perf_counter()
    run_ensemble(seeds, jobs=jobs)
    parallel = time.perf_counter() - started
    return serial, parallel


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="fewer repetitions and smaller ensembles (CI smoke mode)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="assert timings stay under the generous ceilings",
    )
    parser.add_argument(
        "--out",
        default=str(DEFAULT_OUT),
        metavar="PATH",
        help=f"output JSON path (default {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, str(REPO_ROOT / "src"))
    import numpy

    repeats = 2 if args.quick else 5
    sweep_repeats = 1 if args.quick else 3
    ensemble_seeds = 3 if args.quick else 6
    ensemble_jobs = 3 if args.quick else 4
    run_all_jobs = 4
    fleet_servers = 10_000
    trace_steps = 96
    scalar_steps = 1 if args.quick else 2
    placement_repeats = 1 if args.quick else 2
    cap_query_repeats = 20 if args.quick else 50
    mega_servers = 1_000_000
    mega_steps = 96 if args.quick else 672
    serve_timed_rounds = 50 if args.quick else 200
    compute_workers = SERVE_COMPUTE_WORKERS
    compute_queries = 16 if args.quick else 48
    compute_clients = 8

    timings = {}
    print("benchmarking corpus generation ...", flush=True)
    timings["generate_corpus_s"] = bench_generate_corpus(repeats)
    print("benchmarking simulate sweep ...", flush=True)
    timings["simulate_sweep_s"] = bench_simulate_sweep(sweep_repeats)
    print("benchmarking cold/warm run_all ...", flush=True)
    cold, warm = bench_run_all(run_all_jobs)
    timings["run_all_cold_s"] = cold
    timings["run_all_warm_s"] = warm
    timings["warm_speedup"] = cold / warm if warm > 0 else float("inf")
    print("benchmarking ensemble throughput ...", flush=True)
    serial, parallel = bench_ensemble(ensemble_seeds, ensemble_jobs)
    timings["ensemble_serial_s"] = serial
    timings["ensemble_parallel_s"] = parallel
    timings["ensemble_seeds_per_s"] = ensemble_seeds / serial if serial > 0 else 0.0
    print("benchmarking 10k-server trace replay ...", flush=True)
    columnar, scalar = bench_fleet_replay(
        fleet_servers, trace_steps, scalar_steps
    )
    timings["fleet_replay_10k_s"] = columnar
    timings["fleet_replay_10k_rss_mb"] = _peak_rss_mb()
    timings["fleet_replay_scalar_s"] = scalar
    timings["fleet_replay_speedup"] = (
        scalar / columnar if columnar > 0 else float("inf")
    )
    print("benchmarking placement sweep ...", flush=True)
    timings["placement_sweep_s"] = bench_placement_sweep(
        fleet_servers, placement_repeats
    )
    timings["placement_sweep_rss_mb"] = _peak_rss_mb()
    print("benchmarking warm 20-server cap query ...", flush=True)
    timings["cap_query_20_ms"] = bench_cap_query(cap_query_repeats)
    print("benchmarking 1M-server sharded replay ...", flush=True)
    mega_elapsed, mega_rss = bench_fleet_replay_1m(mega_servers, mega_steps)
    timings["fleet_replay_1m_s"] = mega_elapsed
    timings["fleet_replay_1m_rss_mb"] = mega_rss
    print("benchmarking checks self-scan (cold vs warm) ...", flush=True)
    checks_cold, checks_warm = bench_checks()
    timings["checks_src_s"] = checks_cold
    timings["checks_warm_s"] = checks_warm
    timings["checks_warm_speedup"] = (
        checks_cold / checks_warm if checks_warm > 0 else float("inf")
    )
    print("benchmarking serve daemon ...", flush=True)
    serve_qps, serve_p50_ms, serve_p99_ms = bench_serve(serve_timed_rounds)
    timings["serve_qps"] = serve_qps
    timings["serve_p50_ms"] = serve_p50_ms
    timings["serve_p99_ms"] = serve_p99_ms
    print("benchmarking serve compute scaling (worker pool) ...", flush=True)
    base_qps = bench_serve_compute(0, compute_queries, compute_clients)
    pool_qps = bench_serve_compute(
        compute_workers, compute_queries, compute_clients
    )
    timings["serve_compute_base_qps"] = base_qps
    timings["serve_compute_qps"] = pool_qps
    timings["serve_compute_scaling"] = (
        pool_qps / base_qps if base_qps > 0 else float("inf")
    )
    print("benchmarking serve overload (shed + drain) ...", flush=True)
    shed_p99_ms, drain_s = bench_serve_overload()
    timings["serve_shed_p99_ms"] = shed_p99_ms
    timings["serve_drain_s"] = drain_s

    payload = {
        "schema": 1,
        "quick": args.quick,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "host": _host(),
        "config": {
            "corpus_repeats": repeats,
            "sweep_repeats": sweep_repeats,
            "ensemble_seeds": ensemble_seeds,
            "ensemble_jobs": ensemble_jobs,
            "run_all_jobs": run_all_jobs,
            "fleet_servers": fleet_servers,
            "trace_steps": trace_steps,
            "scalar_steps": scalar_steps,
            "placement_repeats": placement_repeats,
            "cap_query_repeats": cap_query_repeats,
            "mega_servers": mega_servers,
            "mega_steps": mega_steps,
            "serve_warm_rounds": SERVE_WARM_ROUNDS,
            "serve_trials": SERVE_TRIALS,
            "serve_timed_rounds": serve_timed_rounds,
            "compute_workers": compute_workers,
            "compute_queries": compute_queries,
            "compute_clients": compute_clients,
            "cpus": os.cpu_count(),
        },
        "timings": {key: round(value, 4) for key, value in timings.items()},
    }
    out_path = Path(args.out)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")
    for key, value in payload["timings"].items():
        print(f"  {key:<22} {value:>10.4f}")

    if args.check:
        breaches = [
            f"{key}: {timings[key]:.3f}s > ceiling {ceiling:.1f}s"
            for key, ceiling in CEILINGS.items()
            if timings[key] > ceiling
        ]
        if timings["fleet_replay_speedup"] < MIN_FLEET_SPEEDUP:
            breaches.append(
                f"fleet_replay_speedup: {timings['fleet_replay_speedup']:.1f}x "
                f"< required {MIN_FLEET_SPEEDUP:.0f}x"
            )
        if timings["cap_query_20_ms"] > MAX_CAP_QUERY_20_MS:
            breaches.append(
                f"cap_query_20_ms: {timings['cap_query_20_ms']:.2f}ms "
                f"> ceiling {MAX_CAP_QUERY_20_MS:.0f}ms"
            )
        if timings["serve_qps"] < MIN_SERVE_QPS:
            breaches.append(
                f"serve_qps: {timings['serve_qps']:.0f} q/s "
                f"< required {MIN_SERVE_QPS:.0f} q/s"
            )
        if timings["serve_p99_ms"] > MAX_SERVE_P99_MS:
            breaches.append(
                f"serve_p99_ms: {timings['serve_p99_ms']:.2f}ms "
                f"> ceiling {MAX_SERVE_P99_MS:.0f}ms"
            )
        cpus = os.cpu_count() or 1
        if (cpus >= MIN_COMPUTE_CPUS
                and timings["serve_compute_scaling"]
                < MIN_SERVE_COMPUTE_SCALING):
            breaches.append(
                f"serve_compute_scaling: "
                f"{timings['serve_compute_scaling']:.2f}x "
                f"< required {MIN_SERVE_COMPUTE_SCALING:.1f}x "
                f"on {cpus} cpus"
            )
        if timings["serve_shed_p99_ms"] > MAX_SERVE_SHED_P99_MS:
            breaches.append(
                f"serve_shed_p99_ms: {timings['serve_shed_p99_ms']:.2f}ms "
                f"> ceiling {MAX_SERVE_SHED_P99_MS:.0f}ms"
            )
        if timings["checks_warm_speedup"] < MIN_CHECKS_WARM_SPEEDUP:
            breaches.append(
                f"checks_warm_speedup: "
                f"{timings['checks_warm_speedup']:.1f}x "
                f"< required {MIN_CHECKS_WARM_SPEEDUP:.0f}x"
            )
        if timings["fleet_replay_1m_rss_mb"] > MAX_FLEET_1M_RSS_MB:
            breaches.append(
                f"fleet_replay_1m_rss_mb: "
                f"{timings['fleet_replay_1m_rss_mb']:.0f} MiB "
                f"> budget {MAX_FLEET_1M_RSS_MB:.0f} MiB"
            )
        if breaches:
            print("ceiling breaches:", *breaches, sep="\n  ", file=sys.stderr)
            return 1
        print("all timings under their ceilings")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
