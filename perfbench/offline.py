"""The offline_build workload: no daemon, the library called in-process.

One pass runs in its own process (``python -m perfbench.offline``), so
its peak RSS, imports and — when traced — its wrapped functions belong
to that pass alone.  It runs :data:`ROUNDS` rounds of three steps:

1. queries: a closed loop of one caller sending the serve_compute mix
   (its own seeded stream) straight to ``repro.api.dispatch.execute``
   against one ``QueryContext`` warmed with the serve_compute probe set:
   the engines without any serve layer.  ``capacity_qps`` and ``p50_ms``
   are medians over the rounds, ``p99_ms`` pools them all;
2. builds: per corpus seed, ``Study.run_all(jobs=1)`` into a fresh
   ``ArtifactCache`` (``build_cold_s``), then a fresh ``Study`` plus
   ``run_all`` against the cache just filled (``build_warm_s``: what a
   second CLI invocation pays); every warm artifact must equal its
   cold twin;
3. replays: a fleet-day replay through ``repro.api.dispatch.execute``
   sized past the sharded tier's spill threshold, each into a fresh
   ``REPRO_SPILL_DIR`` (``replay_s``); every replay must agree.

``setup_s`` is the median over :data:`LAUNCHES` fresh processes of
``import repro`` plus the first ``Study()``.

Every timing is scaled to reference host speed (:mod:`perfbench.hostspeed`):
the pass times the fixed kernels every :data:`PROBE_EVERY_S` in the
query loop and around every build and replay, and divides each measured
duration by their local slowdown.  The notes carry the raw figures
beside the scaled ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from perfbench import hostspeed, layers, procs, spans, workloads
from perfbench.stats import median, percentile

LAUNCHES = 5
#: Rounds per pass; each round runs queries, builds and replays in turn,
#: so each metric samples the whole run, not one stretch of it.
ROUNDS = 6
#: Shares of each round: query loop, cold/warm builds (rest: replays).
QUERY_SHARE = 0.4
BUILD_SHARE = 0.4
#: The query loop runs on past its share until p99 has ten samples beyond it.
MIN_QUERIES = 1100
#: Serial builds: a two-thread build on the two shared cores times the
#: second core's comings and goings (and read ~18% slower than a serial
#: one there), and the host-speed kernels watch only the calling core.
BUILD_JOBS = 1
#: Past ``sharded.SPILL_THRESHOLD`` (262,144): the columns spill to disk.
REPLAY_SERVERS = 300_000
REPLAY_STEPS = 24
SAMPLE_SHARE = 0.03
#: Seconds between host-speed samples in the query loop.
PROBE_EVERY_S = 0.25


def run_pass(seed: int, seconds: float, root: Path, scratch: Path,
             traced: bool) -> Dict[str, Any]:
    """Set-up launches plus one measured pass process; returns its result."""
    env = procs.child_env(root, scratch)
    scratch.mkdir(parents=True, exist_ok=True)
    setups = [_child(["--setup-probe"] + (["--trace"] if traced else []), env, scratch)
              for _ in range(LAUNCHES)]
    args = ["--seed", str(seed), "--seconds", repr(seconds),
            "--scratch", str(scratch)]
    if traced:
        args.append("--trace")
    result = _child(args, env, scratch)
    result["metrics"]["setup_s"] = median([float(s["setup_s"]) for s in setups])
    result["notes"].append(
        "setup: raw " + ", ".join(f"{s['raw_setup_s']:.3f}" for s in setups)
        + " s, host slowdown " + ", ".join(f"{s['slowdown']:.2f}" for s in setups))
    return result


def _child(args: List[str], env: Dict[str, str], cwd: Path) -> Dict[str, Any]:
    completed = subprocess.run(
        [sys.executable, "-m", "perfbench.offline"] + args,
        cwd=str(cwd), env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=170, check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"offline pass failed ({completed.returncode}): {completed.stderr[-2000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


# -- the pass process ---------------------------------------------------------


def _setup_probe(traced: bool) -> Dict[str, Any]:
    started = time.perf_counter()
    if traced:
        spans.install(spans.Recorder())
    from repro.core.study import Study

    Study()
    elapsed = time.perf_counter() - started
    # sampled after, not before: the kernels would import numpy early
    speed = hostspeed.HostSpeed()
    speed.sample(hostspeed.NEAREST)
    return {"setup_s": speed.scaled(elapsed, started, hostspeed.BULK_ARRAY_SHARE),
            "raw_setup_s": elapsed,
            "slowdown": speed.slowdown(started + elapsed / 2.0, hostspeed.BULK_ARRAY_SHARE)}


class _Queries:
    """The in-process query loop: one caller, a warm context, distinct keys."""

    def __init__(self, seed: int, speed: hostspeed.HostSpeed) -> None:
        from repro.api import dispatch

        from repro.api.requests import request_from_dict

        self.speed = speed
        self.context = dispatch.QueryContext()
        for payload in workloads.compute_probe(seed):  # untimed engine builds
            dispatch.execute(request_from_dict(payload), self.context)
        self.stream = workloads.compute_stream(seed, "offline")
        self.flags = workloads.sample_flags(seed, "offline_build", SAMPLE_SHARE)
        #: (perf_counter at send, seconds to the answer) of every query
        self.timed: List[Tuple[float, float]] = []
        self.kept: List[Tuple[Dict[str, Any], str]] = []
        #: [first, end) indices into ``timed`` of each timed round
        self.rounds: List[Tuple[int, int]] = []

    def run(self, seconds: float, at_least: int = 0) -> None:
        """One timed round (``at_least``: an untimed top-up to that many)."""
        from repro.api import dispatch
        from repro.api.requests import request_from_dict
        from perfbench.check import canonical

        first = len(self.timed)
        stop = time.perf_counter() + seconds
        next_probe = 0.0
        while time.perf_counter() < stop or len(self.timed) < at_least:
            if time.perf_counter() >= next_probe:
                self.speed.sample()
                next_probe = time.perf_counter() + PROBE_EVERY_S
            payload = next(self.stream)
            keep = next(self.flags)
            sent = time.perf_counter()
            answer = dispatch.execute(request_from_dict(payload), self.context)
            self.timed.append((sent, time.perf_counter() - sent))
            if keep:
                self.kept.append((payload, canonical(answer.to_dict())))
        if not at_least:
            self.rounds.append((first, len(self.timed)))

    def latencies_ms(self, scaled: bool) -> List[float]:
        """Every query's latency, at reference host speed if ``scaled``."""
        share = hostspeed.REQUEST_ARRAY_SHARE
        return [(self.speed.scaled(s, sent, share) if scaled else s) * 1000.0
                for sent, s in self.timed]

    def mismatches(self) -> List[str]:
        """Re-run the kept sample in a fresh context (fresh engines)."""
        from repro.api import dispatch
        from repro.api.requests import request_from_dict
        from perfbench.check import canonical

        fresh = dispatch.QueryContext()
        return [
            f"{payload}: answer differs from a fresh context"
            for payload, expected in self.kept
            if canonical(dispatch.execute(request_from_dict(payload), fresh).to_dict())
            != expected
        ]


def _artifact_json(figure: Any) -> str:
    from repro.api.serialize import jsonify

    return json.dumps(jsonify({"id": figure.figure_id, "title": figure.title,
                               "series": figure.series, "text": figure.text}),
                      sort_keys=True)


class _Builds:
    """Cold then warm ``run_all`` per corpus seed; warm must equal cold."""

    def __init__(self, seed: int, scratch: Path, speed: hostspeed.HostSpeed) -> None:
        self.seeds = iter(workloads.offline_seeds(seed, 1000))
        self.scratch = scratch
        self.speed = speed
        #: (perf_counter at the start, seconds) of every cold and warm build
        self.cold: List[Tuple[float, float]] = []
        self.warm: List[Tuple[float, float]] = []
        self.cold_reports: List[Any] = []
        self.warm_reports: List[Any] = []
        self.attempted = 0
        self.failures: List[str] = []

    def run(self, seconds: float) -> None:
        stop = time.perf_counter() + seconds
        self.build_one()
        while time.perf_counter() < stop:
            self.build_one()

    def build_one(self) -> None:
        from repro.core.cache import ArtifactCache
        from repro.core.registry import REGISTRY
        from repro.core.study import Study

        corpus_seed = next(self.seeds)
        root = self.scratch / f"cache-{corpus_seed}"
        study = Study(seed=corpus_seed)
        self.speed.sample(hostspeed.NEAREST // 2)
        started = time.perf_counter()
        cold = study.run_all(jobs=BUILD_JOBS, cache=ArtifactCache(root), report=True)
        self.cold.append((started, time.perf_counter() - started))
        started = time.perf_counter()
        warm = Study(seed=corpus_seed).run_all(
            jobs=BUILD_JOBS, cache=ArtifactCache(root), report=True)
        self.warm.append((started, time.perf_counter() - started))
        self.speed.sample(hostspeed.NEAREST // 2)
        self.cold_reports.append(cold)
        self.warm_reports.append(warm)
        shutil.rmtree(root, ignore_errors=True)
        self.attempted += 2 * len(REGISTRY)
        for artifact_id in REGISTRY:
            if artifact_id not in cold.results or artifact_id not in warm.results:
                self.failures.append(f"seed {corpus_seed}: {artifact_id} missing")
            elif _artifact_json(cold[artifact_id]) != _artifact_json(warm[artifact_id]):
                self.failures.append(f"seed {corpus_seed}: {artifact_id} warm != cold")


class _Replays:
    """Sharded-tier fleet-day replays, each into a fresh spill directory."""

    def __init__(self, scratch: Path, speed: hostspeed.HostSpeed) -> None:
        self.scratch = scratch
        self.speed = speed
        #: (perf_counter at the start, seconds) of every replay
        self.times: List[Tuple[float, float]] = []
        self.answers: List[str] = []
        self.backends: set = set()

    def run(self, seconds: float) -> None:
        stop = time.perf_counter() + seconds
        self.replay_one()
        while time.perf_counter() < stop:
            self.replay_one()

    def replay_one(self) -> None:
        from repro.api import dispatch
        from repro.api.requests import ReplayQuery

        spill = self.scratch / f"spill-{len(self.times)}"
        os.environ["REPRO_SPILL_DIR"] = str(spill)
        request = ReplayQuery(servers=REPLAY_SERVERS, steps=REPLAY_STEPS)
        self.speed.sample(hostspeed.NEAREST // 2)
        started = time.perf_counter()
        answer = dispatch.execute(request, dispatch.QueryContext())
        self.times.append((started, time.perf_counter() - started))
        self.speed.sample(hostspeed.NEAREST // 2)
        self.backends.add(answer.provenance.fleet_backend)
        self.answers.append(json.dumps(answer.to_dict()["payload"], sort_keys=True))
        shutil.rmtree(spill, ignore_errors=True)

    @property
    def failed(self) -> int:
        if self.backends != {"sharded"}:
            return len(self.times)
        return sum(1 for answer in self.answers if answer != self.answers[0])


def _pass(seed: int, seconds: float, scratch: Path, traced: bool) -> Dict[str, Any]:
    recorder = spans.Recorder()
    if traced:
        spans.install(recorder)
    speed = hostspeed.HostSpeed()
    queries = _Queries(seed, speed)
    builds, replays = _Builds(seed, scratch, speed), _Replays(scratch, speed)
    round_s = seconds / ROUNDS
    for _round in range(ROUNDS):
        queries.run(round_s * QUERY_SHARE)
        builds.run(round_s * BUILD_SHARE)
        replays.run(round_s * (1.0 - QUERY_SHARE - BUILD_SHARE))
    queries.run(0.0, at_least=MIN_QUERIES)
    query_mismatches = queries.mismatches()
    attempted = len(queries.timed) + builds.attempted + len(replays.times)
    failed = len(query_mismatches) + len(builds.failures) + replays.failed
    metrics = {"ok_ratio": 1.0 - failed / attempted,
               "peak_rss_mb": procs.vm_hwm_kib(os.getpid()) / 1024.0}
    raw: Dict[str, float] = {}
    for scaled, into in ((True, metrics), (False, raw)):
        latencies = queries.latencies_ms(scaled)
        by_round = [latencies[first:end] for first, end in queries.rounds]
        into.update({
            # answers per second of the caller's time inside execute
            "capacity_qps": median([1000.0 * len(ms) / sum(ms) for ms in by_round]),
            "p50_ms": median([percentile(ms, 0.5) for ms in by_round]),
            "p99_ms": percentile(latencies, 0.99),
            "build_cold_s": median(_durations(builds.cold, speed, scaled)),
            "build_warm_s": median(_durations(builds.warm, speed, scaled)),
            "replay_s": median(_durations(replays.times, speed, scaled)),
        })
    notes = [
        f"host speed: {speed.summary()}; unscaled "
        + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()),
        f"queries: {len(queries.timed)} over {ROUNDS} rounds, "
        f"{len(queries.kept)} re-run in a fresh context, "
        f"{len(query_mismatches)} mismatched",
        f"builds: {len(builds.cold)} corpus seeds, cold+warm, jobs={BUILD_JOBS}, "
        f"{len(builds.failures)} artifact mismatches",
        f"replays: {len(replays.times)} x {REPLAY_SERVERS} servers x {REPLAY_STEPS} "
        f"steps, backend {sorted(replays.backends)}",
    ] + query_mismatches[:5] + builds.failures[:5]
    result: Dict[str, Any] = {"metrics": metrics, "attempted": attempted,
                              "failed": failed, "notes": notes, "layers": {}}
    if traced:
        index = layers.SpanIndex(recorder.spans)
        values = layers.common_layers(index, result["notes"])
        values.update(layers.executor_layers(builds.cold_reports, builds.warm_reports))
        values.update(layers.cache_bytes_per_build(index, len(builds.cold)))
        result["layers"] = values
    return result


def _durations(timed: List[Tuple[float, float]], speed: hostspeed.HostSpeed,
               scaled: bool) -> List[float]:
    return [speed.scaled(s, started, hostspeed.BULK_ARRAY_SHARE) if scaled else s
            for started, s in timed]


def main() -> int:
    parser = argparse.ArgumentParser(description="one offline_build pass")
    parser.add_argument("--setup-probe", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--scratch", type=Path, default=Path("."))
    args = parser.parse_args()
    if args.setup_probe:
        result = _setup_probe(args.trace)
    else:
        result = _pass(args.seed, args.seconds, args.scratch, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
