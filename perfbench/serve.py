"""The serve_compute workload: the daemon as its own process, over HTTP.

One pass:

1. launch the daemon :data:`LAUNCHES` times; send each fresh daemon the
   probe key set (one query on every cohort the traffic uses) in order
   on one connection (cold: every engine gets built), then
   :data:`WARM_PASSES` more sets over the same cohorts with fresh keys
   (warm: engines built, memo misses).  ``setup_s`` is the median
   launch-to-first-``/healthz`` time, ``build_cold_s`` the median cold
   pass, ``build_warm_s`` the median warm pass over every launch.  The
   last launch serves the rest of the pass;
2. :data:`ROUNDS` rounds, each a closed loop on one connection
   (:data:`CLOSED_SHARE` of the round) and then an open loop on two
   connections at the fixed Poisson rate :data:`RATE_PER_S`.
   ``capacity_qps``, ``p50_ms`` and ``replay_s`` (the median replay
   answer) are medians over the rounds; ``p99_ms`` pools every round's
   open-loop requests, since one round holds too few for it;
3. read ``peak_rss_mb`` from ``/proc``, drain the daemon, and re-run a
   seeded sample of the answers in-process (:mod:`perfbench.check`).

A :class:`perfbench.hostspeed.Sampler` runs beside the whole pass, and
every timing is scaled by its local slowdown to reference host speed;
the notes carry the unscaled figures.

Every measurement keeps the box below one busy core: the closed loop
and the probes wait for each answer, and the open loop runs at about a
third of the daemon's capacity.  On a shared two-core box the second
core comes and goes; a measurement that needs both swings with it.
Interleaving the rounds spreads each metric over the whole run, and the
per-round medians shrug off a few noisy seconds.
"""

from __future__ import annotations

import asyncio
import gc
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from perfbench import check, hostspeed, layers, loadgen, procs, spans, workloads
from perfbench.stats import latencies_with_failures, median, percentile

#: Daemon launches per pass; the median launch is ``setup_s``.
LAUNCHES = 5
#: Closed-loop/open-loop rounds per pass.
ROUNDS = 6
#: Share of each round spent in the closed loop (rest: open loop).
CLOSED_SHARE = 0.2
#: Warm key sets (the probe's cohorts, fresh keys) sent per launch.
WARM_PASSES = 3
#: Open-loop arrivals per second: a constant, about a third of the
#: one-connection closed-loop capacity (~150/s on the two-core box the
#: benchmark was defined on, ``--workers 1``).  Never derived per run,
#: or a faster commit would receive more load.
RATE_PER_S = 60.0
#: Share of closed/open-loop requests the answer check re-runs.
SAMPLE_SHARE = 0.05
#: Span names filtered to the measured window (the rest cover set-up).
WINDOWED = ("serve.", "api.", "cluster.", "core.")
NAME = "serve_compute"


def run_pass(seed: int, seconds: float, root: Path, scratch: Path,
             traced: bool) -> Dict[str, Any]:
    """One full serve pass (see module docstring).

    Returns ``metrics``, ``attempted``, ``failed``, ``notes``, ``layers``
    (traced only) and the generator's ``late_p99_ms``.
    """
    spans_dir = scratch / "spans" if traced else None
    probe = workloads.compute_probe(seed)
    warm_sets = [workloads.compute_probe(seed, shift=i, stream=f"warm-{i}")
                 for i in range(1, WARM_PASSES + 1)]
    sessions: List[_Session] = []
    scratch.mkdir(parents=True, exist_ok=True)
    sampler = hostspeed.Sampler(scratch / "hostspeed.txt", procs.child_env(root, scratch))
    # the load generator's own collector must not stall it mid-phase
    gc.disable()
    try:
        for launch in range(LAUNCHES):
            if spans_dir is not None and spans_dir.exists():
                shutil.rmtree(spans_dir)
            run_dir = scratch / f"daemon-{launch}"
            daemon = procs.launch(root, run_dir, spans_dir)
            try:
                last = launch == LAUNCHES - 1
                sessions.append(asyncio.run(
                    _session(seed, seconds, daemon, probe, warm_sets, last)))
            finally:
                daemon.stop()
            shutil.rmtree(run_dir, ignore_errors=True)
    finally:
        gc.enable()
        speed = sampler.stop()
    final = sessions[-1]
    closed = [closed for closed, _opened in final.rounds]
    opened = [opened for _closed, opened in final.rounds]
    open_records = [r for phase in opened for r in phase.records]

    notes: List[str] = []
    phases = [p for s in sessions for p in [s.cold] + s.warm] + closed + opened
    records = [r for phase in phases for r in phase.records]
    attempted = len(records)
    failed = sum(1 for r in records if not r.ok)
    for phase in phases:
        notes.extend(phase.errors[:5])
    samples = [s for phase in [final.cold] + final.warm + closed + opened
               for s in phase.samples]
    checked, mismatches = check.recheck(samples)
    failed += len(mismatches)
    notes.extend(mismatches[:5])
    notes.append(f"answer check: {checked} answers re-run in-process, "
                 f"{len(mismatches)} mismatched")

    open_fail = sum(1 for r in open_records if not r.ok)
    sample_count = len(open_records)
    replays = sum(1 for r in open_records if r.ok and r.family == "replay")
    capacities = [sum(1 for r in phase.records if r.ok) / phase.seconds
                  for phase in closed]
    metrics = {"ok_ratio": 1.0 - failed / attempted, "peak_rss_mb": final.rss_mb}
    metrics.update(_timings(sessions, closed, opened, speed.scaled))
    raw = _timings(sessions, closed, opened, lambda seconds, _at, _share: seconds)
    notes.append(f"host speed: {speed.summary()}; unscaled "
                 + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()))
    late_ms = sorted(n / 1e6 for phase in opened for n in phase.late_ns)
    late_p99 = late_ms[min(len(late_ms) - 1, int(0.99 * len(late_ms)))]
    notes.append(
        f"open loop: {sample_count} samples at {RATE_PER_S:g}/s on "
        f"{loadgen.CONNECTIONS} connections over {ROUNDS} rounds ({open_fail} "
        f"failed, as +inf), {replays} replay answers; closed loop: "
        f"{sum(p.attempted for p in closed)} answers on one connection, per-round rates "
        f"{', '.join(f'{c:.1f}' for c in capacities)}/s; probe set {len(probe)} "
        f"keys cold + {WARM_PASSES} warm sets x {LAUNCHES} launches; "
        f"generator lateness p99 {late_p99:.3f} ms")
    result: Dict[str, Any] = {"metrics": metrics, "attempted": attempted,
                              "failed": failed, "notes": notes, "layers": {},
                              "late_p99_ms": late_p99}
    if spans_dir is not None:
        index = layers.SpanIndex(layers.window(
            spans.load_spans(spans_dir), closed[0].started_ns, opened[-1].ended_ns,
            WINDOWED))
        delta = layers.stats_delta(final.before, final.after)
        result["layers"] = layers.serve_layers(
            index, [r for phase in closed + opened for r in phase.records],
            [n for phase in opened for n in phase.late_ns], delta, notes)
        notes.append(f"/stats over the measured window: {delta} "
                     f"(memo hit ratio base: {delta['queries']} queries)")
    return result


#: ``scale(seconds, started_s, array_share)``: a duration as reported
Scale = Callable[[float, float, float], float]


def _timings(sessions: List["_Session"], closed: List[loadgen.PhaseResult],
             opened: List[loadgen.PhaseResult], scale: Scale) -> Dict[str, float]:
    """Every timing metric, each measured duration passed through ``scale``."""
    request, bulk = hostspeed.REQUEST_ARRAY_SHARE, hostspeed.BULK_ARRAY_SHARE

    def phase_s(phase: loadgen.PhaseResult, share: float) -> float:
        return scale(phase.seconds, phase.started_ns / 1e9, share)

    def latency_s(record: loadgen.Record) -> float:
        # open loop: from the due time, so queueing behind a stall counts
        return scale((record.done_ns - record.due_ns) / 1e9, record.due_ns / 1e9, request)

    # a failed request counts as +inf
    samples_by_round = [latencies_with_failures(
        [latency_s(r) * 1000.0 for r in phase.records if r.ok],
        sum(1 for r in phase.records if not r.ok)) for phase in opened]
    replays_by_round = [[latency_s(r) for r in phase.records
                         if r.ok and r.family == "replay"] for phase in opened]
    return {
        "setup_s": median([scale(s.setup_s, s.launched, bulk) for s in sessions]),
        "capacity_qps": median([sum(1 for r in phase.records if r.ok) / phase_s(phase, request)
                                for phase in closed]),
        "p50_ms": median([percentile(round_ms, 0.5) for round_ms in samples_by_round]),
        "p99_ms": percentile([ms for round_ms in samples_by_round for ms in round_ms], 0.99),
        "build_cold_s": median([phase_s(s.cold, bulk) for s in sessions]),
        "build_warm_s": median([phase_s(p, bulk) for s in sessions for p in s.warm]),
        "replay_s": median([median(round_s) for round_s in replays_by_round]),
    }


@dataclass
class _Session:
    """What one daemon launch produced."""

    setup_s: float
    #: perf_counter when the daemon was spawned
    launched: float
    cold: loadgen.PhaseResult
    warm: List[loadgen.PhaseResult]
    rounds: List[Tuple[loadgen.PhaseResult, loadgen.PhaseResult]] = field(
        default_factory=list)
    before: Dict[str, int] = field(default_factory=dict)
    after: Dict[str, int] = field(default_factory=dict)
    rss_mb: float = 0.0


async def _session(seed: int, seconds: float, daemon: procs.Daemon,
                   probe: List[workloads.Payload],
                   warm_sets: List[List[workloads.Payload]], measure: bool) -> _Session:
    """Cold pass, warm passes, and (``measure``) the closed/open rounds."""
    conns = [await loadgen.Connection.open(daemon.port)
             for _ in range(loadgen.CONNECTIONS)]
    try:
        cold = await loadgen.sequential(probe, conns[0])
        warm = [await loadgen.sequential(payloads, conns[0], keep=measure)
                for payloads in warm_sets]
        session = _Session(daemon.setup_s, daemon.launched, cold, warm)
        if not measure:
            return session
        stream = workloads.compute_stream(seed)
        flags = workloads.sample_flags(seed, NAME, SAMPLE_SHARE)
        round_s = seconds / ROUNDS
        session.before = daemon.stats()
        for round_index in range(ROUNDS):
            closed = await loadgen.closed_loop(
                conns[0], stream, flags, round_s * CLOSED_SHARE)
            offsets = workloads.arrivals(
                seed, f"{NAME}/{round_index}", RATE_PER_S,
                round_s * (1.0 - CLOSED_SHARE))
            schedule = [(offset, next(stream), next(flags)) for offset in offsets]
            session.rounds.append((closed, await loadgen.open_loop(conns, schedule)))
        session.after = daemon.stats()
        session.rss_mb = daemon.peak_rss_mb()
        return session
    finally:
        for conn in conns:
            await conn.close()
