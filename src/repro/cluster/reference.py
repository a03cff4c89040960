"""Scalar reference kernels for the vectorized cluster fast paths.

Mirror of :mod:`repro.dataset.reference` for the cluster layer: the
per-timestep loop that :func:`repro.cluster.trace.diurnal_trace`
vectorized lives on here verbatim, the ``_SWAPS`` table pairs it with
the live kernel by name (the REP40x parity rules keep that pairing
structural), and :func:`reference_kernels` reroutes the live call
sites onto it so the equality tests compare real executions.

The per-server placement, cap-search, scheduling and day-replay loops
the fleet engines replaced live here too.  No production module runs
them: every fleet goes to an engine
(:func:`repro.cluster.engines.fleet_engine`), and these loops are the
oracle the parity tests hold the engines to, bit for bit.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.cluster import trace as _trace
from repro.cluster.jobs import Job, Schedule
from repro.cluster.placement import Assignment, PlacementOutcome
from repro.cluster.regions import efficiency_at, power_at, throughput_at
from repro.cluster.trace import DemandTrace, TraceOutcome
from repro.dataset.schema import SpecPowerResult


def diurnal_trace_reference(
    steps_per_day: int = 48,
    base: float = 0.25,
    peak: float = 0.85,
    peak_hour: float = 14.0,
    secondary_peak_hour: float = 20.5,
    noise: float = 0.02,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> DemandTrace:
    """The original per-timestep ``diurnal_trace`` loop, kept verbatim."""
    if not 0.0 <= base < peak <= 1.0:
        raise ValueError("need 0 <= base < peak <= 1")
    if steps_per_day < 4:
        raise ValueError("at least four steps per day")
    if rng is not None and seed is not None:
        raise ValueError("pass at most one of seed= or rng=")
    if noise > 0.0:
        if rng is None and seed is None:
            raise ValueError("noise > 0 needs a randomness source: seed= or rng=")
        if rng is None:
            rng = np.random.default_rng(seed)
    times = [24.0 * i / steps_per_day for i in range(steps_per_day)]
    demands = []
    for t in times:
        main = math.exp(-((t - peak_hour) ** 2) / (2 * 3.5**2))
        evening = 0.55 * math.exp(-((t - secondary_peak_hour) ** 2) / (2 * 1.8**2))
        shape = min(1.0, main + evening)
        level = base + (peak - base) * shape
        if rng is not None:
            # rng.normal(0.0, 0.0) returns exactly 0.0, so skipping the
            # draw at noise == 0.0 keeps the stream and output identical.
            level += float(rng.normal(0.0, noise))
        demands.append(min(1.0, max(0.0, level)))
    return DemandTrace(times_h=tuple(times), demand_fraction=tuple(demands))


def _pack_to_full_scalar(
    fleet: Sequence[SpecPowerResult],
    demand_ops: float,
    power_off_unused: bool = False,
) -> PlacementOutcome:
    """The per-server reference loop of ``pack_to_full_placement``."""
    outcome = PlacementOutcome(policy="pack-to-full", demand_ops=demand_ops)
    remaining = demand_ops
    ranked = sorted(fleet, key=lambda s: -efficiency_at(s, 1.0))
    for server in ranked:
        if remaining <= 0.0:
            if not power_off_unused:
                outcome.unused_idle_power_w += power_at(server, 0.0)
            continue
        full_capacity = throughput_at(server, 1.0)
        take = min(remaining, full_capacity)
        utilization = _utilization_for(server, take)
        outcome.assignments.append(
            Assignment(
                server=server,
                utilization=utilization,
                throughput_ops=take,
                power_w=power_at(server, utilization),
            )
        )
        remaining -= take
    return outcome


def _ep_aware_scalar(
    fleet: Sequence[SpecPowerResult],
    demand_ops: float,
    power_off_unused: bool = False,
) -> PlacementOutcome:
    """The per-server reference loop of ``ep_aware_placement``."""
    outcome = PlacementOutcome(policy="ep-aware", demand_ops=demand_ops)
    remaining = demand_ops
    ranked = sorted(fleet, key=lambda s: -s.peak_ee)
    assignments: Dict[str, Assignment] = {}
    for server in ranked:
        if remaining <= 0.0:
            break
        spot = server.primary_peak_spot
        take = min(remaining, throughput_at(server, spot))
        utilization = _utilization_for(server, take)
        assignments[server.result_id] = Assignment(
            server=server,
            utilization=utilization,
            throughput_ops=take,
            power_w=power_at(server, utilization),
        )
        remaining -= take
    if remaining > 0.0:
        for server in ranked:
            if remaining <= 0.0:
                break
            current = assignments.get(server.result_id)
            already = current.throughput_ops if current else 0.0
            extra = min(remaining, throughput_at(server, 1.0) - already)
            if extra <= 0.0:
                continue
            total = already + extra
            utilization = _utilization_for(server, total)
            assignments[server.result_id] = Assignment(
                server=server,
                utilization=utilization,
                throughput_ops=total,
                power_w=power_at(server, utilization),
            )
            remaining -= extra
    outcome.assignments = list(assignments.values())
    if not power_off_unused:
        # Start at 0.0: with every server assigned the sum is empty,
        # and the engines report a float zero, not the int 0.
        outcome.unused_idle_power_w = sum(
            (
                power_at(server, 0.0)
                for server in fleet
                if server.result_id not in assignments
            ),
            0.0,
        )
    return outcome


def _utilization_for(server: SpecPowerResult, throughput_ops: float) -> float:
    """Invert the (piecewise-linear) throughput curve.

    Edge cases are explicit: non-positive requests sit at 0.0, and a
    request at or beyond the server's full capacity -- including any
    positive request against a zero-capacity (all-zero ops) server --
    pins to 1.0 instead of bisecting toward it.
    """
    if throughput_ops <= 0.0:
        return 0.0
    if throughput_ops >= throughput_at(server, 1.0):
        return 1.0
    low, high = 0.0, 1.0
    for _ in range(50):
        mid = 0.5 * (low + high)
        if throughput_at(server, mid) < throughput_ops:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


#: Policy name -> scalar placement loop, in ``POLICIES`` order.
_POLICY_LOOPS: Dict[str, Callable[..., PlacementOutcome]] = {
    "pack-to-full": _pack_to_full_scalar,
    "ep-aware": _ep_aware_scalar,
}


def _max_throughput_under_cap_scalar(
    fleet: Sequence[SpecPowerResult],
    power_cap_w: float,
    policy: str = "ep-aware",
    power_off_unused: bool = False,
) -> PlacementOutcome:
    """The reference bisection of ``max_throughput_under_cap``."""
    place = _POLICY_LOOPS[policy]
    total_capacity = sum(throughput_at(server, 1.0) for server in fleet)
    low, high = 0.0, total_capacity
    best = place(fleet, 0.0, power_off_unused)
    for _ in range(40):
        mid = 0.5 * (low + high)
        outcome = place(fleet, mid, power_off_unused)
        if outcome.total_power_w <= power_cap_w and outcome.satisfied():
            best = outcome
            low = mid
        else:
            high = mid
    return best


def _replay_scalar(
    fleet: Sequence[SpecPowerResult],
    trace: DemandTrace,
    policy: str = "ep-aware",
    power_off_unused: bool = False,
) -> TraceOutcome:
    """The per-step reference loop of ``replay_trace``."""
    if policy not in _POLICY_LOOPS:
        raise ValueError(
            f"unknown policy {policy!r}; choose from {sorted(_POLICY_LOOPS)}"
        )
    place = _POLICY_LOOPS[policy]
    capacity = sum(
        level.ssj_ops
        for server in fleet
        for level in server.levels
        if level.target_load == 1.0
    )
    step_hours = 24.0 / trace.steps
    energy_wh = 0.0
    served_ops_h = 0.0
    unserved = 0
    for fraction in trace.demand_fraction:
        outcome: PlacementOutcome = place(
            fleet, fraction * capacity, power_off_unused
        )
        if not outcome.satisfied():
            unserved += 1
        energy_wh += outcome.total_power_w * step_hours
        served_ops_h += outcome.placed_ops * step_hours
    return TraceOutcome(
        policy=policy,
        energy_kwh=energy_wh / 1000.0,
        served_gops=served_ops_h * 3600.0 / 1e9,
        step_hours=step_hours,
        unserved_steps=unserved,
    )


def _first_fit_decreasing_scalar(
    fleet: Sequence[SpecPowerResult], jobs: Sequence[Job]
) -> Schedule:
    """The reference loop of ``FirstFitDecreasing``: largest jobs first
    onto the most efficient-at-full servers."""
    schedule = Schedule(policy="first-fit-decreasing", fleet=list(fleet))
    ranked = sorted(
        fleet,
        key=lambda s: -(
            throughput_at(s, 1.0) / power_at(s, 1.0)
        ),
    )
    ordered_jobs = sorted(jobs, key=lambda job: -job.demand_ops)
    for job in ordered_jobs:
        placed = False
        for server in ranked:
            used = schedule.loads_ops.get(server.result_id, 0.0)
            if used + job.demand_ops <= throughput_at(server, 1.0) + 1e-9:
                schedule.loads_ops[server.result_id] = used + job.demand_ops
                schedule.assignments[job.job_id] = server.result_id
                placed = True
                break
        if not placed:
            schedule.unplaced.append(job.job_id)
    return schedule


def _peak_spot_aware_scalar(
    fleet: Sequence[SpecPowerResult], jobs: Sequence[Job]
) -> Schedule:
    """The reference loop of ``PeakSpotAware``: a capped pass at the
    peak spots, then an uncapped spill pass."""
    schedule = Schedule(policy="peak-spot-aware", fleet=list(fleet))
    ranked = sorted(fleet, key=lambda s: -s.peak_ee)
    ordered_jobs = sorted(jobs, key=lambda job: -job.demand_ops)
    spill: List[Job] = []
    for job in ordered_jobs:
        if not _place(schedule, ranked, job, capped=True):
            spill.append(job)
    for job in spill:
        if not _place(schedule, ranked, job, capped=False):
            schedule.unplaced.append(job.job_id)
    return schedule


def _place(
    schedule: Schedule,
    ranked: Sequence[SpecPowerResult],
    job: Job,
    capped: bool,
) -> bool:
    for server in ranked:
        cap = server.primary_peak_spot if capped else 1.0
        used = schedule.loads_ops.get(server.result_id, 0.0)
        if used + job.demand_ops <= throughput_at(server, cap) + 1e-9:
            schedule.loads_ops[server.result_id] = used + job.demand_ops
            schedule.assignments[job.job_id] = server.result_id
            return True
    return False


#: Scheduler name -> scalar scheduling loop.
_SCHEDULER_LOOPS: Dict[str, Callable[..., Schedule]] = {
    "first-fit-decreasing": _first_fit_decreasing_scalar,
    "peak-spot-aware": _peak_spot_aware_scalar,
}


#: (module, attribute, replacement) triples swapped in by the context
#: manager below; the live call sites resolve these names through
#: their module globals, so the swap reroutes them in place.
_SWAPS = (
    (_trace, "diurnal_trace", diurnal_trace_reference),
)


@contextmanager
def reference_kernels():
    """Run the cluster layer on the pre-vectorization kernels."""
    saved = [(module, name, getattr(module, name)) for module, name, _ in _SWAPS]
    try:
        for module, name, replacement in _SWAPS:
            setattr(module, name, replacement)
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)
