"""Engine trace replay: the one day loop both fleet engines run.

:func:`replay_day` is the day loop behind
:func:`repro.cluster.trace.replay_trace`: each step runs the engine's
reduced ``place_totals`` path (no per-server ``Assignment`` objects in
the hot loop), and the energy/served accumulators stay as sequential
Python float additions in step order -- the reference replay's
(:mod:`repro.cluster.reference`) accumulation order is part of the
bit-identity contract.
:class:`BatchTraceReplay` drives it over the columnar engine and
:class:`~repro.cluster.sharded.ShardedTraceReplay` over the sharded
one.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cluster.batch_placement import BatchPlacementEngine
from repro.cluster.fleet_arrays import streamed_level_capacity
from repro.cluster.placement import POLICIES
from repro.cluster.trace import DemandTrace, TraceOutcome, diurnal_trace


def replay_day(
    engine,
    capacity: float,
    trace: DemandTrace,
    policy: str,
    power_off_unused: bool,
) -> TraceOutcome:
    """Replay ``trace`` over a fleet engine; the scalar day loop's floats.

    ``capacity`` is the fleet's :func:`streamed_level_capacity`, which
    turns each step's demand fraction into ops.
    """
    if policy not in POLICIES:
        raise ValueError(
            f"unknown policy {policy!r}; choose from {sorted(POLICIES)}"
        )
    step_hours = 24.0 / trace.steps
    energy_wh = 0.0
    served_ops_h = 0.0
    unserved = 0
    for fraction in trace.demand_fraction:
        demand = fraction * capacity
        placed, total_power = engine.place_totals(
            policy, demand, power_off_unused
        )
        if not placed >= demand * (1.0 - 1e-6):
            unserved += 1
        energy_wh += total_power * step_hours
        served_ops_h += placed * step_hours
    return TraceOutcome(
        policy=policy,
        energy_kwh=energy_wh / 1000.0,
        served_gops=served_ops_h * 3600.0 / 1e9,
        step_hours=step_hours,
        unserved_steps=unserved,
    )


class DayReplay:
    """What both engine replayers share: ``compare_policies`` over ``replay``."""

    def compare_policies(
        self,
        trace: Optional[DemandTrace] = None,
        power_off_unused: bool = False,
    ) -> Dict[str, TraceOutcome]:
        """Engine ``compare_policies``; identical outcome dict."""
        if trace is None:
            trace = diurnal_trace(noise=0.0)
        return {
            policy: self.replay(trace, policy, power_off_unused)
            for policy in POLICIES
        }


class BatchTraceReplay(DayReplay):
    """Replay demand traces against one fleet, placement engine shared."""

    def __init__(self, fleet):
        if isinstance(fleet, BatchPlacementEngine):
            self.engine = fleet
        else:
            self.engine = BatchPlacementEngine(fleet)
        records = self.engine.arrays.records
        self._capacity = streamed_level_capacity(records, len(records))

    def replay(
        self,
        trace: DemandTrace,
        policy: str = "ep-aware",
        power_off_unused: bool = False,
    ) -> TraceOutcome:
        """Columnar ``replay_trace``; identical outcome."""
        return replay_day(
            self.engine, self._capacity, trace, policy, power_off_unused
        )
