"""Columnar trace replay over a fleet: the day loop, batched.

:class:`BatchTraceReplay` is the vectorized twin of
:func:`repro.cluster.trace.replay_trace`: the placement engine is
built once (ranked orders, capacity columns), each step runs the
reduced :meth:`~repro.cluster.batch_placement.BatchPlacementEngine.place_totals`
path (no per-server ``Assignment`` objects in the hot loop), and the
energy/served accumulators stay as sequential Python float additions
-- the scalar replay's accumulation order is part of the bit-identity
contract.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cluster.batch_placement import BatchPlacementEngine
from repro.cluster.trace import _POLICIES, DemandTrace, TraceOutcome, diurnal_trace


class BatchTraceReplay:
    """Replay demand traces against one fleet, placement engine shared."""

    def __init__(self, fleet):
        if isinstance(fleet, BatchPlacementEngine):
            self.engine = fleet
        else:
            self.engine = BatchPlacementEngine(fleet)
        # The scalar replay sums full-load ssj_ops from the *raw* level
        # lists in fleet order; replicate that reduction exactly rather
        # than assuming the grid tops out at 100% load.
        self._capacity = sum(
            level.ssj_ops
            for server in self.engine.arrays.records
            for level in server.levels
            if level.target_load == 1.0
        )

    def replay(
        self,
        trace: DemandTrace,
        policy: str = "ep-aware",
        power_off_unused: bool = False,
    ) -> TraceOutcome:
        """Columnar ``replay_trace``; identical outcome."""
        if policy not in _POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; choose from {sorted(_POLICIES)}"
            )
        step_hours = 24.0 / trace.steps
        energy_wh = 0.0
        served_ops_h = 0.0
        unserved = 0
        for fraction in trace.demand_fraction:
            demand = fraction * self._capacity
            placed, total_power = self.engine.place_totals(
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

    def compare_policies(
        self,
        trace: Optional[DemandTrace] = None,
        power_off_unused: bool = False,
    ) -> Dict[str, TraceOutcome]:
        """Columnar ``compare_policies``; identical outcome dict."""
        if trace is None:
            trace = diurnal_trace(noise=0.0)
        return {
            policy: self.replay(trace, policy, power_off_unused)
            for policy in _POLICIES
        }
