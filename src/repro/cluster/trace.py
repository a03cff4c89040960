"""Trace-driven placement simulation.

Section V.C frames its guidance for live operation -- heterogeneous
servers, fluctuating demand, fixed racks.  This module closes the loop:
generate a diurnal demand trace (the double-peaked day shape that
motivates energy-proportional computing in the first place, per
Barroso & Hoelzle), replay it against a fleet under each placement
policy, and integrate energy over the day.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.dataset.schema import SpecPowerResult

#: ``np.exp`` and ``math.exp`` disagree in the last ulp on some
#: arguments; mapping ``math.exp`` over the array keeps the vectorized
#: trace bit-identical to the per-timestep reference loop.
_EXP_UFUNC = np.frompyfunc(math.exp, 1, 1)


@dataclass(frozen=True)
class DemandTrace:
    """A demand time series, as fractions of fleet capacity."""

    times_h: tuple
    demand_fraction: tuple

    def __post_init__(self):
        if len(self.times_h) != len(self.demand_fraction) or not self.times_h:
            raise ValueError("trace arrays must align and be non-empty")
        if any(not 0.0 <= d <= 1.0 for d in self.demand_fraction):
            raise ValueError("demand fractions must lie in [0, 1]")
        if any(b <= a for a, b in zip(self.times_h, self.times_h[1:])):
            raise ValueError("trace times must be strictly increasing")

    @property
    def steps(self) -> int:
        return len(self.times_h)


def diurnal_trace(
    steps_per_day: int = 48,
    base: float = 0.25,
    peak: float = 0.85,
    peak_hour: float = 14.0,
    secondary_peak_hour: float = 20.5,
    noise: float = 0.02,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> DemandTrace:
    """A double-peaked day: quiet night, afternoon peak, evening bump.

    With ``noise > 0`` a randomness source is required: pass either a
    ``seed`` or an already-constructed ``rng`` so the stream stays
    visible at the call site (REP106).  ``noise=0.0`` is the
    deterministic shape and needs neither.

    Vectorized over the timesteps; bit-identical to the per-timestep
    reference loop (:mod:`repro.cluster.reference`): the exponentials
    go through ``math.exp`` via :data:`_EXP_UFUNC`, and a single
    ``rng.normal(0.0, noise, size=n)`` call draws the same stream as
    ``n`` scalar draws.
    """
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
    steps = np.arange(steps_per_day, dtype=np.float64)
    times = 24.0 * steps / steps_per_day
    main = _EXP_UFUNC(-((times - peak_hour) ** 2) / (2 * 3.5**2)).astype(np.float64)
    evening = 0.55 * _EXP_UFUNC(
        -((times - secondary_peak_hour) ** 2) / (2 * 1.8**2)
    ).astype(np.float64)
    level = base + (peak - base) * np.minimum(1.0, main + evening)
    if rng is not None:
        # rng.normal(0.0, 0.0) returns exactly 0.0, so skipping the
        # draw at noise == 0.0 keeps the stream and output identical.
        level = level + rng.normal(0.0, noise, size=steps_per_day)
    demands = np.minimum(1.0, np.maximum(0.0, level))
    return DemandTrace(
        times_h=tuple(times.tolist()), demand_fraction=tuple(demands.tolist())
    )


@dataclass
class TraceOutcome:
    """Energy accounting of one policy over one trace."""

    policy: str
    energy_kwh: float
    served_gops: float
    step_hours: float
    unserved_steps: int

    @property
    def energy_per_gop(self) -> float:
        if self.served_gops == 0.0:
            return float("inf")
        return self.energy_kwh / self.served_gops


def replay_trace(
    fleet: Sequence[SpecPowerResult],
    trace: DemandTrace,
    *,
    policy: str = "ep-aware",
    power_off_unused: bool = False,
) -> TraceOutcome:
    """Integrate fleet energy while serving the trace under a policy.

    Replays through the day loop of the engine
    :func:`repro.cluster.engines.fleet_engine` picks for the fleet
    (:class:`~repro.cluster.batch_trace.BatchTraceReplay` or
    :class:`~repro.cluster.sharded.ShardedTraceReplay`).
    """
    from repro.cluster.engines import fleet_engine, trace_replayer

    replayer = trace_replayer(fleet_engine(fleet))
    return replayer.replay(trace, policy, power_off_unused)


def compare_policies(
    fleet: Sequence[SpecPowerResult],
    trace: Optional[DemandTrace] = None,
    *,
    power_off_unused: bool = False,
) -> Dict[str, TraceOutcome]:
    """Replay the same trace (default: the noiseless day) under every policy."""
    from repro.cluster.engines import fleet_engine, trace_replayer

    replayer = trace_replayer(fleet_engine(fleet))
    return replayer.compare_policies(trace, power_off_unused)


def daily_saving(outcomes: Dict[str, TraceOutcome]) -> float:
    """Relative daily energy saved by EP-aware placement over packing."""
    packed = outcomes["pack-to-full"].energy_kwh
    aware = outcomes["ep-aware"].energy_kwh
    if packed <= 0.0:
        raise ValueError("degenerate trace: no energy consumed")
    return 1.0 - aware / packed
