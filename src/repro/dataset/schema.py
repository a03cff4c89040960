"""The SPECpower result record and its derived metrics.

A :class:`SpecPowerResult` carries exactly the payload the paper
extracts from a published FDR: identity (vendor, model, form factor),
configuration (nodes, chips, cores, memory), dates (published year vs.
hardware-availability year -- the distinction the whole reorganization
argument rests on), and the per-level measurements.  Everything the
analyses need (EP, overall score, peak-efficiency spots, idle power
percentage, ...) derives from the measurements through
:mod:`repro.metrics`, cached on first access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.dataset.columns import _matrix_metrics
from repro.metrics.curves import (
    above_ideal_zone,
    first_crossing,
    ideal_intersections,
)
from repro.metrics.ee import (
    overall_score,
    peak_efficiency,
    peak_efficiency_spots,
    peak_over_full_ratio,
)
from repro.metrics.ep import (
    dynamic_range,
    energy_proportionality,
    idle_power_fraction,
)
from repro.metrics.linearity import linear_deviation
from repro.power.microarch import Codename, Family, Vendor, family_of


@dataclass(frozen=True)
class LoadLevel:
    """One measured target load of a published result."""

    target_load: float
    ssj_ops: float
    average_power_w: float

    def __post_init__(self):
        if not 0.0 < self.target_load <= 1.0:
            raise ValueError("target load must lie in (0, 1]")
        if self.ssj_ops < 0.0:
            raise ValueError("throughput cannot be negative")
        if self.average_power_w <= 0.0:
            raise ValueError("average power must be positive")

    @property
    def efficiency(self) -> float:
        return self.ssj_ops / self.average_power_w


@dataclass
class SpecPowerResult:
    """One published SPECpower_ssj2008 result.

    ``hw_year`` is the hardware-availability year the paper reorganizes
    by; ``published_year`` is the submission year.  The two differ for
    15.5% of the valid results (Section I).
    """

    result_id: str
    vendor: str
    model: str
    form_factor: str
    hw_year: int
    published_year: int
    codename: Codename
    nodes: int
    chips_per_node: int
    cores_per_chip: int
    memory_gb: float
    levels: List[LoadLevel]
    active_idle_power_w: float
    tie_peak_spots: bool = False

    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.nodes <= 0 or self.chips_per_node <= 0 or self.cores_per_chip <= 0:
            raise ValueError("nodes, chips, and cores must be positive")
        if self.memory_gb <= 0.0:
            raise ValueError("installed memory must be positive")
        if len(self.levels) < 2:
            raise ValueError("a result needs at least two load levels")
        if self.active_idle_power_w <= 0.0:
            raise ValueError("active idle power must be positive")
        if self.hw_year < 2000 or self.published_year < 2000:
            raise ValueError("implausible year")
        loads = [level.target_load for level in self.levels]
        if len(set(loads)) != len(loads):
            raise ValueError("duplicate target loads")

    # -- configuration-derived ------------------------------------------------

    @property
    def family(self) -> Family:
        return family_of(self.codename)

    @property
    def cpu_vendor(self) -> Vendor:
        from repro.power.microarch import CATALOG

        return CATALOG[self.codename].vendor

    @property
    def total_chips(self) -> int:
        return self.nodes * self.chips_per_node

    @property
    def total_cores(self) -> int:
        return self.total_chips * self.cores_per_chip

    @property
    def memory_per_core_gb(self) -> float:
        """GB of installed memory per physical core (Section V.A)."""
        return self.memory_gb / self.total_cores

    @property
    def is_single_node(self) -> bool:
        return self.nodes == 1

    @property
    def publication_lag_years(self) -> int:
        """Published year minus hardware availability year."""
        return self.published_year - self.hw_year

    # -- measurement series -----------------------------------------------------

    def sorted_levels(self) -> List[LoadLevel]:
        """Levels ascending by target load."""
        return sorted(self.levels, key=lambda level: level.target_load)

    def curve(self) -> Tuple[List[float], List[float]]:
        """(utilization, power) including the active-idle point."""
        levels = self.sorted_levels()
        loads = [0.0] + [level.target_load for level in levels]
        powers = [self.active_idle_power_w] + [
            level.average_power_w for level in levels
        ]
        return loads, powers

    def normalized_power(self) -> List[float]:
        """Power curve normalized to the 100%-load reading."""
        loads, powers = self.curve()
        peak = powers[-1]
        return [p / peak for p in powers]

    # -- derived metrics (cached) -------------------------------------------------

    def _derive(self, key: str, compute) -> float:
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    @property
    def ep(self) -> float:
        """Energy proportionality (Eq. 1)."""
        return self._derive("ep", lambda: energy_proportionality(*self.curve()))

    @property
    def overall_score(self) -> float:
        """Server overall energy efficiency (the SPECpower score)."""

        def compute():
            levels = self.sorted_levels()
            return overall_score(
                [level.ssj_ops for level in levels],
                [level.average_power_w for level in levels],
                self.active_idle_power_w,
            )

        return self._derive("score", compute)

    @property
    def peak_ee(self) -> float:
        def compute():
            levels = self.sorted_levels()
            return peak_efficiency(
                [level.ssj_ops for level in levels],
                [level.average_power_w for level in levels],
            )

        return self._derive("peak_ee", compute)

    @property
    def peak_ee_spots(self) -> List[float]:
        """Utilization level(s) of peak efficiency.

        The corpus constructs tie servers with *exactly* equal
        efficiency at the tied levels (matching how the paper counts
        the 2011 server with peaks at both 80% and 90% utilization), so
        a tight tolerance suffices for them; regular servers use a
        looser tolerance matched to the corpus's enforced strict-winner
        margin.
        """

        def compute():
            levels = self.sorted_levels()
            return peak_efficiency_spots(
                [level.target_load for level in levels],
                [level.ssj_ops for level in levels],
                [level.average_power_w for level in levels],
                rtol=self._spot_rtol(),
            )

        return self._derive("spots", compute)

    def _spot_rtol(self) -> float:
        return 1e-6 if self.tie_peak_spots else 1e-3

    @property
    def primary_peak_spot(self) -> float:
        """The single spot used for per-server grouping (lowest if tied)."""
        return self.peak_ee_spots[0]

    @property
    def idle_fraction(self) -> float:
        """Idle power percentage (normalized to power at 100%)."""
        return self._derive("idle", lambda: idle_power_fraction(*self.curve()))

    @property
    def dynamic_range(self) -> float:
        return self._derive("dr", lambda: dynamic_range(*self.curve()))

    @property
    def peak_over_full(self) -> float:
        """Peak EE over EE at 100% utilization."""

        def compute():
            levels = self.sorted_levels()
            return peak_over_full_ratio(
                [level.target_load for level in levels],
                [level.ssj_ops for level in levels],
                [level.average_power_w for level in levels],
            )

        return self._derive("pof", compute)

    @property
    def linear_deviation(self) -> float:
        return self._derive("ld", lambda: linear_deviation(*self.curve()))

    def ideal_intersections(self) -> List[float]:
        """Crossings of the ideal EP curve before 100% utilization."""
        return ideal_intersections(*self.curve())

    def ee_crossing(self, threshold: float) -> float:
        """Earliest utilization reaching threshold x EE(100%)."""
        return first_crossing(*self.curve(), threshold=threshold)

    def above_ideal_zone_width(self) -> float:
        """Width of the efficiency band above the 100% level (Section V.C)."""
        return above_ideal_zone(*self.curve())

    def invalidate_cache(self) -> None:
        """Drop memoized metrics (call after mutating levels in place)."""
        self._cache.clear()


def overall_scores(results: Sequence[SpecPowerResult]) -> np.ndarray:
    """Every record's :attr:`SpecPowerResult.overall_score`, memoized on each.

    One pass over (records x levels) columns gathered into ascending-load
    order, whatever order each record lists its levels in.  The same
    pass primes each record's ``peak_ee`` and ``peak_ee_spots`` (from the
    ``ops / power`` matrix, at the record's own tie tolerance) and, when
    every record shares one grid, its ``ep`` and ``idle_fraction`` (from
    :func:`repro.dataset.columns._matrix_metrics`).  The columns are
    C-ordered, and a C-order row reduction adds (or compares) exactly
    what the one-record property's 1-D reduction does, so every
    memoized value is the one the property would derive.  The metrics'
    input checks hold by construction: :class:`LoadLevel` rejects
    negative throughput and non-positive power, and the record rejects
    non-positive idle power.  Records that differ in level count derive
    their own values, and a grid the metric family cannot take leaves
    ``ep`` and ``idle_fraction`` to the properties.
    """
    if len({len(r.levels) for r in results}) != 1:
        return np.array([r.overall_score for r in results])
    levels = [level for r in results for level in r.levels]
    shape = (len(results), len(results[0].levels))
    loads, ops, watts = (
        np.array(column, dtype=float).reshape(shape)
        for column in (
            [level.target_load for level in levels],
            [level.ssj_ops for level in levels],
            [level.average_power_w for level in levels],
        )
    )
    ascending = np.argsort(loads, axis=1, kind="stable")
    loads, ops, watts = (
        np.take_along_axis(column, ascending, axis=1) for column in (loads, ops, watts)
    )
    idle_w = np.array([r.active_idle_power_w for r in results])
    scores = ops.sum(axis=1) / (watts.sum(axis=1) + idle_w)
    efficiency = ops / watts
    peak = efficiency.max(axis=1)
    rtol = np.array([r._spot_rtol() for r in results])
    rows, at = np.nonzero(efficiency >= (peak * (1.0 - rtol))[:, None])
    spots: List[List[float]] = [[] for _ in results]
    for row, load in zip(rows.tolist(), loads[rows, at].tolist()):
        spots[row].append(load)
    primed = {"score": scores.tolist(), "peak_ee": peak.tolist(), "spots": spots}
    if (loads == loads[0]).all():
        try:
            metrics = _matrix_metrics(
                np.concatenate(([0.0], loads[0])), np.column_stack((idle_w, watts))
            )
        except ValueError:  # e.g. no level inside a gap band
            pass
        else:
            primed["ep"] = metrics.ep.tolist()
            primed["idle"] = metrics.ipr.tolist()
    for key, values in primed.items():
        for result, value in zip(results, values):
            result._cache[key] = value
    return scores
