"""EP-aware workload placement vs. the pack-to-full baseline.

Section V.C's operational claim: "we don't need to pack as many jobs
to the server to let it fully busy.  Instead, keeping the server at
70% utilization is more energy efficient", and under a fixed power
budget "energy proportionality aware workload placement can maximize
the throughput".

Two placement policies over a heterogeneous fleet:

* :func:`pack_to_full_placement` -- classic consolidation: drive as
  few servers as possible, each to 100% utilization;
* :func:`ep_aware_placement` -- run servers at their peak-efficiency
  spot (in efficiency order), spilling the remainder.

Both receive a total throughput demand (ssj_ops/s) and return the
power drawn.  The paper's scenario is a *fixed number of racks*: the
fleet is provisioned and powered, so unused servers burn their idle
power (``power_off_unused=False``, the default).  The consolidation
premise -- unused servers are switched off entirely -- is available as
an ablation via ``power_off_unused=True``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.dataset.schema import SpecPowerResult


@dataclass
class Assignment:
    """One server's share of the placed load."""

    server: SpecPowerResult
    utilization: float
    throughput_ops: float
    power_w: float


@dataclass
class PlacementOutcome:
    """The fleet-level result of a placement policy."""

    policy: str
    demand_ops: float
    assignments: List[Assignment] = field(default_factory=list)
    unused_idle_power_w: float = 0.0

    @property
    def placed_ops(self) -> float:
        return sum(a.throughput_ops for a in self.assignments)

    @property
    def total_power_w(self) -> float:
        return sum(a.power_w for a in self.assignments) + self.unused_idle_power_w

    @property
    def servers_used(self) -> int:
        return sum(1 for a in self.assignments if a.utilization > 0.0)

    @property
    def fleet_efficiency(self) -> float:
        if self.total_power_w == 0.0:
            return 0.0
        return self.placed_ops / self.total_power_w

    def satisfied(self, rtol: float = 1e-6) -> bool:
        """True when the placed work covers the demand."""
        return self.placed_ops >= self.demand_ops * (1.0 - rtol)


#: The placement policies, in the order ``compare_policies`` reports.
POLICIES = ("pack-to-full", "ep-aware")


def pack_to_full_placement(
    fleet: Sequence[SpecPowerResult],
    demand_ops: float,
    *,
    power_off_unused: bool = False,
) -> PlacementOutcome:
    """Consolidate: fill the most efficient-at-full servers to 100%.

    Servers are loaded in descending full-load efficiency; each takes
    as much of the remaining demand as it can at 100% utilization, the
    last loaded server runs partially loaded.  Unused servers idle
    (or are powered off when ``power_off_unused``).

    Runs on the engine :func:`repro.cluster.engines.fleet_engine` picks
    for the fleet.
    """
    if demand_ops < 0.0:
        raise ValueError("demand cannot be negative")
    from repro.cluster.engines import fleet_engine

    return fleet_engine(fleet).pack_to_full(demand_ops, power_off_unused)


def ep_aware_placement(
    fleet: Sequence[SpecPowerResult],
    demand_ops: float,
    *,
    power_off_unused: bool = False,
) -> PlacementOutcome:
    """Operate each active server at its peak-efficiency spot.

    Servers are activated in descending *peak* efficiency and loaded to
    their peak-efficiency utilization (not 100%).  If every server is
    at its spot and demand remains, the policy tops servers up toward
    100% in peak-efficiency order (the spillover is unavoidable once
    the fleet nears capacity).  Engine routing is as in
    :func:`pack_to_full_placement`.
    """
    if demand_ops < 0.0:
        raise ValueError("demand cannot be negative")
    from repro.cluster.engines import fleet_engine

    return fleet_engine(fleet).ep_aware(demand_ops, power_off_unused)


def max_throughput_under_cap(
    fleet: Sequence[SpecPowerResult],
    power_cap_w: float,
    *,
    policy: str = "ep-aware",
    power_off_unused: bool = False,
) -> PlacementOutcome:
    """Maximum throughput achievable without exceeding a power cap.

    Bisects the demand level and returns the placement at the highest
    demand whose total power fits under the cap -- the "more jobs under
    fixed power supply" experiment of Section V.C.  The fleet's engine
    is built once and reused across all 40 probes.
    """
    from repro.cluster.engines import fleet_engine

    return fleet_engine(fleet).max_throughput_under_cap(
        power_cap_w, policy, power_off_unused
    )
