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
from typing import Callable, Dict, List, Sequence

from repro.cluster.regions import efficiency_at, power_at, throughput_at
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


def _capacity(server: SpecPowerResult, utilization: float) -> float:
    return throughput_at(server, utilization)


def _fleet_engine(fleet: Sequence[SpecPowerResult]):
    from repro.cluster.engines import fleet_engine

    return fleet_engine(fleet)


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

    Fleets that :func:`repro.cluster.engines.fleet_engine` routes to an
    engine get its bit-identical answer; the rest run the scalar loop.
    """
    if demand_ops < 0.0:
        raise ValueError("demand cannot be negative")
    engine = _fleet_engine(fleet)
    if engine is not None:
        return engine.pack_to_full(demand_ops, power_off_unused)
    return _pack_to_full_scalar(fleet, demand_ops, power_off_unused)


def _pack_to_full_scalar(
    fleet: Sequence[SpecPowerResult],
    demand_ops: float,
    power_off_unused: bool = False,
) -> PlacementOutcome:
    """The per-server reference loop of :func:`pack_to_full_placement`."""
    outcome = PlacementOutcome(policy="pack-to-full", demand_ops=demand_ops)
    remaining = demand_ops
    ranked = sorted(fleet, key=lambda s: -efficiency_at(s, 1.0))
    for server in ranked:
        if remaining <= 0.0:
            if not power_off_unused:
                outcome.unused_idle_power_w += power_at(server, 0.0)
            continue
        full_capacity = _capacity(server, 1.0)
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
    engine = _fleet_engine(fleet)
    if engine is not None:
        return engine.ep_aware(demand_ops, power_off_unused)
    return _ep_aware_scalar(fleet, demand_ops, power_off_unused)


def _ep_aware_scalar(
    fleet: Sequence[SpecPowerResult],
    demand_ops: float,
    power_off_unused: bool = False,
) -> PlacementOutcome:
    """The per-server reference loop of :func:`ep_aware_placement`."""
    outcome = PlacementOutcome(policy="ep-aware", demand_ops=demand_ops)
    remaining = demand_ops
    ranked = sorted(fleet, key=lambda s: -s.peak_ee)
    assignments: Dict[str, Assignment] = {}
    for server in ranked:
        if remaining <= 0.0:
            break
        spot = server.primary_peak_spot
        take = min(remaining, _capacity(server, spot))
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
            extra = min(remaining, _capacity(server, 1.0) - already)
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
    if throughput_ops >= _capacity(server, 1.0):
        return 1.0
    low, high = 0.0, 1.0
    for _ in range(50):
        mid = 0.5 * (low + high)
        if throughput_at(server, mid) < throughput_ops:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


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
    fixed power supply" experiment of Section V.C.  An engine, when the
    fleet gets one, is built once and reused across all 40 probes.
    """
    if power_cap_w <= 0.0:
        raise ValueError("power cap must be positive")
    if policy not in _POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    engine = _fleet_engine(fleet)
    if engine is not None:
        return engine.max_throughput_under_cap(
            power_cap_w, policy, power_off_unused
        )
    return _max_throughput_under_cap_scalar(
        fleet, power_cap_w, policy, power_off_unused
    )


def _max_throughput_under_cap_scalar(
    fleet: Sequence[SpecPowerResult],
    power_cap_w: float,
    policy: str = "ep-aware",
    power_off_unused: bool = False,
) -> PlacementOutcome:
    """The reference bisection of :func:`max_throughput_under_cap`."""
    place = _POLICIES[policy]
    total_capacity = sum(_capacity(server, 1.0) for server in fleet)
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


#: Policy name -> scalar reference loop, in the order
#: ``compare_policies`` reports (the trace replay's registry too).
_POLICIES: Dict[str, Callable[..., PlacementOutcome]] = {
    "pack-to-full": _pack_to_full_scalar,
    "ep-aware": _ep_aware_scalar,
}
