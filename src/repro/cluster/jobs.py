"""Job-granular scheduling: the Wong ISCA'16 comparator.

The paper's related work (Section VI) discusses Wong's *peak
efficiency aware scheduling* [41].  Where :mod:`repro.cluster.placement`
treats demand as a fluid, this module schedules discrete jobs -- each
with a fixed throughput demand -- onto a heterogeneous fleet:

* :class:`FirstFitDecreasing` -- classic consolidation: sort jobs by
  size, place each on the first server with room up to 100%;
* :class:`PeakSpotAware` -- Wong-style: cap each server at its
  peak-efficiency utilization while capacity allows, spilling to the
  band above the spot only when the fleet fills up.

Both return a :class:`Schedule` with per-server loads and fleet power.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.fleet_arrays import _invert_row
from repro.cluster.regions import power_at, throughput_at
from repro.dataset.schema import SpecPowerResult


@dataclass(frozen=True)
class Job:
    """One schedulable unit of work."""

    job_id: str
    demand_ops: float

    def __post_init__(self):
        if self.demand_ops <= 0.0:
            raise ValueError("a job needs positive demand")


@dataclass
class Schedule:
    """Jobs mapped to servers, with the resulting fleet power."""

    policy: str
    assignments: Dict[str, str] = field(default_factory=dict)  # job -> server
    loads_ops: Dict[str, float] = field(default_factory=dict)  # server -> ops
    unplaced: List[str] = field(default_factory=list)
    fleet: Sequence[SpecPowerResult] = ()

    def utilization_of(self, server: SpecPowerResult) -> float:
        """Utilization this schedule drives the server to.

        The fleet engines' single-row inversion on the server's
        ``[0.0] + target loads`` grid: a non-positive load sits at 0.0
        and a load at or beyond the server's capacity (including any
        load on a zero-capacity server) pins to 1.0.
        """
        levels = server.sorted_levels()
        return _invert_row(
            [0.0] + [level.target_load for level in levels],
            [0.0] + [level.ssj_ops for level in levels],
            self.loads_ops.get(server.result_id, 0.0),
        )

    @property
    def total_power_w(self) -> float:
        return sum(
            power_at(server, self.utilization_of(server)) for server in self.fleet
        )

    @property
    def placed_ops(self) -> float:
        return sum(self.loads_ops.values())

    @property
    def servers_loaded(self) -> int:
        return sum(1 for load in self.loads_ops.values() if load > 0.0)


class JobScheduler:
    """Assigns a batch of jobs onto a fleet.

    Scheduling runs on the engine
    :func:`repro.cluster.engines.fleet_engine` picks for the fleet; the
    per-server probe loops it replaced are the parity oracle in
    :mod:`repro.cluster.reference`.
    """

    name: str = "abstract"

    def schedule(
        self, fleet: Sequence[SpecPowerResult], jobs: Sequence[Job]
    ) -> Schedule:
        """Place every job (or report it unplaced) on the fleet."""
        from repro.cluster.engines import fleet_engine

        return fleet_engine(fleet).schedule(self.name, jobs)


class FirstFitDecreasing(JobScheduler):
    """Bin-pack jobs to 100% utilization, best full-load EE first.

    Largest jobs first, each onto the first server (in descending
    full-load efficiency) with room for it up to 100%.
    """

    name = "first-fit-decreasing"


class PeakSpotAware(JobScheduler):
    """Wong-style: fill servers only to their peak-efficiency spot.

    Two passes: the first caps every server at its peak spot (taking
    servers in descending peak efficiency); jobs that do not fit spill
    into a second pass that relaxes the cap to 100%.
    """

    name = "peak-spot-aware"


def synthesize_jobs(
    fleet: Sequence[SpecPowerResult],
    demand_fraction: float,
    mean_job_fraction: float = 0.002,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> List[Job]:
    """A job batch totalling ``demand_fraction`` of fleet capacity.

    Job sizes are lognormal around ``mean_job_fraction`` of capacity --
    many small jobs with a heavy tail, the usual cluster shape.  The
    randomness source is required: pass either a ``seed`` or an
    already-constructed ``rng`` so the stream stays visible at the
    call site (REP106).
    """
    if not 0.0 < demand_fraction <= 1.0:
        raise ValueError("demand fraction must lie in (0, 1]")
    if (rng is None) == (seed is None):
        raise ValueError("pass exactly one of seed= or rng=")
    if rng is None:
        rng = np.random.default_rng(seed)
    capacity = sum(throughput_at(server, 1.0) for server in fleet)
    target = demand_fraction * capacity
    jobs: List[Job] = []
    total = 0.0
    index = 0
    while total < target:
        size = float(
            rng.lognormal(mean=np.log(mean_job_fraction * capacity), sigma=0.8)
        )
        size = min(size, target - total) if target - total < size else size
        size = max(size, 1e-6 * capacity)
        jobs.append(Job(job_id=f"job-{index:05d}", demand_ops=size))
        total += size
        index += 1
    return jobs


def compare_schedulers(
    fleet: Sequence[SpecPowerResult], jobs: Sequence[Job]
) -> Dict[str, Schedule]:
    """Run both schedulers on the same batch."""
    return {
        scheduler.name: scheduler.schedule(fleet, jobs)
        for scheduler in (FirstFitDecreasing(), PeakSpotAware())
    }
