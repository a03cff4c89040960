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

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

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

        Mirrors ``placement._utilization_for``'s edge handling: a
        non-positive load sits at 0.0 and a load at or beyond the
        server's capacity (including any load on a zero-capacity
        server) pins to 1.0.
        """
        load = self.loads_ops.get(server.result_id, 0.0)
        if load <= 0.0:
            return 0.0
        if load >= throughput_at(server, 1.0):
            return 1.0
        low, high = 0.0, 1.0
        for _ in range(50):
            mid = 0.5 * (low + high)
            if throughput_at(server, mid) < load:
                low = mid
            else:
                high = mid
        return 0.5 * (low + high)

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


class JobScheduler(ABC):
    """Assigns a batch of jobs onto a fleet.

    Fleets that :func:`repro.cluster.engines.fleet_engine` routes to an
    engine are scheduled by its bit-identical twin; the rest run the
    per-server probe loops of :meth:`_schedule_scalar`, the reference.
    """

    name: str = "abstract"

    def schedule(
        self, fleet: Sequence[SpecPowerResult], jobs: Sequence[Job]
    ) -> Schedule:
        """Place every job (or report it unplaced) on the fleet."""
        from repro.cluster.engines import fleet_engine

        engine = fleet_engine(fleet)
        if engine is not None:
            return engine.schedule(self.name, jobs)
        return self._schedule_scalar(fleet, jobs)

    @abstractmethod
    def _schedule_scalar(
        self, fleet: Sequence[SpecPowerResult], jobs: Sequence[Job]
    ) -> Schedule:
        """The per-server reference loop."""

    @staticmethod
    def _capacity(server: SpecPowerResult, cap_utilization: float) -> float:
        return throughput_at(server, cap_utilization)


class FirstFitDecreasing(JobScheduler):
    """Bin-pack jobs to 100% utilization, best full-load EE first."""

    name = "first-fit-decreasing"

    def _schedule_scalar(
        self, fleet: Sequence[SpecPowerResult], jobs: Sequence[Job]
    ) -> Schedule:
        """Largest jobs first onto the most efficient-at-full servers."""
        schedule = Schedule(policy=self.name, fleet=list(fleet))
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
                if used + job.demand_ops <= self._capacity(server, 1.0) + 1e-9:
                    schedule.loads_ops[server.result_id] = used + job.demand_ops
                    schedule.assignments[job.job_id] = server.result_id
                    placed = True
                    break
            if not placed:
                schedule.unplaced.append(job.job_id)
        return schedule


class PeakSpotAware(JobScheduler):
    """Wong-style: fill servers only to their peak-efficiency spot.

    Two passes: the first caps every server at its peak spot (taking
    servers in descending peak efficiency); jobs that do not fit spill
    into a second pass that relaxes the cap to 100%.
    """

    name = "peak-spot-aware"

    def _schedule_scalar(
        self, fleet: Sequence[SpecPowerResult], jobs: Sequence[Job]
    ) -> Schedule:
        """Capped pass at the peak spots, then an uncapped spill pass."""
        schedule = Schedule(policy=self.name, fleet=list(fleet))
        ranked = sorted(fleet, key=lambda s: -s.peak_ee)
        ordered_jobs = sorted(jobs, key=lambda job: -job.demand_ops)
        spill: List[Job] = []
        for job in ordered_jobs:
            if not self._place(schedule, ranked, job, capped=True):
                spill.append(job)
        for job in spill:
            if not self._place(schedule, ranked, job, capped=False):
                schedule.unplaced.append(job.job_id)
        return schedule

    def _place(
        self,
        schedule: Schedule,
        ranked: Sequence[SpecPowerResult],
        job: Job,
        capped: bool,
    ) -> bool:
        for server in ranked:
            cap = server.primary_peak_spot if capped else 1.0
            used = schedule.loads_ops.get(server.result_id, 0.0)
            if used + job.demand_ops <= self._capacity(server, cap) + 1e-9:
                schedule.loads_ops[server.result_id] = used + job.demand_ops
                schedule.assignments[job.job_id] = server.result_id
                return True
        return False


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
