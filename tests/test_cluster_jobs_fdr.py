"""Tests for job-granular scheduling."""

import numpy as np
import pytest

from repro.cluster.jobs import (
    FirstFitDecreasing,
    Job,
    PeakSpotAware,
    compare_schedulers,
    synthesize_jobs,
)


@pytest.fixture(scope="module")
def fleet(corpus):
    return list(corpus.by_hw_year_range(2014, 2016))


@pytest.fixture(scope="module")
def jobs(fleet):
    return synthesize_jobs(fleet, 0.5, rng=np.random.default_rng(4))


class TestJobSynthesis:
    def test_total_demand_near_target(self, fleet, jobs):
        from repro.cluster.regions import throughput_at

        capacity = sum(throughput_at(s, 1.0) for s in fleet)
        total = sum(job.demand_ops for job in jobs)
        assert total == pytest.approx(0.5 * capacity, rel=0.1)

    def test_heavy_tail(self, jobs):
        sizes = sorted(job.demand_ops for job in jobs)
        assert sizes[-1] > 5 * np.median(sizes)

    def test_validation(self):
        with pytest.raises(ValueError):
            Job(job_id="x", demand_ops=0.0)
        with pytest.raises(ValueError):
            synthesize_jobs([], 1.5)

    def test_randomness_source_is_required(self, fleet):
        with pytest.raises(ValueError, match="seed= or rng="):
            synthesize_jobs(fleet, 0.5)
        with pytest.raises(ValueError, match="seed= or rng="):
            synthesize_jobs(fleet, 0.5, seed=4, rng=np.random.default_rng(4))

    def test_seed_matches_equivalent_rng(self, fleet, jobs):
        seeded = synthesize_jobs(fleet, 0.5, seed=4)
        assert [job.demand_ops for job in seeded] == [
            job.demand_ops for job in jobs
        ]


class TestSchedulers:
    def test_both_place_everything_at_half_load(self, fleet, jobs):
        schedules = compare_schedulers(fleet, jobs)
        for schedule in schedules.values():
            assert not schedule.unplaced
            assert schedule.placed_ops == pytest.approx(
                sum(job.demand_ops for job in jobs)
            )

    def test_spot_aware_saves_power(self, fleet, jobs):
        schedules = compare_schedulers(fleet, jobs)
        assert (
            schedules["peak-spot-aware"].total_power_w
            < schedules["first-fit-decreasing"].total_power_w
        )

    def test_spot_aware_respects_the_caps_when_possible(self, fleet, jobs):
        schedule = PeakSpotAware().schedule(fleet, jobs)
        by_id = {server.result_id: server for server in fleet}
        over_cap = 0
        for server_id, _load in schedule.loads_ops.items():
            server = by_id[server_id]
            if schedule.utilization_of(server) > server.primary_peak_spot + 0.02:
                over_cap += 1
        # At half load nothing needs to spill past its spot.
        assert over_cap == 0

    def test_ffd_concentrates_load(self, fleet, jobs):
        schedules = compare_schedulers(fleet, jobs)
        assert (
            schedules["first-fit-decreasing"].servers_loaded
            <= schedules["peak-spot-aware"].servers_loaded
        )

    def test_overload_reports_unplaced(self, fleet):
        oversize = [Job(job_id="huge", demand_ops=1e15)]
        schedule = FirstFitDecreasing().schedule(fleet, oversize)
        assert schedule.unplaced == ["huge"]

    def test_assignments_reference_real_servers(self, fleet, jobs):
        schedule = PeakSpotAware().schedule(fleet, jobs)
        ids = {server.result_id for server in fleet}
        assert set(schedule.assignments.values()) <= ids
