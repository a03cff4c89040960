"""Tests for working regions, logical clusters, placement, multinode."""

import pytest

from repro.cluster.logical_cluster import build_logical_clusters
from repro.cluster.multinode import (
    cluster_power_curve,
    cluster_proportionality,
    independent_vs_grouped,
)
from repro.cluster.placement import (
    ep_aware_placement,
    max_throughput_under_cap,
    pack_to_full_placement,
)
from repro.cluster.regions import (
    WorkingRegion,
    above_full_load_region,
    efficiency_at,
    optimal_working_region,
    power_at,
    throughput_at,
)


@pytest.fixture(scope="module")
def modern_fleet(corpus):
    return list(corpus.by_hw_year_range(2013, 2016))


@pytest.fixture(scope="module")
def modern_server(corpus):
    """A high-EP server with an interior peak spot."""
    return max(corpus.by_hw_year(2016), key=lambda r: r.ep)


@pytest.fixture(scope="module")
def legacy_server(corpus):
    return min(corpus.by_hw_year(2008), key=lambda r: r.ep)


class TestWorkingRegion:
    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            WorkingRegion(low=0.8, high=0.5)

    def test_intersection(self):
        a = WorkingRegion(0.4, 0.9)
        b = WorkingRegion(0.6, 1.0)
        merged = a.intersect(b)
        assert merged.low == 0.6 and merged.high == 0.9

    def test_disjoint_intersection_raises(self):
        with pytest.raises(ValueError, match="overlap"):
            WorkingRegion(0.1, 0.3).intersect(WorkingRegion(0.5, 0.9))

    def test_contains_and_midpoint(self):
        region = WorkingRegion(0.6, 1.0)
        assert region.contains(0.7)
        assert not region.contains(0.5)
        assert region.midpoint() == pytest.approx(0.8)


class TestOptimalRegions:
    def test_modern_server_region_is_interior_band(self, modern_server):
        region = optimal_working_region(modern_server)
        assert region.low < 1.0
        assert region.contains(modern_server.primary_peak_spot)

    def test_legacy_server_region_hugs_full_load(self, legacy_server):
        region = optimal_working_region(legacy_server, threshold=0.98)
        assert region.high == pytest.approx(1.0)

    def test_lower_threshold_widens_region(self, modern_server):
        tight = optimal_working_region(modern_server, threshold=0.99)
        loose = optimal_working_region(modern_server, threshold=0.90)
        assert loose.width >= tight.width

    def test_above_full_load_region_for_high_ep(self, modern_server):
        region = above_full_load_region(modern_server)
        assert region.high == 1.0
        assert region.low < 0.7  # EP > 1 servers beat EE(100%) early

    def test_interpolators_are_consistent(self, modern_server):
        for u in (0.25, 0.55, 0.85):
            assert efficiency_at(modern_server, u) == pytest.approx(
                throughput_at(modern_server, u) / power_at(modern_server, u),
                rel=0.15,
            )

    def test_interpolation_bounds(self, modern_server):
        with pytest.raises(ValueError):
            efficiency_at(modern_server, 0.0)
        with pytest.raises(ValueError):
            power_at(modern_server, 1.5)


class TestLogicalClusters:
    def test_every_cluster_region_is_usable(self, modern_fleet):
        clusters = build_logical_clusters(modern_fleet)
        for cluster in clusters:
            assert cluster.region.width >= 0.1 - 1e-9 or cluster.size == 1

    def test_members_share_the_ep_band(self, modern_fleet):
        clusters = build_logical_clusters(modern_fleet)
        for cluster in clusters:
            low, high = cluster.ep_band
            for member in cluster.members:
                assert low - 1e-9 <= member.ep < high + 1e-9

    def test_all_servers_placed_once(self, modern_fleet):
        clusters = build_logical_clusters(modern_fleet)
        placed = [m.result_id for c in clusters for m in c.members]
        assert len(placed) == len(modern_fleet)
        assert len(set(placed)) == len(placed)

    def test_min_size_filter(self, modern_fleet):
        clusters = build_logical_clusters(modern_fleet, min_size=5)
        assert all(c.size >= 5 for c in clusters)

    def test_capacity_positive(self, modern_fleet):
        clusters = build_logical_clusters(modern_fleet, min_size=2)
        assert all(c.total_capacity_ops() > 0.0 for c in clusters)

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            build_logical_clusters([])


class TestPlacement:
    def _capacity(self, fleet):
        return sum(
            level.ssj_ops
            for server in fleet
            for level in server.levels
            if level.target_load == 1.0
        )

    def test_both_policies_satisfy_demand(self, modern_fleet):
        demand = 0.5 * self._capacity(modern_fleet)
        assert pack_to_full_placement(modern_fleet, demand).satisfied()
        assert ep_aware_placement(modern_fleet, demand).satisfied()

    def test_ep_aware_saves_power_on_a_fixed_fleet(self, modern_fleet):
        """The Section V.C headline."""
        for share in (0.3, 0.5, 0.7):
            demand = share * self._capacity(modern_fleet)
            packed = pack_to_full_placement(modern_fleet, demand)
            aware = ep_aware_placement(modern_fleet, demand)
            assert aware.total_power_w < packed.total_power_w, share

    def test_power_off_ablation_narrows_the_gap(self, modern_fleet):
        """Consolidation with power-off shrinks EP-aware's advantage:
        the paper's guidance is strongest for fixed, powered racks."""
        demand = 0.3 * self._capacity(modern_fleet)

        def saving(power_off):
            packed = pack_to_full_placement(
                modern_fleet, demand, power_off_unused=power_off
            )
            aware = ep_aware_placement(
                modern_fleet, demand, power_off_unused=power_off
            )
            return 1.0 - aware.total_power_w / packed.total_power_w

        assert saving(power_off=False) > saving(power_off=True)

    def test_power_off_consolidation_converges_at_high_demand(self, modern_fleet):
        """Near fleet capacity every policy runs everything hot."""
        demand = 0.95 * self._capacity(modern_fleet)
        packed = pack_to_full_placement(modern_fleet, demand,
                                        power_off_unused=True)
        aware = ep_aware_placement(modern_fleet, demand,
                                   power_off_unused=True)
        assert aware.total_power_w == pytest.approx(
            packed.total_power_w, rel=0.05
        )

    def test_ep_aware_uses_more_servers_at_lower_utilization(self, modern_fleet):
        demand = 0.5 * self._capacity(modern_fleet)
        packed = pack_to_full_placement(modern_fleet, demand)
        aware = ep_aware_placement(modern_fleet, demand)
        assert aware.servers_used >= packed.servers_used

    def test_throughput_under_cap_favors_ep_aware(self, modern_fleet):
        capacity = self._capacity(modern_fleet)
        cap = 0.6 * pack_to_full_placement(modern_fleet, capacity).total_power_w
        packed = max_throughput_under_cap(modern_fleet, cap, policy="pack-to-full")
        aware = max_throughput_under_cap(modern_fleet, cap, policy="ep-aware")
        assert aware.placed_ops >= packed.placed_ops
        assert aware.total_power_w <= cap
        assert packed.total_power_w <= cap

    def test_zero_demand_draws_idle_power_only(self, modern_fleet):
        outcome = pack_to_full_placement(modern_fleet, 0.0)
        idle_total = sum(power_at(s, 0.0) for s in modern_fleet)
        assert outcome.total_power_w == pytest.approx(idle_total)

    def test_negative_demand_rejected(self, modern_fleet):
        with pytest.raises(ValueError):
            ep_aware_placement(modern_fleet, -1.0)

    def test_unknown_policy_rejected(self, modern_fleet):
        with pytest.raises(ValueError):
            max_throughput_under_cap(modern_fleet, 100.0, policy="magic")


class TestMultinode:
    def test_grouping_raises_proportionality(self, legacy_server):
        """Fig. 13's mechanism: the balanced group beats the node."""
        single = legacy_server.ep
        grouped = cluster_proportionality(legacy_server, nodes=8)
        assert grouped > single

    def test_more_nodes_help_more(self, legacy_server):
        values = [
            cluster_proportionality(legacy_server, nodes=n) for n in (2, 4, 8, 16)
        ]
        assert values == sorted(values)

    def test_grouped_never_worse_than_independent(self, legacy_server):
        for utilization in (0.1, 0.3, 0.5, 0.8):
            independent, grouped = independent_vs_grouped(
                legacy_server, nodes=8, utilization=utilization
            )
            assert grouped <= independent + 1e-9

    def test_power_off_matters(self, legacy_server):
        with_off = cluster_proportionality(legacy_server, 8, can_power_off=True)
        without = cluster_proportionality(legacy_server, 8, can_power_off=False)
        assert with_off > without

    def test_curve_endpoints(self, legacy_server):
        grid, powers = cluster_power_curve(legacy_server, 4)
        loads, node_powers = legacy_server.curve()
        assert powers[-1] == pytest.approx(4 * node_powers[-1], rel=1e-6)

    def test_invalid_nodes_rejected(self, legacy_server):
        with pytest.raises(ValueError):
            cluster_power_curve(legacy_server, 0)
