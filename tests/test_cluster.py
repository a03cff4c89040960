"""Tests for the curve interpolators and the placement policies."""

import pytest

from repro.cluster.placement import (
    ep_aware_placement,
    max_throughput_under_cap,
    pack_to_full_placement,
)
from repro.cluster.regions import efficiency_at, power_at, throughput_at


@pytest.fixture(scope="module")
def modern_fleet(corpus):
    return list(corpus.by_hw_year_range(2013, 2016))


@pytest.fixture(scope="module")
def modern_server(corpus):
    """A high-EP server with an interior peak spot."""
    return max(corpus.by_hw_year(2016), key=lambda r: r.ep)


class TestOptimalRegions:
    """The interpolators between a curve's measured levels."""

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
