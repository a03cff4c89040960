"""Tests for the testbed models and the Section V sweeps (Figs. 18-21)."""

import pytest

from repro.hwexp import reference, testbed
from repro.hwexp.perf_model import ServerThroughputProfile
from repro.hwexp.sweeps import run_sweep
from repro.hwexp.testbed import TESTBED
from repro.ssj.load_levels import MeasurementPlan


@pytest.fixture(scope="module")
def sweeps():
    """Analytic sweeps of the three servers the paper plots."""
    return {n: run_sweep(TESTBED[n]) for n in (1, 2, 4)}


class TestPerfModel:
    def _profile(self, **overrides):
        defaults = dict(
            ops_per_core_at_max=1000.0,
            max_frequency_ghz=2.4,
            compute_fraction=0.8,
            heap_demand_gb_per_core=2.0,
            memory_per_core_gb=4.0,
        )
        defaults.update(overrides)
        return ServerThroughputProfile(**defaults)

    def test_full_rate_at_top_frequency(self):
        profile = self._profile()
        assert profile.ops_per_second_per_core(2.4) == pytest.approx(1000.0)

    def test_sublinear_frequency_scaling(self):
        profile = self._profile()
        half_speed = profile.frequency_scaling(1.2)
        assert 0.5 < half_speed < 1.0  # better than linear slowdown

    def test_fully_compute_bound_scales_linearly(self):
        profile = self._profile(compute_fraction=1.0)
        assert profile.frequency_scaling(1.2) == pytest.approx(0.5)

    def test_no_gc_penalty_with_ample_memory(self):
        assert self._profile(memory_per_core_gb=8.0).gc_factor() == 1.0

    def test_gc_penalty_grows_superlinearly(self):
        tight = self._profile(memory_per_core_gb=1.5).gc_factor()
        tighter = self._profile(memory_per_core_gb=1.0).gc_factor()
        starved = self._profile(memory_per_core_gb=0.5).gc_factor()
        assert 1.0 > tight > tighter > starved
        assert (1 / starved - 1 / tighter) > (1 / tighter - 1 / tight)

    def test_with_memory_copies(self):
        profile = self._profile()
        other = profile.with_memory(1.0)
        assert other.memory_per_core_gb == 1.0
        assert profile.memory_per_core_gb == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            self._profile(compute_fraction=0.0)
        with pytest.raises(ValueError):
            self._profile(ops_per_core_at_max=-1.0)


class TestTestbed:
    def test_table2_configurations(self):
        assert TESTBED[1].total_cores == 32
        assert TESTBED[2].total_cores == 4
        assert TESTBED[3].total_cores == 12
        assert TESTBED[4].total_cores == 12
        assert TESTBED[1].tdp_w == 115.0
        assert TESTBED[4].stock_memory_gb == 192

    def test_table_rows_render(self):
        rows = testbed.testbed_table()
        assert len(rows) == 4
        assert rows[0][0] == "#1"

    def test_power_models_build_at_every_tested_memory(self):
        for server in TESTBED.values():
            for mpc in server.tested_memory_per_core:
                model = server.power_model(server.memory_gb_for(mpc))
                assert model.idle_wall_power_w() > 0.0

    def test_memory_rounding_is_populatable(self):
        assert TESTBED[3].memory_gb_for(2.67) == 32
        assert TESTBED[4].memory_gb_for(16.0) == 192

    def test_dimm_counts_grow_with_capacity(self):
        small = TESTBED[4].power_model(TESTBED[4].memory_gb_for(1.33))
        large = TESTBED[4].power_model(TESTBED[4].memory_gb_for(16.0))
        assert large.memory.dimm_count > small.memory.dimm_count


class TestSweepShapes:
    @pytest.mark.parametrize("number,paper_best", [(1, 1.75), (2, 4.0), (4, 2.67)])
    def test_best_memory_matches_paper(self, sweeps, number, paper_best):
        assert sweeps[number].best_memory_per_core() == pytest.approx(paper_best)

    @pytest.mark.parametrize("number", [1, 2, 4])
    def test_efficiency_monotone_in_frequency(self, sweeps, number):
        sweep = sweeps[number]
        for mpc in sweep.server.tested_memory_per_core:
            by_frequency = sweep.efficiency_by_frequency(mpc)
            frequencies = sorted(by_frequency)
            values = [by_frequency[f] for f in frequencies]
            assert values == sorted(values), (number, mpc)

    @pytest.mark.parametrize("number", [1, 2, 4])
    def test_power_monotone_in_frequency(self, sweeps, number):
        sweep = sweeps[number]
        for mpc in sweep.server.tested_memory_per_core:
            by_frequency = sweep.peak_power_by_frequency(mpc)
            frequencies = sorted(by_frequency)
            values = [by_frequency[f] for f in frequencies]
            assert values == sorted(values)

    @pytest.mark.parametrize("number", [1, 2, 4])
    def test_ondemand_tracks_top_frequency(self, sweeps, number):
        assert sweeps[number].ondemand_tracks_top_frequency(rtol=0.06)

    def test_server2_overprovisioning_drop(self, sweeps):
        """Paper: EE falls 10.6% from 4 to 8 GB/core on server #2."""
        by_memory = sweeps[2].efficiency_by_memory(1.8)
        drop = by_memory[8.0] / by_memory[4.0] - 1.0
        assert drop == pytest.approx(-0.106, abs=0.05)

    def test_server4_overprovisioning_drops(self, sweeps):
        """Paper: -4.6% at 8 GB/core and -11.1% at 16, from 2.67."""
        by_memory = sweeps[4].efficiency_by_memory(2.4)
        drop_8 = by_memory[8.0] / by_memory[2.67] - 1.0
        drop_16 = by_memory[16.0] / by_memory[2.67] - 1.0
        assert -0.10 < drop_8 < 0.0
        assert -0.20 < drop_16 < -0.05
        assert drop_16 < drop_8

    def test_power_rises_with_memory_at_fixed_frequency(self, sweeps):
        """Fig. 21: more DIMMs draw more power at every frequency."""
        sweep = sweeps[4]
        for frequency in (1.2, 2.4):
            powers = [
                sweep.cell(mpc, frequency).peak_power_w
                for mpc in (1.33, 2.67, 8.0, 16.0)
            ]
            assert powers == sorted(powers)

    def test_ondemand_power_close_to_top_frequency(self, sweeps):
        """Fig. 21: ondemand consumes about the same as the top pin."""
        sweep = sweeps[4]
        for mpc in sweep.server.tested_memory_per_core:
            ondemand = sweep.cell(mpc, "ondemand").peak_power_w
            top = sweep.cell(mpc, 2.4).peak_power_w
            assert ondemand == pytest.approx(top, rel=0.05)


class TestSimulatedSweep:
    """The discrete-event benchmark checks the analytic cells."""

    def test_simulated_matches_analytic_at_one_cell(self):
        server = TESTBED[2]
        analytic = run_sweep(server, memory_per_core=[4.0], frequencies=[1.8],
                             include_ondemand=False)
        simulated = reference.simulate_sweep(
            server,
            memory_per_core=[4.0],
            frequencies=[1.8],
            include_ondemand=False,
            plan=MeasurementPlan(interval_s=4.0, ramp_s=0.5),
        )
        a = analytic.cell(4.0, 1.8).overall_efficiency
        s = simulated.cell(4.0, 1.8).overall_efficiency
        assert s == pytest.approx(a, rel=0.10)

    @pytest.mark.parametrize("number,paper_best", [(1, 1.75), (2, 4.0), (4, 2.67)])
    def test_simulated_top_frequency_line_matches_analytic(
        self, sweeps, number, paper_best
    ):
        """Figs. 18-20 at the top frequency: the simulator picks the same
        best memory per core, and every cell's EE agrees within 10%.

        Peak power is deliberately not compared: server 1's simulated
        peak reads 9-13% below the model (DESIGN.md §2).
        """
        server = TESTBED[number]
        top = max(server.frequencies_ghz)
        simulated = reference.simulate_sweep(
            server, frequencies=[top], include_ondemand=False
        )
        assert simulated.best_memory_per_core() == pytest.approx(paper_best)
        analytic = sweeps[number].efficiency_by_memory(top)
        for mpc, efficiency in simulated.efficiency_by_memory(top).items():
            assert efficiency == pytest.approx(analytic[mpc], rel=0.10), mpc
