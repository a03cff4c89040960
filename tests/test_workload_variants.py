"""Tests for workload variants and per-workload characterization."""

import pytest

from repro.hwexp.reference import simulate_characterization
from repro.hwexp.testbed import TESTBED
from repro.hwexp.workloads import characterize, compare_workloads, ep_spread
from repro.ssj.transactions import validate_mix
from repro.ssj.variants import BATCH, CACHE, SSJ, VARIANTS, WEB, get_variant


class TestVariantDefinitions:
    def test_all_variants_have_valid_mixes(self):
        for variant in VARIANTS.values():
            validate_mix(variant.mix)

    def test_expected_catalog(self):
        assert set(VARIANTS) == {"ssj", "web", "batch", "cache"}

    def test_lookup(self):
        assert get_variant("web") is WEB
        with pytest.raises(KeyError, match="unknown workload"):
            get_variant("hpc")

    def test_personality_axes_differ(self):
        assert BATCH.memory_intensity > WEB.memory_intensity
        assert WEB.compute_fraction > BATCH.compute_fraction

    def test_parameter_validation(self):
        from repro.ssj.variants import WorkloadVariant

        with pytest.raises(ValueError):
            WorkloadVariant("x", SSJ.mix, memory_intensity=1.5,
                            compute_fraction=0.8)


class TestCharacterization:
    @pytest.fixture(scope="class")
    def results(self):
        return compare_workloads(TESTBED[4], list(VARIANTS.values()))

    def test_every_workload_characterized(self, results):
        assert set(results) == set(VARIANTS)

    def test_ep_differs_across_workloads(self, results):
        """The Section V.C caveat: EP is workload dependent."""
        assert ep_spread(results) > 0.02

    def test_all_eps_physical(self, results):
        for outcome in results.values():
            assert 0.0 < outcome.ep < 2.0

    def test_memory_heavy_workload_raises_active_power(self):
        web = characterize(TESTBED[4], WEB)
        batch = characterize(TESTBED[4], BATCH)
        # Same platform, same idle; the memory-heavy workload draws
        # more at full load.
        assert batch.power_w[-1] > web.power_w[-1]
        assert batch.active_idle_w == pytest.approx(web.active_idle_w, rel=0.02)

    def test_curves_are_complete(self, results):
        for outcome in results.values():
            assert len(outcome.utilization) == 11
            assert len(outcome.power_w) == 11
            assert len(outcome.throughput_ops) == 10

    def test_simulated_matches_analytic(self):
        analytic = characterize(TESTBED[2], CACHE)
        simulated = simulate_characterization(TESTBED[2], CACHE)
        assert simulated.overall_ee == pytest.approx(
            analytic.overall_ee, rel=0.12
        )
        assert simulated.ep == pytest.approx(analytic.ep, abs=0.08)

    def test_empty_comparison_rejected(self):
        with pytest.raises(ValueError):
            ep_spread({})


class TestRunnerMixIntegration:
    def test_runner_accepts_custom_mix(self):
        from repro.power.governors import OndemandGovernor
        from repro.ssj.load_levels import MeasurementPlan
        from repro.ssj.runner import SsjRunner

        server = TESTBED[2]
        runner = SsjRunner(
            server=server.power_model(),
            profile=server.profile,
            governor=OndemandGovernor(),
            plan=MeasurementPlan(interval_s=2.0, ramp_s=0.5),
            mix=WEB.mix,
        )
        report = runner.run()
        assert len(report.levels) == 10
        assert report.overall_score() > 0.0
