"""Unit tests for the result schema and its derived metrics."""

import random

import pytest

from repro.dataset.schema import LoadLevel, SpecPowerResult, overall_scores
from repro.power.microarch import Codename, Family, Vendor


def _result(idle=0.3, shape=lambda u: u, peak_w=200.0, max_ops=10000.0, **overrides):
    loads = [round(0.1 * i, 1) for i in range(1, 11)]
    levels = [
        LoadLevel(
            target_load=u,
            ssj_ops=max_ops * u,
            average_power_w=peak_w * (idle + (1 - idle) * shape(u)),
        )
        for u in loads
    ]
    defaults = dict(
        result_id="r1",
        vendor="Acme",
        model="AS-1",
        form_factor="2U",
        hw_year=2014,
        published_year=2015,
        codename=Codename.HASWELL,
        nodes=1,
        chips_per_node=2,
        cores_per_chip=12,
        memory_gb=48.0,
        levels=levels,
        active_idle_power_w=peak_w * idle,
    )
    defaults.update(overrides)
    return SpecPowerResult(**defaults)


class TestConfigurationDerived:
    def test_totals(self):
        result = _result(nodes=2, chips_per_node=2, cores_per_chip=6)
        assert result.total_chips == 4
        assert result.total_cores == 24

    def test_memory_per_core(self):
        result = _result(memory_gb=48.0)  # 24 cores
        assert result.memory_per_core_gb == pytest.approx(2.0)

    def test_family_and_vendor_follow_codename(self):
        result = _result(codename=Codename.SEOUL)
        assert result.family is Family.AMD
        assert result.cpu_vendor is Vendor.AMD

    def test_publication_lag(self):
        assert _result(hw_year=2010, published_year=2013).publication_lag_years == 3


class TestDerivedMetrics:
    def test_linear_curve_ep(self):
        result = _result(idle=0.3)
        assert result.ep == pytest.approx(0.7)

    def test_idle_fraction(self):
        assert _result(idle=0.25).idle_fraction == pytest.approx(0.25)

    def test_dynamic_range_complements_idle(self):
        result = _result(idle=0.25)
        assert result.dynamic_range == pytest.approx(0.75)

    def test_overall_score_matches_definition(self):
        result = _result()
        levels = result.sorted_levels()
        expected = sum(l.ssj_ops for l in levels) / (
            sum(l.average_power_w for l in levels) + result.active_idle_power_w
        )
        assert result.overall_score == pytest.approx(expected)

    def test_linear_server_peaks_at_full_load(self):
        assert _result().peak_ee_spots == [1.0]
        assert _result().primary_peak_spot == 1.0

    def test_convex_server_peaks_interior_and_crosses_ideal(self):
        result = _result(idle=0.15, shape=lambda u: 0.1 * u + 0.9 * u**4)
        assert result.primary_peak_spot < 1.0
        assert result.ideal_intersections()
        assert result.peak_over_full > 1.0

    def test_above_ideal_zone_zero_for_linear(self):
        assert _result().above_ideal_zone_width() == pytest.approx(0.0)

    def test_cache_invalidation(self):
        result = _result()
        before = result.overall_score
        result.levels = [
            LoadLevel(l.target_load, l.ssj_ops * 2.0, l.average_power_w)
            for l in result.levels
        ]
        result.invalidate_cache()
        assert result.overall_score == pytest.approx(before * 2.0, rel=1e-6)

    def test_batch_scores_equal_fresh_ones_in_any_level_order(self):
        rng = random.Random(3)
        results = [
            _result(idle=rng.uniform(0.05, 0.6), shape=lambda u, p=rng.uniform(0.5, 3): u**p,
                    peak_w=rng.uniform(50, 900), max_ops=rng.uniform(1e4, 1e7))
            for _ in range(60)
        ]
        for result in results[::2]:
            rng.shuffle(result.levels)
        scores = overall_scores(results)
        for result, score in zip(results, scores.tolist()):
            assert result._cache["score"] == score
            result.invalidate_cache()
            assert result.overall_score == score

    def test_batch_scores_of_mixed_level_counts(self):
        short = _result()
        short.levels = short.levels[5:]
        results = [_result(idle=0.2), short]
        assert overall_scores(results).tolist() == [r.overall_score for r in results]
        assert overall_scores([]).shape == (0,)

    def test_linear_deviation_zero_for_linear(self):
        assert _result().linear_deviation == pytest.approx(0.0, abs=1e-12)


class TestValidation:
    def test_rejects_duplicate_loads(self):
        result_levels = _result().levels
        bad = result_levels + [result_levels[0]]
        with pytest.raises(ValueError, match="duplicate"):
            _result(levels=bad)

    def test_rejects_nonpositive_configuration(self):
        with pytest.raises(ValueError):
            _result(nodes=0)
        with pytest.raises(ValueError):
            _result(memory_gb=0.0)

    def test_rejects_missing_idle_power(self):
        with pytest.raises(ValueError):
            _result(active_idle_power_w=0.0)

    def test_level_validation(self):
        with pytest.raises(ValueError):
            LoadLevel(target_load=0.0, ssj_ops=1.0, average_power_w=1.0)
        with pytest.raises(ValueError):
            LoadLevel(target_load=0.5, ssj_ops=-1.0, average_power_w=1.0)
        with pytest.raises(ValueError):
            LoadLevel(target_load=0.5, ssj_ops=1.0, average_power_w=0.0)
