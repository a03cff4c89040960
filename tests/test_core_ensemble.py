"""Tests for the multi-seed ensemble engine."""

import io

import pytest

from repro.core.ensemble import (
    EnsembleResult,
    MetricSummary,
    claim_values,
    resolve_seeds,
    run_ensemble,
)
from repro.core.pipeline import CLAIMS
from repro.core.study import Study

NAMES = [claim.name for claim in CLAIMS]


@pytest.fixture(scope="module")
def serial_ensemble():
    return run_ensemble((2016, 7), jobs=1)


class TestResolveSeeds:
    def test_int_expands_from_base_seed(self):
        assert resolve_seeds(3, base_seed=100) == (100, 101, 102)

    def test_sequence_preserved_in_order(self):
        assert resolve_seeds([5, 2, 9]) == (5, 2, 9)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            resolve_seeds(0)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            resolve_seeds([])

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            resolve_seeds([1, 2, 1])


class TestSeedStatistics:
    def test_headlines_in_plausible_ranges(self, serial_ensemble):
        values = serial_ensemble.per_seed[0]
        assert len(values) == len(CLAIMS)
        stats = dict(zip(NAMES, values))
        assert stats["table1: servers at 1 GB/core"] == 153
        assert 0.0 < stats["fig3: average EP in 2012"] < 1.0
        assert 0.0 < stats["eq2: Eq. 2 R^2"] <= 1.0
        assert -1.0 <= stats["eq2: corr(EP, idle%)"] < 0.0  # higher idle, lower EP
        # EP improves over hw years.
        assert stats["fig3: average EP in 2016"] > stats["fig3: average EP in 2005"]

    def test_matches_direct_seed_statistics(self, serial_ensemble):
        assert claim_values(7) == serial_ensemble.per_seed[1]

    def test_every_row_measures_without_structural_effects(self):
        (values,) = run_ensemble([2016], structural_effects=False).per_seed
        assert len(values) == len(CLAIMS)


class TestSerialParallelEquivalence:
    def test_parallel_equals_serial_exactly(self, serial_ensemble):
        parallel = run_ensemble((2016, 7), jobs=2)
        assert parallel == serial_ensemble

    def test_seed_order_preserved(self, serial_ensemble):
        assert serial_ensemble.seeds == (2016, 7)
        assert serial_ensemble.per_seed == (claim_values(2016), claim_values(7))


class TestSummaries:
    def test_every_summary_field_present(self, serial_ensemble):
        assert list(serial_ensemble.summaries) == NAMES

    def test_summary_statistics_consistent(self, serial_ensemble):
        summary = serial_ensemble.summary("eq2: Eq. 2 R^2")
        assert isinstance(summary, MetricSummary)
        assert len(summary.values) == 2
        assert summary.ci_low <= summary.mean <= summary.ci_high
        assert summary.ci_half_width == pytest.approx(
            0.5 * (summary.ci_high - summary.ci_low)
        )

    def test_unknown_metric_rejected(self, serial_ensemble):
        with pytest.raises(KeyError, match="unknown ensemble metric"):
            serial_ensemble.summary("nope")

    def test_render_lists_every_metric(self, serial_ensemble):
        rendered = serial_ensemble.render()
        assert "ensemble over 2 seeds" in rendered
        for name in NAMES:
            assert name in rendered


class TestStudyAndCliIntegration:
    def test_study_ensemble_uses_study_seed(self, corpus):
        result = Study(corpus=corpus, seed=7).ensemble(seeds=2)
        assert isinstance(result, EnsembleResult)
        assert result.seeds == (7, 8)

    def test_cli_ensemble_smoke(self):
        from repro.cli import main

        out = io.StringIO()
        assert main(["--seed", "2016", "ensemble", "--seeds", "2",
                     "--per-seed"], out=out) == 0
        text = out.getvalue()
        assert "ensemble over 2 seeds (2016..2017)" in text
        assert "per-seed headline statistics" in text
