"""Tests for the metric-family comparison."""

import pytest

from repro.analysis.metric_comparison import (
    METRIC_FAMILY,
    equal_ep_different_ld,
    metric_table,
    rank_correlation_matrix,
)


class TestMetricComparison:
    def test_table_covers_everything(self, corpus):
        table = metric_table(corpus)
        assert len(table.ids) == 477
        for metric in METRIC_FAMILY:
            assert len(table.column(metric)) == 477

    def test_ep_and_er_rank_identically(self, corpus):
        matrix = rank_correlation_matrix(corpus)
        assert matrix[("ep", "er")] == pytest.approx(1.0, abs=1e-9)

    def test_ipr_anticorrelates_with_ep(self, corpus):
        matrix = rank_correlation_matrix(corpus)
        assert matrix[("ep", "ipr")] < -0.85

    def test_low_gap_anticorrelates_with_ep(self, corpus):
        matrix = rank_correlation_matrix(corpus)
        assert matrix[("ep", "pg_low")] < -0.7

    def test_matrix_is_symmetric_with_unit_diagonal(self, corpus):
        matrix = rank_correlation_matrix(corpus)
        for a in METRIC_FAMILY:
            assert matrix[(a, a)] == 1.0
            for b in METRIC_FAMILY:
                assert matrix[(a, b)] == matrix[(b, a)]

    def test_equal_ep_pairs_with_different_shapes_exist(self, corpus):
        """Section III.C: the scalar EP conceals curve shape."""
        pairs = equal_ep_different_ld(corpus)
        assert len(pairs) >= 1
        first = pairs[0]
        a, b = corpus.get(first[0]), corpus.get(first[1])
        assert abs(a.ep - b.ep) <= 0.01
        assert abs(a.linear_deviation - b.linear_deviation) >= 0.03
