"""Unit tests for the correlation coefficients."""

import numpy as np
import pytest

from repro.metrics.correlation import _ranks, pearson, spearman


class TestPearson:
    def test_perfect_positive(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson(x, [2 * v + 1 for v in x]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson(x, [-3 * v for v in x]) == pytest.approx(-1.0)

    def test_independent_series_near_zero(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=5000)
        y = rng.normal(size=5000)
        assert abs(pearson(x, y)) < 0.05

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=50)
        y = x + rng.normal(size=50)
        assert pearson(x, y) == pytest.approx(pearson(y, x))

    def test_scale_invariance(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=60)
        y = x + rng.normal(size=60)
        assert pearson(x, y) == pytest.approx(pearson(x * 100 + 7, y * 0.01 - 3))

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_needs_two_observations(self):
        with pytest.raises(ValueError, match="two"):
            pearson([1.0], [2.0])


class TestSpearman:
    def test_monotone_nonlinear_relationship_is_one(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        y = [v**3 for v in x]
        assert spearman(x, y) == pytest.approx(1.0)

    def test_pearson_would_not_be_one(self):
        x = np.linspace(1, 10, 30)
        y = np.exp(x)
        assert spearman(x, y) == pytest.approx(1.0)
        assert pearson(x, y) < 1.0

    def test_ties_share_average_rank(self):
        # With ties handled properly the coefficient stays within [-1, 1].
        x = [1.0, 2.0, 2.0, 3.0]
        y = [1.0, 2.0, 3.0, 4.0]
        value = spearman(x, y)
        assert -1.0 <= value <= 1.0
        assert value > 0.9

    def test_reversal_is_minus_one(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert spearman(x, x[::-1]) == pytest.approx(-1.0)

    def test_ranks_equal_the_run_by_run_loop(self):
        """The array ranking assigns what a walk over sorted runs does."""

        def loop_ranks(values):
            order = np.argsort(values, kind="mergesort")
            ranks = np.empty(len(values), dtype=float)
            i = 0
            while i < len(values):
                j = i
                while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
                    j += 1
                ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
                i = j + 1
            return ranks

        rng = np.random.default_rng(5)
        for size in (1, 2, 3, 17, 477):
            for trial in range(40):
                values = rng.integers(0, max(1, size // 3), size).astype(float)
                if trial % 4 == 0:
                    values = rng.normal(size=size)
                if trial % 5 == 0:
                    values[rng.integers(0, size)] = np.nan
                assert np.array_equal(_ranks(values), loop_ranks(values))
