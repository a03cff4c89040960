"""Tests for the lazily-built corpus column store.

Covers ISSUE 5's satellite: cache identity and fingerprint
invalidation on :meth:`Corpus.columns`, filter-chain consistency
(a filtered view's columns match its own records, not the parent's),
empty-corpus behavior, CSR correctness for the ragged peak-spot lists,
and the curve matrices consumed by the fleet engines.
"""

import numpy as np
import pytest

from repro.dataset.columns import (
    _COLUMN_SPECS,
    CorpusColumns,
)
from repro.dataset.corpus import Corpus


class TestStoreLifecycle:
    def test_columns_is_memoized(self, corpus):
        assert corpus.columns() is corpus.columns()

    def test_array_is_memoized(self, corpus):
        columns = corpus.columns()
        assert columns.array("ep") is columns.array("ep")

    def test_stale_store_is_rebuilt_on_fingerprint_mismatch(self, corpus):
        view = corpus.filter(lambda r: True)
        stale = CorpusColumns([], "not-the-real-fingerprint")
        view._columns = stale
        rebuilt = view.columns()
        assert rebuilt is not stale
        assert rebuilt.fingerprint == view.fingerprint()
        assert len(rebuilt) == len(view)

    def test_unknown_column_raises_key_error(self, corpus):
        with pytest.raises(KeyError, match="unknown column"):
            corpus.columns().array("wattage")

    def test_columns_are_write_protected(self, corpus):
        columns = corpus.columns()
        for name in ("ep", "hw_year", "result_id"):
            with pytest.raises(ValueError):
                columns.array(name)[:1] = 0

    def test_len_matches_corpus(self, corpus):
        assert len(corpus.columns()) == len(corpus)


class TestColumnValues:
    def test_every_column_matches_per_record_values(self, corpus):
        columns = corpus.columns()
        for name, (dtype, getter) in _COLUMN_SPECS.items():
            expected = [getter(r) for r in corpus]
            assert columns.array(name).tolist() == expected, name

    def test_scalar_columns_are_bit_identical_to_properties(self, corpus):
        ep = corpus.columns().array("ep")
        for value, record in zip(ep.tolist(), corpus):
            assert value == record.ep

    def test_filter_chain_columns_match_view_records(self, corpus):
        view = corpus.by_hw_year_range(2013, 2016).single_node()
        assert 0 < len(view) < len(corpus)
        columns = view.columns()
        assert columns.array("result_id").tolist() == [
            r.result_id for r in view
        ]
        assert columns.array("ep").tolist() == [r.ep for r in view]
        assert set(columns.array("nodes").tolist()) == {1}

    def test_each_view_gets_its_own_store(self, corpus):
        view = corpus.by_hw_year(2016)
        assert view.columns() is not corpus.columns()
        assert view.columns().fingerprint != corpus.columns().fingerprint


class TestPeakSpotCsr:
    def test_offsets_shape_and_monotonicity(self, corpus):
        columns = corpus.columns()
        offsets = columns.peak_spot_offsets()
        assert offsets.shape == (len(corpus) + 1,)
        assert offsets[0] == 0
        assert offsets[-1] == len(columns.peak_spot_values())
        assert np.all(np.diff(offsets) >= 0)

    def test_slices_reconstruct_per_record_lists(self, corpus):
        columns = corpus.columns()
        values = columns.peak_spot_values()
        offsets = columns.peak_spot_offsets()
        for position, record in enumerate(corpus):
            start, stop = offsets[position], offsets[position + 1]
            assert values[start:stop].tolist() == list(record.peak_ee_spots)


class TestCurveMatrices:
    def test_shapes_and_anchors(self, corpus):
        columns = corpus.columns()
        grid = columns.load_grid()
        power = columns.power_matrix()
        ops = columns.ops_matrix()
        assert grid[0] == 0.0
        assert grid[-1] == 1.0
        assert power.shape == (len(corpus), len(grid))
        assert ops.shape == power.shape
        assert power[:, 0].tolist() == [
            r.active_idle_power_w for r in corpus
        ]
        assert np.all(ops[:, 0] == 0.0)
        assert ops[:, -1].tolist() == [
            max(level.ssj_ops for level in r.levels) for r in corpus
        ]

    def test_fleet_arrays_shares_matrices(self, corpus):
        from repro.cluster.fleet_arrays import FleetArrays

        built = FleetArrays.from_fleet(corpus)
        columns = corpus.columns()
        assert built.power is columns.power_matrix()
        assert built.ops is columns.ops_matrix()


class TestEmptyCorpus:
    @pytest.fixture(scope="class")
    def empty(self):
        return Corpus([])

    def test_scalar_columns_are_empty(self, empty):
        columns = empty.columns()
        assert len(columns) == 0
        assert columns.array("ep").shape == (0,)
        assert columns.array("result_id").shape == (0,)

    def test_csr_is_empty(self, empty):
        columns = empty.columns()
        assert columns.peak_spot_values().shape == (0,)
        assert columns.peak_spot_offsets().tolist() == [0]

    def test_matrices_raise(self, empty):
        with pytest.raises(ValueError, match="empty corpus"):
            empty.columns().load_grid()


class TestAnalysisPorts:
    """The analysis functions ported onto columns stay bit-identical."""

    def test_ep_cdf_matches_per_record_values(self, corpus):
        from repro.analysis.cdf import ep_cdf

        cdf = ep_cdf(corpus)
        assert list(cdf.sorted_values) == sorted(r.ep for r in corpus)

    def test_ep_cdf_rejects_empty_corpus(self):
        from repro.analysis.cdf import ep_cdf

        with pytest.raises(ValueError, match="empty sample"):
            ep_cdf(Corpus([]))

    def test_spot_counts_matches_per_record_rounding(self, corpus):
        from collections import Counter

        from repro.analysis.peak_shift import spot_counts

        expected = Counter(
            round(spot, 2) for r in corpus for spot in r.peak_ee_spots
        )
        assert spot_counts(corpus) == dict(sorted(expected.items()))
