"""The corpus-wide metric pass against its per-curve oracle.

:meth:`repro.dataset.columns.CorpusColumns.curve_metrics` computes the
proportionality-metric family (EP, ER, IPR, LD, PG) and the gap profile
of every record in one array pass.  The per-curve functions in
:mod:`repro.metrics` stay the public API and are the oracle here: every
float must equal theirs with ``==``, and a curve they reject must raise
the same ``ValueError`` through the pass.
"""

import dataclasses
import re

import numpy as np
import pytest

from repro.analysis.gap import gap_trend, mean_gap_profile
from repro.analysis.metric_comparison import metric_table
from repro.dataset.columns import LOW_BAND, MID_BAND
from repro.dataset.corpus import Corpus
from repro.dataset.schema import LoadLevel
from repro.dataset.synthesis import generate_corpus
from repro.metrics.ep import energy_proportionality
from repro.metrics.gap import low_utilization_gap, peak_gap, proportionality_gap
from repro.metrics.linearity import energy_ratio, idle_to_peak_ratio, linear_deviation


@pytest.fixture(scope="module", params=["seed-2016", "seed-7", "no-structural-effects"])
def any_corpus(request, corpus):
    if request.param == "seed-2016":
        return corpus
    if request.param == "seed-7":
        return generate_corpus(seed=7)
    return generate_corpus(seed=2016, structural_effects=False)


def _copy(record, levels=None):
    """A record copy with its own level list and an empty metric cache."""
    return dataclasses.replace(
        record, levels=list(record.levels if levels is None else levels), _cache={}
    )


def _without(record, load):
    return _copy(record, [level for level in record.levels if level.target_load != load])


def _assert_matches_oracle(records, metrics):
    for position, record in enumerate(records):
        curve = record.curve()
        gaps = proportionality_gap(*curve)
        assert metrics.ep[position] == energy_proportionality(*curve)
        assert metrics.er[position] == energy_ratio(*curve)
        assert metrics.ipr[position] == idle_to_peak_ratio(*curve)
        assert metrics.ld[position] == linear_deviation(*curve)
        assert metrics.pg_low[position] == low_utilization_gap(*curve, band=LOW_BAND)
        assert metrics.pg_mid[position] == low_utilization_gap(*curve, band=MID_BAND)
        assert metrics.gap_mean[position] == float(gaps.mean())
        assert metrics.peak_gap_at[position] == peak_gap(*curve)[0]
        if metrics.gap is not None:
            assert np.array_equal(metrics.gap[position], gaps)


class TestArrayPass:
    def test_every_record_equals_the_per_curve_functions(self, any_corpus):
        metrics = any_corpus.columns().curve_metrics()
        assert metrics.gap.shape == any_corpus.columns().power_matrix().shape
        _assert_matches_oracle(list(any_corpus), metrics)
        # The records' own cached EP is the same float.
        assert metrics.ep.tolist() == any_corpus.eps()

    def test_one_pass_per_corpus_write_protected(self, corpus):
        metrics = corpus.columns().curve_metrics()
        assert corpus.columns().curve_metrics() is metrics
        with pytest.raises(ValueError):
            metrics.ld[0] = 0.0

    def test_grid_stopping_short_of_full_load(self, corpus):
        """proportionality_area holds the last level out to u = 1."""
        records = [_without(record, 1.0) for record in corpus[:40]]
        short = Corpus(records).columns()
        assert short.load_grid()[-1] == pytest.approx(0.9)
        _assert_matches_oracle(records, short.curve_metrics())

    def test_mixed_level_counts_take_the_per_record_route(self, corpus):
        records = [
            _without(record, 0.5) if position % 3 == 0 else _copy(record)
            for position, record in enumerate(corpus[:40])
        ]
        mixed = Corpus(records)
        with pytest.raises(ValueError, match="heterogeneous"):
            mixed.columns().load_grid()
        metrics = mixed.columns().curve_metrics()
        assert metrics.gap is None
        _assert_matches_oracle(records, metrics)
        assert len(gap_trend(mixed).years) == len(mixed.hw_years())
        with pytest.raises(ValueError, match="level count"):
            mean_gap_profile(mixed)


def _oracle_error(record):
    with pytest.raises(ValueError) as raised:
        energy_proportionality(*record.curve())
    return re.escape(str(raised.value))


class TestValidation:
    def test_negative_power_raises_the_per_curve_error(self, corpus):
        records = [_copy(record) for record in corpus[:20]]
        records[5].active_idle_power_w = -5.0
        bad = Corpus(records)
        bad.columns().load_grid()  # one shared grid: the array route
        with pytest.raises(ValueError, match=_oracle_error(records[5])):
            bad.columns().curve_metrics()
        with pytest.raises(ValueError, match=_oracle_error(records[5])):
            metric_table(bad)

    def test_duplicated_load_raises_the_per_curve_error(self, corpus):
        records = [_copy(record) for record in corpus[:20]]
        for record in records:  # after construction, which rejects duplicates
            record.levels[:] = [
                LoadLevel(0.1, level.ssj_ops, level.average_power_w)
                if level.target_load == 0.2
                else level
                for level in record.levels
            ]
        bad = Corpus(records)
        assert bad.columns().load_grid().tolist().count(0.1) == 2
        with pytest.raises(ValueError, match=_oracle_error(records[0])):
            bad.columns().curve_metrics()
        assert "distinct" in _oracle_error(records[0])
