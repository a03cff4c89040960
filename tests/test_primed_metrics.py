"""The memos the generator primes in one array pass equal the per-record ones.

:func:`repro.dataset.schema.overall_scores` memoizes every record's score,
EP, idle fraction, peak EE and peak-EE spots in one pass over the corpus
table, and :func:`repro.analysis.envelopes._aligned_curves` normalizes
the whole power matrix at once.  The per-record properties (through
:mod:`repro.metrics`) stay the definition: every primed value must
``==`` the value, of the same type, that the property derives on a twin
whose memos were cleared.
"""

import copy
import json
import random

import numpy as np
import pytest

from repro.analysis.envelopes import _aligned_curves, _aligned_row
from repro.api.serialize import jsonify
from repro.core.study import Study
from repro.dataset import synthesis
from repro.dataset.corpus import Corpus
from repro.dataset.schema import LoadLevel, SpecPowerResult, overall_scores
from repro.dataset.synthesis import generate_corpus
from repro.power.microarch import Codename

#: memo key -> the property that derives it.
PRIMED = {
    "score": "overall_score",
    "ep": "ep",
    "idle": "idle_fraction",
    "peak_ee": "peak_ee",
    "spots": "peak_ee_spots",
}


def _record(
    result_id="r",
    idle=0.3,
    exponent=1.0,
    peak_w=200.0,
    max_ops=10000.0,
    loads=None,
    hw_year=2014,
    **overrides,
):
    loads = loads or [round(0.1 * i, 1) for i in range(1, 11)]
    levels = [
        LoadLevel(
            target_load=u,
            ssj_ops=max_ops * u,
            average_power_w=peak_w * (idle + (1 - idle) * u**exponent),
        )
        for u in loads
    ]
    fields = dict(
        result_id=result_id,
        vendor="Acme",
        model="AS-1",
        form_factor="2U",
        hw_year=hw_year,
        published_year=hw_year + 1,
        codename=Codename.HASWELL,
        nodes=1,
        chips_per_node=2,
        cores_per_chip=12,
        memory_gb=48.0,
        levels=levels,
        active_idle_power_w=peak_w * idle,
    )
    fields.update(overrides)
    return SpecPowerResult(**fields)


def _assert_primed_as_derived(records, keys=tuple(PRIMED)):
    """Each record's memo under ``keys`` equals its fresh twin's property."""
    for record in records:
        twin = copy.deepcopy(record)
        twin.invalidate_cache()
        for key in keys:
            assert key in record._cache, (record.result_id, key)
            primed = record._cache[key]
            fresh = getattr(twin, PRIMED[key])
            assert type(primed) is type(fresh), (record.result_id, key)
            assert primed == fresh, (record.result_id, key, primed, fresh)
            if key == "spots":
                assert [type(spot) for spot in primed] == [float] * len(primed)


@pytest.fixture(
    scope="module",
    params=[(2016, True), (7, True), (2016, False)],
    ids=["seed2016", "seed7", "seed2016-no-structural"],
)
def corpus(request):
    seed, structural = request.param
    return generate_corpus(seed, structural_effects=structural)


class TestGeneratedCorpus:
    def test_every_record_is_primed_as_the_property_derives(self, corpus):
        _assert_primed_as_derived(corpus)

    def test_tie_records_keep_both_spots(self, corpus):
        ties = [record for record in corpus if record.tie_peak_spots]
        assert ties
        assert any(len(record._cache["spots"]) > 1 for record in ties)
        _assert_primed_as_derived(ties)

    @pytest.mark.parametrize("kind", ["power", "ee"])
    def test_aligned_curves_equal_the_per_record_rows(self, corpus, kind):
        matrix, ids = _aligned_curves(corpus, kind)
        rows = np.asarray([_aligned_row(record, kind) for record in corpus])
        assert ids == [record.result_id for record in corpus]
        assert matrix.dtype == rows.dtype and matrix.shape == rows.shape
        assert matrix.tobytes() == rows.tobytes()


class TestPrimingPass:
    def test_levels_listed_out_of_order(self):
        rng = random.Random(11)
        records = [
            _record(
                f"r{i}",
                idle=rng.uniform(0.05, 0.6),
                exponent=rng.uniform(0.5, 3.0),
                peak_w=rng.uniform(50, 900),
                max_ops=rng.uniform(1e4, 1e7),
                tie_peak_spots=bool(i % 3 == 0),
            )
            for i in range(40)
        ]
        for record in records[::2]:
            rng.shuffle(record.levels)
        overall_scores(records)
        _assert_primed_as_derived(records)

    def test_each_record_keeps_its_own_tie_tolerance(self):
        tied = _record("tie", tie_peak_spots=True)
        regular = _record("regular")
        for record in (tied, regular):
            # EE at 80% and 90% equal; EE at 70% 5e-4 below them.
            by_load = {level.target_load: level for level in record.levels}
            peak = 1.2 * by_load[0.8].ssj_ops / by_load[0.8].average_power_w
            for load, factor in ((0.7, 1.0 - 5e-4), (0.8, 1.0), (0.9, 1.0)):
                watts = by_load[load].average_power_w
                by_load[load] = LoadLevel(load, watts * peak * factor, watts)
            record.levels = [by_load[level.target_load] for level in record.levels]
        overall_scores([tied, regular])
        _assert_primed_as_derived([tied, regular])
        assert tied._cache["spots"] == [0.8, 0.9]  # rtol 1e-6
        assert regular._cache["spots"] == [0.7, 0.8, 0.9]  # rtol 1e-3

    def test_a_record_the_envelope_rescales_is_primed_after_the_rescale(self):
        early = _record("early", max_ops=20000.0, hw_year=2010)
        late = _record("late", max_ops=10000.0, hw_year=2011)
        ops_before = [level.ssj_ops for level in late.levels]
        synthesis._enforce_ee_monotonicity([early, late])
        assert [level.ssj_ops for level in late.levels] != ops_before
        assert late.overall_score > early.overall_score
        _assert_primed_as_derived([early, late])

    def test_mixed_level_counts_derive_per_record(self):
        short = _record("short", loads=[0.5, 1.0])
        records = [_record("full"), short]
        scores = overall_scores(records)
        assert scores.tolist() == [record.overall_score for record in records]
        assert all(set(record._cache) == {"score"} for record in records)
        _assert_primed_as_derived(records, keys=("score",))

    def test_grids_the_metric_family_cannot_take_leave_ep_to_the_property(self):
        # Same level count, different grids: no shared grid for EP.
        shifted = [round(0.1 * i - 0.05, 2) for i in range(1, 11)]
        apart = [_record("a"), _record("b", loads=shifted)]
        # One shared grid with no level inside the low gap band.
        banded = [_record("c", loads=[0.5, 1.0]), _record("d", loads=[0.5, 1.0])]
        for records in (apart, banded):
            overall_scores(records)
            _assert_primed_as_derived(records, keys=("score", "peak_ee", "spots"))
            assert not any({"ep", "idle"} & set(record._cache) for record in records)

    def test_aligned_curves_on_mixed_grids_build_per_record_rows(self):
        shifted = [round(0.1 * i - 0.05, 2) for i in range(1, 11)]
        corpus = Corpus([_record("a"), _record("b", loads=shifted, idle=0.5)])
        with pytest.raises(ValueError):
            corpus.columns().load_grid()
        for kind in ("power", "ee"):
            matrix, _ids = _aligned_curves(corpus, kind)
            rows = np.asarray([_aligned_row(record, kind) for record in corpus])
            assert matrix.tobytes() == rows.tobytes()


def _run_all_digest(study):
    """(text, repr(series), artifact JSON) of every artifact, registry order."""
    return [
        (artifact_id, result.text, repr(result.series),
         json.dumps(jsonify(result.series), sort_keys=True))
        for artifact_id, result in study.run_all().items()
    ]


@pytest.mark.parametrize("seed", [2016, 3000])
def test_run_all_on_primed_records_equals_run_all_on_cleared_ones(seed):
    study = Study(seed=seed)
    primed = _run_all_digest(study)
    for record in study.corpus:
        record.invalidate_cache()
    cleared = Study(Corpus(study.corpus.results()), seed=seed)
    assert _run_all_digest(cleared) == primed


def test_cold_run_all_misses_no_primed_memo(monkeypatch):
    study = Study(seed=2016)
    records = {id(record) for record in study.corpus}
    derive = SpecPowerResult._derive
    reads, misses = [], []

    def counting(self, key, compute):
        if id(self) in records and key in PRIMED:
            reads.append(key)
            if key not in self._cache:
                misses.append((self.result_id, key))
        return derive(self, key, compute)

    monkeypatch.setattr(SpecPowerResult, "_derive", counting)
    study.run_all()
    assert set(reads) == set(PRIMED)
    assert misses == []
