"""The dispatch table: every family, provenance, caching, parity."""

import json
import os
import sys
import threading
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    ArtifactQuery,
    CacheQuery,
    CapQuery,
    CdfQuery,
    DISPATCH,
    EnsembleQuery,
    GenerateQuery,
    GroupQuery,
    ListArtifactsQuery,
    PlacementQuery,
    QueryContext,
    ReplayQuery,
    ReportQuery,
    RunAllQuery,
    SweepQuery,
    StatsQuery,
    ValidateQuery,
    execute,
)
from repro.api import dispatch
from repro.api.dispatch import MAX_COHORTS, MAX_SEEDS
from repro.api.requests import POLICIES, REQUEST_TYPES
from repro.api.result import API_VERSION
from repro.cluster import engines
from repro.cluster.batch_placement import BatchPlacementEngine
from repro.cluster.sharded import ShardedFleetEngine
from repro.core.cache import ENGINE_VERSION, ArtifactCache
from repro.core import pipeline
from repro.core.study import Study
from repro.dataset.fingerprint import corpus_fingerprint

#: engine name -> a stand-in for ``fleet_engine`` that forces it
FORCED_ENGINES = {
    "columnar": BatchPlacementEngine,
    "sharded": ShardedFleetEngine,
}


@pytest.fixture(scope="module")
def context():
    return QueryContext()


def payload_json(result):
    return json.dumps(result.to_dict()["payload"], sort_keys=True)


def forced_execute(monkeypatch, study, request, engine, cache=None):
    """Execute ``request`` in a fresh context on the named engine."""
    fresh = QueryContext(cache=cache)
    fresh.adopt_study(study)
    with monkeypatch.context() as patch:
        patch.setattr(engines, "fleet_engine", FORCED_ENGINES[engine])
        return execute(request, fresh)


def every_engine(monkeypatch, study, request):
    """``request`` answered on each engine, keyed by engine name."""
    return {
        engine: forced_execute(monkeypatch, study, request, engine)
        for engine in FORCED_ENGINES
    }


class TestTable:
    def test_every_family_has_a_handler(self):
        assert set(DISPATCH) == set(REQUEST_TYPES)


class TestFamilies:
    def test_list(self, context):
        result = execute(ListArtifactsQuery(), context)
        assert result.family == "list"
        ids = [entry["id"] for entry in result.payload["artifacts"]]
        assert "fig3" in ids and result.text

    def test_stats(self, context):
        result = execute(StatsQuery(metric="ep"), context)
        assert result.payload["count"] == 477
        assert 0.0 < result.payload["mean"] < 1.5
        assert "mean" in result.text

    def test_stats_slice_is_smaller(self, context):
        full = execute(StatsQuery(), context)
        sliced = execute(
            StatsQuery(hw_year_min=2013, hw_year_max=2016), context
        )
        assert 0 < sliced.payload["count"] < full.payload["count"]

    def test_stats_empty_slice_raises(self, context):
        with pytest.raises(ValueError, match="empty corpus slice"):
            execute(StatsQuery(hw_year_min=1901, hw_year_max=1902), context)

    def test_cdf(self, context):
        result = execute(CdfQuery(metric="ep", lo=0.2, hi=0.4), context)
        quantiles = result.payload["quantiles"]
        assert quantiles["p10"] <= quantiles["p50"] <= quantiles["p90"]
        assert 0.0 <= result.payload["band"]["share"] <= 1.0
        assert len(result.payload["deciles"]) == 10

    def test_group(self, context):
        result = execute(GroupQuery(by="family"), context)
        assert sum(g["count"] for g in result.payload["groups"]) > 0

    def test_placement(self, context):
        result = execute(PlacementQuery(servers=30), context)
        assert result.payload["satisfied"]
        assert result.payload["servers_used"] <= 30

    def test_cap_respects_budget(self, context):
        result = execute(CapQuery(power_cap_w=5000.0, servers=30), context)
        assert result.payload["total_power_w"] <= 5000.0

    def test_replay(self, context):
        result = execute(ReplayQuery(servers=30, steps=8), context)
        assert result.payload["energy_kwh"] > 0.0
        assert "kWh/day" in result.text

    def test_sweep(self, context):
        result = execute(SweepQuery(server=2), context)
        assert result.payload["best_memory_per_core_gb"] > 0.0
        assert "best memory per core" in result.text

    def test_artifact(self, context):
        result = execute(ArtifactQuery(artifact_id="fig3"), context)
        assert result.payload["artifact_id"] == "fig3"
        assert result.text.startswith("== fig3:")

    def test_unknown_artifact_raises(self, context):
        with pytest.raises(KeyError):
            execute(ArtifactQuery(artifact_id="fig99"), context)

    def test_generate_and_validate(self, tmp_path, context):
        out = tmp_path / "corpus.csv"
        written = execute(GenerateQuery(out=str(out)), context)
        assert written.payload["results"] == 477 and out.is_file()
        checked = execute(ValidateQuery(path=str(out)), context)
        assert checked.exit_code == 0
        assert checked.payload["errors"] == 0


class TestProvenance:
    def test_fleet_queries_record_the_concrete_backend(self, context):
        large = execute(ReplayQuery(servers=30, steps=8), context)
        assert large.provenance.fleet_backend == "columnar"
        small = execute(ReplayQuery(servers=20, steps=8), context)
        assert small.provenance.fleet_backend == "columnar"

    def test_non_fleet_queries_have_no_backend(self, context):
        assert execute(StatsQuery(), context).provenance.fleet_backend == "-"
        artifact = execute(ArtifactQuery(artifact_id="fig3"), context)
        assert artifact.provenance.fleet_backend == "-"

    def test_corpus_families_carry_the_fingerprint(self, context):
        result = execute(StatsQuery(), context)
        assert result.provenance.fingerprint == context.corpus(
            2016
        ).fingerprint()
        assert execute(SweepQuery(server=2), context).provenance.fingerprint == ""

    def test_envelope_serializes(self, context):
        document = json.loads(execute(StatsQuery(), context).to_json())
        assert document["provenance"]["engine_version"] == ENGINE_VERSION
        assert document["provenance"]["api_version"] == API_VERSION == "4"


class TestCohortMemo:
    """Fleet, engine and replayer memos: one LRU, evicted together."""

    def test_distinct_cohorts_stay_bounded(self, study):
        context = QueryContext()
        context.adopt_study(study)
        first = ReplayQuery(servers=1, steps=4)
        before = execute(first, context)
        for servers in range(2, 101):
            execute(ReplayQuery(servers=servers, steps=4), context)
        assert MAX_COHORTS == 64
        for memo in (context._fleets, context._engines, context._replayers):
            assert len(memo) <= MAX_COHORTS
        assert context.fleet_key(first) not in context._engines
        # The evicted cohort rebuilds and answers byte for byte alike.
        after = execute(first, context)
        assert isinstance(context._engines[context.fleet_key(first)],
                          BatchPlacementEngine)
        assert payload_json(after) == payload_json(before)
        assert after.text == before.text
        assert after.provenance.spec_key == before.provenance.spec_key

    def test_recent_cohorts_survive(self, study):
        context = QueryContext()
        context.adopt_study(study)
        keep = PlacementQuery(servers=3)
        execute(keep, context)
        for servers in range(4, 4 + 2 * MAX_COHORTS):
            execute(PlacementQuery(servers=servers), context)
            execute(keep, context)  # touched every round: never the oldest
        assert context.fleet_key(keep) in context._engines

    def test_a_miss_grows_the_memos(self, study):
        context = QueryContext()
        context.adopt_study(study)
        execute(PlacementQuery(servers=7), context)
        sizes = len(context._fleets), len(context._engines)
        execute(PlacementQuery(servers=8), context)
        assert (len(context._fleets), len(context._engines)) == (
            sizes[0] + 1,
            sizes[1] + 1,
        )


class TestSeedMemos:
    """Per-seed memos are one LRU; the pinned seed never leaves it."""

    @staticmethod
    def seeds_held(context):
        """Every seed any per-seed memo still holds something for."""
        return (
            set(context._corpora) | set(context._studies)
            | {key[0] for key in context._slices}
            | {key[0] for key in context._cdfs}
            | {key[0] for key in context._cohorts}
        )

    def test_distinct_seeds_stay_bounded(self):
        context = QueryContext(seed=2016)
        execute(StatsQuery(metric="ep"), context)
        first = CdfQuery(metric="ep", seed=1, lo=0.6, hi=0.7)
        before = execute(first, context)
        execute(ReplayQuery(seed=1, servers=3, steps=4), context)
        for seed in range(2, 2 + MAX_SEEDS + 2):
            execute(StatsQuery(metric="ep", seed=seed), context)
        assert MAX_SEEDS == 4
        assert len(context._corpora) <= MAX_SEEDS
        assert 2016 in context._corpora
        assert self.seeds_held(context) <= set(context._seeds)
        assert 1 not in self.seeds_held(context)
        # The evicted seed comes back -- attached from the process's
        # corpus store, or regenerated once it has left that too -- and
        # answers byte for byte alike.
        after = execute(first, context)
        assert payload_json(after) == payload_json(before)
        assert after.text == before.text
        assert after.provenance.spec_key == before.provenance.spec_key

    def test_adopted_study_is_never_evicted(self, study):
        context = QueryContext()
        context.adopt_study(study)
        for seed in range(MAX_SEEDS + 2):
            execute(StatsQuery(metric="ep", seed=seed), context)
        assert context.corpus(study.seed) is study.corpus
        assert len(context._corpora) <= MAX_SEEDS


@pytest.fixture
def generations(monkeypatch):
    """An empty process corpus store; the seeds dispatch generates."""
    seeds = []
    generate = dispatch.generate_corpus

    def counted(seed):
        seeds.append(seed)
        return generate(seed)

    monkeypatch.setattr(dispatch, "_CORPORA", OrderedDict())
    monkeypatch.setattr(dispatch, "generate_corpus", counted)
    return seeds


class TestCorpusStore:
    """Each seed's corpus is generated once per process and shared."""

    def test_fresh_contexts_generate_once(self, generations):
        corpora = [QueryContext().corpus(7) for _ in range(3)]
        for _ in range(3):
            execute(StatsQuery(metric="ep", seed=7))
            execute(ReplayQuery(seed=7, servers=30, steps=8))
        assert generations == [7]
        assert all(corpus is corpora[0] for corpus in corpora)
        assert QueryContext().corpus(7) is corpora[0]
        # so the memoized fingerprint and column store are shared too
        assert QueryContext().corpus(7).columns() is corpora[0].columns()

    def test_oldest_seed_regenerates_alike(self, generations):
        first = CdfQuery(metric="ep", seed=1, lo=0.6, hi=0.7)
        before = execute(first)
        for seed in range(2, 2 + MAX_SEEDS):
            execute(StatsQuery(metric="ep", seed=seed))
        assert list(dispatch._CORPORA) == list(range(2, 2 + MAX_SEEDS))
        after = execute(first)
        assert generations.count(1) == 2
        assert len(dispatch._CORPORA) == MAX_SEEDS
        assert payload_json(after) == payload_json(before)
        assert after.text == before.text
        assert after.provenance.spec_key == before.provenance.spec_key

    def test_recent_seed_stays(self, generations):
        for seed in range(1, 1 + 2 * MAX_SEEDS):
            QueryContext().corpus(seed)
            QueryContext().corpus(1)  # touched every round: never the oldest
        assert generations.count(1) == 1

    def test_adopted_corpus_never_enters_the_store(self, generations, study):
        custom = Study(corpus=study.corpus.by_hw_year_range(2012, 2016), seed=99)
        context = QueryContext()
        context.adopt_study(custom)
        adopted = execute(StatsQuery(seed=99), context)
        assert adopted.payload["count"] == len(custom.corpus) < 477
        assert 99 not in dispatch._CORPORA and generations == []
        assert execute(StatsQuery(seed=99)).payload["count"] == 477
        assert dispatch._CORPORA[99] is not custom.corpus

    def test_concurrent_fresh_contexts_generate_once(self, generations):
        workers = 4  # more threads than the cores of a small host
        barrier = threading.Barrier(workers)
        got = []

        def attach():
            barrier.wait(timeout=10)
            got.append(QueryContext().corpus(5))

        threads = [threading.Thread(target=attach) for _ in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert generations == [5]
        assert len(got) == workers and all(corpus is got[0] for corpus in got)

    def test_forked_child_finds_the_store_lock_free(self):
        held, release = threading.Event(), threading.Event()

        def hold():
            with dispatch._CORPORA_LOCK:
                held.set()
                release.wait(timeout=30)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert held.wait(timeout=10)
            pid = os.fork()
            if pid == 0:  # the child: the holding thread is not here
                os._exit(0 if dispatch._CORPORA_LOCK.acquire(timeout=5) else 1)
            _, status = os.waitpid(pid, 0)
        finally:
            release.set()
            holder.join(timeout=10)
        assert not holder.is_alive()
        assert os.waitstatus_to_exitcode(status) == 0


class TestSharedCorpusIsReadOnly:
    """No family edits the records of the corpus every context shares."""

    def test_every_family_leaves_the_records_alone(
        self, generations, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(pipeline, "RANGE_SEEDS", (2016, 2017))
        corpus = QueryContext().corpus(2016)
        memoized = corpus.fingerprint()
        csv = str(tmp_path / "corpus.csv")
        requests = [
            ListArtifactsQuery(),
            ArtifactQuery(artifact_id="fig3"),
            StatsQuery(metric="ep", hw_year_min=2010),
            CdfQuery(metric="score", lo=0.0, hi=5_000.0),
            GroupQuery(by="family"),
            PlacementQuery(servers=30),
            CapQuery(power_cap_w=5000.0, servers=30),
            ReplayQuery(servers=30, steps=8),
            SweepQuery(server=2),
            EnsembleQuery(seeds=2),
            GenerateQuery(out=csv),
            ValidateQuery(path=csv),
            ReportQuery(out=str(tmp_path / "EXPERIMENTS.md")),
            RunAllQuery(output_dir=str(tmp_path / "artifacts")),
            CacheQuery(action="stats", cache_dir=str(tmp_path / "store")),
        ]
        assert {type(request) for request in requests} == set(REQUEST_TYPES)
        for request in requests:
            assert execute(request).exit_code == 0
        assert QueryContext().corpus(2016) is corpus
        assert generations == [2016]
        assert corpus.fingerprint() == memoized
        assert corpus_fingerprint(corpus.results()) == memoized


class TestCdfMemo:
    """CDF landmarks are built once per slice and metric, never shared."""

    QUERIES = [
        CdfQuery(),
        CdfQuery(metric="ep", lo=0.6, hi=0.7),
        CdfQuery(metric="score", lo=0.0, hi=5_000.0),
        CdfQuery(metric="ep", lo=0.8, hi=0.9),
        CdfQuery(metric="peak_ee"),
        CdfQuery(metric="ep", seed=7, lo=0.6, hi=0.7),
    ]

    def test_repeated_queries_equal_a_fresh_context(self, study):
        warm = QueryContext()
        warm.adopt_study(study)
        for _ in range(3):
            for request in self.QUERIES:
                got = execute(request, warm)
                fresh = execute(request, QueryContext())
                assert payload_json(got) == payload_json(fresh)
                assert got.text == fresh.text
        assert len(warm._cdfs) == 4  # (seed, metric): ep, score, peak_ee, seed 7

    def test_mutating_an_answer_leaves_the_next_alone(self, study):
        context = QueryContext()
        context.adopt_study(study)
        request = CdfQuery(metric="ep", lo=0.6, hi=0.7)
        first = execute(request, context)
        before = payload_json(first)
        first.payload["quantiles"]["p50"] = -1.0
        first.payload["quantiles"]["p999"] = 2.0
        first.payload["deciles"][0]["share"] = 9.0
        first.payload["deciles"].clear()
        second = execute(request, context)
        assert payload_json(second) == before
        assert second.payload["quantiles"] is not first.payload["quantiles"]


class TestBackendParity:
    """Every engine answers a fleet query byte for byte alike."""

    def test_backends_share_one_spec_key_and_payload(self, monkeypatch, study):
        results = every_engine(
            monkeypatch, study, ReplayQuery(servers=30, steps=8)
        )
        assert {
            name: r.provenance.fleet_backend for name, r in results.items()
        } == {name: name for name in FORCED_ENGINES}
        assert len({r.provenance.spec_key for r in results.values()}) == 1
        assert len({payload_json(r) for r in results.values()}) == 1
        assert len({r.text for r in results.values()}) == 1

    def test_placement_backends_bit_identical(self, monkeypatch, study):
        for request in (
            PlacementQuery(servers=30),
            # every server assigned: both engines must report a float
            # 0.0 of unused idle power
            PlacementQuery(servers=20, demand_fraction=0.764941533),
        ):
            results = every_engine(monkeypatch, study, request)
            assert len({payload_json(r) for r in results.values()}) == 1
            assert len({r.provenance.spec_key for r in results.values()}) == 1

    def test_sharded_backend_is_recorded_and_bit_identical(
        self, monkeypatch, study
    ):
        results = every_engine(
            monkeypatch, study, CapQuery(servers=30, power_cap_w=4000.0)
        )
        assert results["sharded"].provenance.fleet_backend == "sharded"
        assert len({payload_json(r) for r in results.values()}) == 1
        assert len({r.provenance.spec_key for r in results.values()}) == 1


#: The seeds the fleet-query property draws from: few, so corpora stay warm.
PROPERTY_SEEDS = (2016, 7)


@st.composite
def fleet_queries(draw):
    """A valid placement, cap or replay query; its cohort may be empty."""
    kind = draw(st.sampled_from((PlacementQuery, CapQuery, ReplayQuery)))
    # The corpus spans 2004-2016, so some year ranges select no server.
    year_min = draw(st.integers(2002, 2018))
    fields = {
        "seed": draw(st.sampled_from(PROPERTY_SEEDS)),
        "hw_year_min": year_min,
        "hw_year_max": draw(st.integers(year_min, 2018)),
        "policy": draw(st.sampled_from(POLICIES)),
        "power_off_unused": draw(st.booleans()),
    }
    servers = st.integers(1, 400)
    if kind is ReplayQuery:
        return ReplayQuery(
            servers=draw(servers), steps=draw(st.integers(4, 12)), **fields
        )
    fields["servers"] = draw(st.none() | servers)
    if kind is CapQuery:
        return CapQuery(power_cap_w=draw(st.floats(1.0, 1e6)), **fields)
    return PlacementQuery(demand_fraction=draw(st.floats(0.0, 1.0)), **fields)


@pytest.fixture(scope="module")
def property_context():
    return QueryContext()


class TestFleetBackendProperty:
    """Every fleet query is refused for an empty cohort or runs on an engine."""

    @given(query=fleet_queries())
    @settings(max_examples=60, deadline=None)
    def test_refused_or_served_by_an_engine(self, property_context, query):
        cohort = property_context.corpus_slice(
            query.seed, query.hw_year_min, query.hw_year_max
        ).results()
        if not cohort:
            with pytest.raises(ValueError, match="empty fleet cohort"):
                execute(query, property_context)
            return
        result = execute(query, property_context)
        assert result.provenance.fleet_backend in {"columnar", "sharded"}


class TestDiskCache:
    def test_round_trip_serves_identical_payload(self, tmp_path):
        cache = ArtifactCache(tmp_path / "store")
        context = QueryContext(cache=cache)
        first = execute(ReplayQuery(servers=30, steps=8), context)
        second = execute(ReplayQuery(servers=30, steps=8), context)
        assert not first.provenance.cache_hit
        assert second.provenance.cache_hit
        assert payload_json(first) == payload_json(second)
        assert first.text == second.text

    def test_sharded_write_serves_columnar_read(
        self, tmp_path, monkeypatch, study
    ):
        cache = ArtifactCache(tmp_path / "store")
        request = ReplayQuery(servers=30, steps=8)
        forced_execute(monkeypatch, study, request, "sharded", cache)
        hit = forced_execute(monkeypatch, study, request, "columnar", cache)
        assert hit.provenance.cache_hit  # engines share one entry
        assert hit.provenance.fleet_backend == "columnar"

    def test_artifact_entry_shared_with_run_all(self, tmp_path):
        cache = ArtifactCache(tmp_path / "store")
        study = Study()
        study.run_all(cache=cache)
        context = QueryContext(cache=cache)
        context.adopt_study(study)
        result = execute(ArtifactQuery(artifact_id="fig3"), context)
        assert result.provenance.cache_hit
        assert result.text == f"== fig3: {study.figure('fig3').title} ==" + (
            "\n" + study.figure("fig3").text
        )

    def test_cache_stats_and_clear(self, tmp_path):
        cache_dir = str(tmp_path / "store")
        context = QueryContext(cache=ArtifactCache(cache_dir))
        execute(StatsQuery(), context)
        stats = execute(CacheQuery(action="stats", cache_dir=cache_dir), context)
        assert stats.payload["entries"] == 1
        cleared = execute(
            CacheQuery(action="clear", cache_dir=cache_dir), context
        )
        assert cleared.payload["removed"] == 1


class TestStudyQuery:
    def test_study_query_uses_the_owned_corpus(self):
        study = Study()
        result = study.query(StatsQuery(metric="ep"))
        assert result.payload["count"] == len(study.corpus)
        assert result.provenance.fingerprint == study.fingerprint

    def test_study_query_overrides_request_seed(self):
        study = Study(seed=7)
        result = study.query(StatsQuery(seed=2016))
        assert result.provenance.fingerprint == study.fingerprint

    def test_study_query_rejects_non_requests(self):
        with pytest.raises(TypeError):
            Study().query("stats")

    def test_figure_goes_through_build_artifact(self):
        study = Study()
        assert study.figure("fig3").figure_id == "fig3"
        with pytest.raises(KeyError):
            study.figure("fig99")
