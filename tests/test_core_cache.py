"""Tests for the content-addressed artifact cache."""

import pickle

import pytest

from repro.core.cache import ENGINE_VERSION, ArtifactCache, cache_key
from repro.core.registry import FIGURE_IDS
from repro.core.study import Study


@pytest.fixture()
def cache(tmp_path):
    return ArtifactCache(tmp_path / "store")


@pytest.fixture(scope="module")
def cached_study(corpus):
    return Study(corpus=corpus)


class TestKeying:
    def test_key_is_stable(self):
        assert cache_key("fp", "fig1") == cache_key("fp", "fig1")

    def test_key_varies_with_every_component(self):
        base = cache_key("fp", "fig1", "1")
        assert cache_key("other", "fig1", "1") != base
        assert cache_key("fp", "fig2", "1") != base
        assert cache_key("fp", "fig1", "2") != base

    def test_engine_version_partitions_store(self, tmp_path, cached_study):
        old = ArtifactCache(tmp_path, engine_version="old")
        new = ArtifactCache(tmp_path, engine_version="new")
        result = cached_study.figure("wong")
        old.put(cached_study.fingerprint, "wong", result)
        assert new.get(cached_study.fingerprint, "wong") is None
        assert old.get(cached_study.fingerprint, "wong") is not None


class TestWarmRuns:
    def test_warm_run_hits_for_every_artifact(self, cache, cached_study):
        cold = cached_study.run_all(cache=cache, report=True)
        assert cold.cache_hits == 0
        warm = cached_study.run_all(cache=cache, report=True)
        assert warm.cache_hits == len(FIGURE_IDS)
        assert warm.built == 0
        assert cache.stats.writes == len(FIGURE_IDS)

    def test_warm_results_equal_cold_results(
        self, cache, cached_study, series_equal
    ):
        cold = cached_study.run_all(cache=cache)
        warm = cached_study.run_all(cache=cache)
        for figure_id in FIGURE_IDS:
            assert warm[figure_id].text == cold[figure_id].text
            assert series_equal(warm[figure_id].series, cold[figure_id].series)

    def test_warm_run_skips_sweep_resources(self, cache, corpus, monkeypatch):
        study = Study(corpus=corpus)
        study.run_all(cache=cache)
        import repro.core.study as study_module

        def exploding(server):
            raise AssertionError("warm run must not recompute sweeps")

        monkeypatch.setattr(study_module, "run_sweep", exploding)
        warm_study = Study(corpus=corpus)
        report = warm_study.run_all(cache=cache, report=True)
        assert report.cache_hits == len(FIGURE_IDS)


class TestInvalidation:
    def test_different_seed_misses(self, cache):
        study_a = Study(seed=2016)
        study_b = Study(seed=7)
        assert study_a.fingerprint != study_b.fingerprint
        study_a.run_all(cache=cache)
        report = study_b.run_all(cache=cache, report=True)
        assert report.cache_hits == 0

    def test_same_content_hits_across_instances(self, cache, corpus):
        Study(corpus=corpus).run_all(cache=cache)
        report = Study(corpus=corpus).run_all(cache=cache, report=True)
        assert report.cache_hits == len(FIGURE_IDS)


class TestCorruptionRecovery:
    def test_corrupted_entry_falls_back_to_recompute(
        self, cache, cached_study, series_equal
    ):
        reference = cached_study.run_all(cache=cache)
        path = cache.path_for(cached_study.fingerprint, "fig3")
        path.write_bytes(b"not a pickle at all")
        results = cached_study.run_all(cache=cache, report=True)
        assert results.metrics["fig3"].cache_hit is False
        assert results.metrics["fig5"].cache_hit is True
        assert series_equal(results["fig3"].series, reference["fig3"].series)
        assert cache.stats.evictions >= 1

    def test_truncated_entry_is_a_miss(self, cache, cached_study):
        fingerprint = cached_study.fingerprint
        cache.put(fingerprint, "wong", cached_study.figure("wong"))
        path = cache.path_for(fingerprint, "wong")
        path.write_bytes(path.read_bytes()[:10])
        assert cache.get(fingerprint, "wong") is None
        assert not path.exists()  # evicted

    def test_wrong_payload_type_is_a_miss(self, cache, cached_study):
        fingerprint = cached_study.fingerprint
        path = cache.path_for(fingerprint, "wong")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps({"not": "a FigureResult"}))
        assert cache.get(fingerprint, "wong") is None

    def test_mismatched_artifact_id_is_a_miss(self, cache, cached_study):
        fingerprint = cached_study.fingerprint
        other = cached_study.figure("fig1")
        path = cache.path_for(fingerprint, "wong")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps(other))
        assert cache.get(fingerprint, "wong") is None


class TestMaintenance:
    def test_entries_and_clear(self, cache, cached_study):
        cached_study.run_all(cache=cache)
        assert len(cache.entries()) == len(FIGURE_IDS)
        assert cache.size_bytes() > 0
        assert cache.clear() == len(FIGURE_IDS)
        assert cache.entries() == []

    def test_stats_track_hits_and_misses(self, cache, cached_study):
        fingerprint = cached_study.fingerprint
        assert cache.get(fingerprint, "fig1") is None
        cache.put(fingerprint, "fig1", cached_study.figure("fig1"))
        assert cache.get(fingerprint, "fig1") is not None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.lookups == 2
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_default_engine_version_applied(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.engine_version == ENGINE_VERSION


class TestConcurrentAccess:
    def test_racing_get_put_corrupt_evict_never_raises(
        self, cache, cached_study
    ):
        """Readers, writers, a corruptor, and an evictor hammer one
        entry concurrently; every anomaly must degrade to a miss inside
        the cache — no exception may escape to the callers."""
        import threading

        result = cached_study.figure("wong")
        fingerprint = cached_study.fingerprint
        path = cache.path_for(fingerprint, "wong")
        cache.put(fingerprint, "wong", result)

        stop = threading.Event()
        escaped = []

        def hammer(action):
            while not stop.is_set():
                try:
                    action()
                except Exception as error:  # no exception may escape
                    escaped.append(error)
                    return

        def read():
            probe = cache.get(fingerprint, "wong")
            assert probe is None or probe.figure_id == "wong"

        def write():
            cache.put(fingerprint, "wong", result)

        def corrupt():
            try:
                path.write_bytes(b"garbage mid-flight")
            except OSError:
                pass

        def evict():
            cache.clear()

        workers = [
            threading.Thread(target=hammer, args=(action,))
            for action in (read, read, write, corrupt, evict)
        ]
        for worker in workers:
            worker.start()
        import time

        time.sleep(0.4)
        stop.set()
        for worker in workers:
            worker.join(timeout=10.0)
        assert escaped == []
        assert cache.stats.lookups == cache.stats.hits + cache.stats.misses
        # The store converges once the race stops.
        cache.put(fingerprint, "wong", result)
        final = cache.get(fingerprint, "wong")
        assert final is not None and final.figure_id == "wong"

    def test_corrupt_entry_rebuilds_exactly_once(self, cache, cached_study):
        """A corrupted entry costs one rebuild: the executor probes
        once, evicts once, builds once."""
        cached_study.run_all(cache=cache)
        path = cache.path_for(cached_study.fingerprint, "fig3")
        path.write_bytes(b"not a pickle")
        evictions_before = cache.stats.evictions
        report = cached_study.run_all(cache=cache, report=True)
        assert report.built == 1
        assert report.metrics["fig3"].cache_hit is False
        assert cache.stats.evictions == evictions_before + 1
        # The rebuild restored the entry for the next run.
        assert cache.get(cached_study.fingerprint, "fig3") is not None
