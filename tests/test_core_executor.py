"""Tests for the serial artifact execution engine."""

import threading
import time

import pytest

from repro.core.executor import ArtifactExecutor, ArtifactMetric, RunReport
from repro.core.registry import FIGURE_IDS, REGISTRY
from repro.core.study import Study


@pytest.fixture(scope="module")
def engine_results(corpus):
    return ArtifactExecutor(Study(corpus=corpus)).run()


@pytest.fixture(scope="module")
def direct_results(corpus):
    """Each artifact built on demand through ``Study.figure``."""
    study = Study(corpus=corpus)
    return {figure_id: study.figure(figure_id) for figure_id in FIGURE_IDS}


class TestEngineEqualsDirectBuild:
    """The graph walk (shared resources first) changes no artifact."""

    @pytest.mark.parametrize("figure_id", FIGURE_IDS)
    def test_series_identical(
        self, engine_results, direct_results, series_equal, figure_id
    ):
        assert series_equal(
            engine_results[figure_id].series,
            direct_results[figure_id].series,
        )

    @pytest.mark.parametrize("figure_id", FIGURE_IDS)
    def test_text_identical(self, engine_results, direct_results, figure_id):
        assert (
            engine_results[figure_id].text == direct_results[figure_id].text
        )

    def test_same_paper_order(self, engine_results):
        assert list(engine_results) == list(FIGURE_IDS)


class TestScheduling:
    def test_shared_sweeps_computed_once(self, corpus, monkeypatch):
        import repro.core.study as study_module

        calls = []
        real = study_module.run_sweep

        def counting(server):
            calls.append(server.number)
            return real(server)

        monkeypatch.setattr(study_module, "run_sweep", counting)
        study = Study(corpus=corpus)
        ArtifactExecutor(study).run(["fig18", "fig19", "fig20", "fig21"])
        # fig20 and fig21 share sweep 4; each sweep resolves exactly once.
        assert sorted(calls) == [1, 2, 4]

    def test_concurrent_sweep_callers_compute_once(self, corpus, monkeypatch):
        """Serve threads sharing one Study, or a timed-out sweep still
        running beside its retry, must not compute the sweep twice."""
        import repro.core.study as study_module

        calls = []
        real = study_module.run_sweep

        def slow(server):
            calls.append(server.number)
            time.sleep(0.2)
            return real(server)

        monkeypatch.setattr(study_module, "run_sweep", slow)
        study = Study(corpus=corpus)
        barrier = threading.Barrier(2)
        sweeps = []

        def reach_sweep():
            barrier.wait(timeout=10.0)
            sweeps.append(study._sweep(4))

        threads = [threading.Thread(target=reach_sweep) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        assert calls == [4]
        assert len(sweeps) == 2 and sweeps[0] is sweeps[1]

    def test_subset_run_only_builds_requested(self, corpus):
        study = Study(corpus=corpus)
        report = ArtifactExecutor(study).run(["fig3", "wong"])
        assert list(report) == ["fig3", "wong"]

    def test_unknown_artifact_rejected(self, corpus):
        study = Study(corpus=corpus)
        with pytest.raises(KeyError, match="fig99"):
            ArtifactExecutor(study).run(["fig99"])


class TestRunReport:
    def test_mapping_protocol(self, engine_results):
        assert isinstance(engine_results, RunReport)
        assert len(engine_results) == len(FIGURE_IDS)
        assert engine_results["fig1"].figure_id == "fig1"
        assert set(engine_results.keys()) == set(FIGURE_IDS)

    def test_metrics_cover_every_artifact(self, engine_results):
        assert set(engine_results.metrics) == set(FIGURE_IDS)
        for metric in engine_results.metrics.values():
            assert isinstance(metric, ArtifactMetric)
            assert metric.seconds >= 0.0
            assert metric.cache_hit is False
            assert metric.source == "built"

    def test_no_cache_means_no_hits(self, engine_results):
        assert engine_results.cache_hits == 0
        assert engine_results.built == len(FIGURE_IDS)
        assert engine_results.cache_dir is None

    def test_render_mentions_every_artifact(self, engine_results):
        rendered = engine_results.render()
        for figure_id in FIGURE_IDS:
            assert figure_id in rendered
        assert "36 artifacts, 0 cached\n" in rendered
        assert "shared resources" in rendered


class TestStudyRunAllIntegration:
    def test_run_all_report_flag(self, study):
        report = study.run_all(report=True)
        assert isinstance(report, RunReport)
        assert set(report) == set(REGISTRY)

    def test_run_all_accepts_only_one_job(self, study):
        with pytest.raises(ValueError, match="serial"):
            study.run_all(jobs=2)

    def test_run_all_plain_dict_by_default(self, study):
        results = study.run_all()
        assert isinstance(results, dict)
        assert not isinstance(results, RunReport)
        assert set(results) == set(REGISTRY)


class TestCacheFlagNormalization:
    """run_all(cache=...) accepts bool | ArtifactCache | None."""

    def test_true_means_default_store(self, corpus):
        from repro.core.cache import DEFAULT_CACHE_DIR, ArtifactCache

        executor = ArtifactExecutor(Study(corpus=corpus), cache=True)
        assert isinstance(executor.cache, ArtifactCache)
        assert str(executor.cache.root) == DEFAULT_CACHE_DIR

    def test_false_means_no_cache(self, corpus):
        assert ArtifactExecutor(Study(corpus=corpus), cache=False).cache is None

    def test_run_all_accepts_bools_end_to_end(
        self, study, tmp_path, monkeypatch
    ):
        # cache=True writes to the default relative store; chdir keeps it
        # inside the test's tmp dir.  This used to crash with
        # AttributeError: 'bool' object has no attribute 'get'.
        monkeypatch.chdir(tmp_path)
        report = study.run_all(cache=True, report=True)
        assert (tmp_path / ".repro_cache").is_dir()
        assert set(report) == set(REGISTRY)
        plain = study.run_all(cache=False)
        assert set(plain) == set(REGISTRY)
