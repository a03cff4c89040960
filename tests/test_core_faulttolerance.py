"""End-to-end failure semantics: retries, isolation, timeouts, degraded
cache, and the hardened ensemble, all driven by the deterministic fault
harness (:mod:`repro.core.faults`)."""

import time
import warnings

import pytest

from repro.core.cache import MAX_WRITE_FAILURES, ArtifactCache
from repro.core.executor import ArtifactExecutor
from repro.core.faults import FaultPlan, FaultSpec
from repro.core.registry import REGISTRY
from repro.core.resilience import (
    BuildError,
    FailureLedger,
    RetryPolicy,
    TransientError,
)
from repro.core.study import Study

SUBSET = ["fig3", "fig5", "eq2", "wong"]
SWEEP_SUBSET = ["fig18", "fig20", "fig21"]


def _plan(*specs, seed=0):
    return FaultPlan(list(specs), seed=seed)


@pytest.fixture(scope="module")
def baseline(corpus):
    """Fault-free reference results for the two artifact subsets."""
    study = Study(corpus=corpus)
    report = ArtifactExecutor(study).run(SUBSET + SWEEP_SUBSET)
    return report.results


class TestRetryMasksTransients:
    """A fail-once transient plus one retry must be invisible."""

    def test_results_bit_identical_and_ledger_empty(
        self, corpus, baseline, series_equal
    ):
        study = Study(corpus=corpus)
        plan = _plan(
            FaultSpec(site="builder.fig5", mode="fail-once",
                      error="transient")
        )
        report = ArtifactExecutor(
            study, on_error="isolate",
            retry=RetryPolicy(attempts=2, base_delay_s=0.001),
            faults=plan,
        ).run(SUBSET)
        assert report.ok
        assert len(report.failures) == 0
        assert plan.fired("builder.fig5") == 1
        for artifact_id in SUBSET:
            assert report[artifact_id].text == baseline[artifact_id].text
            assert series_equal(
                report[artifact_id].series, baseline[artifact_id].series
            )

    def test_without_retry_the_same_fault_quarantines(self, corpus):
        study = Study(corpus=corpus)
        plan = _plan(FaultSpec(site="builder.fig5"))
        report = ArtifactExecutor(
            study, on_error="isolate", faults=plan
        ).run(SUBSET)
        assert report.failures.failed_ids == ("fig5",)
        assert not report.ok

    def test_retry_exhaustion_records_the_attempt_count(self, corpus):
        study = Study(corpus=corpus)
        plan = _plan(
            FaultSpec(site="builder.fig5", mode="fail", error="transient")
        )
        report = ArtifactExecutor(
            study, on_error="isolate",
            retry=RetryPolicy(attempts=3, base_delay_s=0.0),
            faults=plan,
        ).run(SUBSET)
        (record,) = list(report.failures)
        assert record.attempts == 3
        assert plan.fired("builder.fig5") == 3


class TestIsolation:
    def test_permanent_fault_quarantines_exactly_that_artifact(
        self, corpus, baseline, series_equal
    ):
        study = Study(corpus=corpus)
        report = ArtifactExecutor(
            study, on_error="isolate",
            faults=_plan(
                FaultSpec(site="builder.fig5", mode="fail", error="build")
            ),
        ).run(SUBSET)
        assert report.failures.root_ids == ("fig5",)
        assert report.failures.quarantined_ids == ()
        assert sorted(report.results) == sorted(
            fid for fid in SUBSET if fid != "fig5"
        )
        for artifact_id in report.results:
            assert series_equal(
                report[artifact_id].series, baseline[artifact_id].series
            )
        (record,) = list(report.failures)
        assert record.error_type == "BuildError"
        assert record.taxonomy == "build"

    def test_resource_failure_quarantines_dependents(self, corpus):
        study = Study(corpus=corpus)
        report = ArtifactExecutor(
            study, on_error="isolate",
            faults=_plan(
                FaultSpec(site="resource.sweep:4", mode="fail",
                          error="transient")
            ),
        ).run(SWEEP_SUBSET)
        # fig20 and fig21 both depend on sweep 4; fig18 does not.
        assert report.failures.root_ids == ("sweep:4",)
        assert set(report.failures.quarantined_ids) == {"fig20", "fig21"}
        assert sorted(report.results) == ["fig18"]
        assert report.quarantined == {"fig20": "sweep:4", "fig21": "sweep:4"}

    def test_ledger_is_reproducible_across_runs(self, corpus):
        def ledger():
            study = Study(corpus=corpus)
            return ArtifactExecutor(
                study, on_error="isolate",
                faults=_plan(
                    FaultSpec(site="resource.sweep:4", mode="fail",
                              error="transient")
                ),
            ).run(SWEEP_SUBSET).failures.signature()

        assert ledger() == ledger()

    def test_invalid_on_error_rejected(self, corpus):
        with pytest.raises(ValueError, match="on_error"):
            ArtifactExecutor(Study(corpus=corpus), on_error="ignore")

    def test_study_run_all_isolate_returns_the_report(self, corpus):
        study = Study(corpus=corpus)
        report = study.run_all(
            on_error="isolate",
            faults=_plan(
                FaultSpec(site="builder.fig5", mode="fail", error="build")
            ),
        )
        assert report.failures.failed_ids == ("fig5",)
        assert "fig3" in report.results


class TestRaiseMode:
    def test_failure_is_recorded_before_the_raise(self, corpus):
        """The ledger holds the failure even when raise mode aborts."""
        study = Study(corpus=corpus)
        executor = ArtifactExecutor(
            study,
            faults=_plan(
                FaultSpec(site="builder.fig3", mode="fail", error="build")
            ),
        )
        ledger = FailureLedger()
        with pytest.raises(BuildError):
            executor._build([REGISTRY["fig3"]], "", {}, {}, {}, ledger)
        assert ledger.root_ids == ("fig3",)
        (record,) = list(ledger)
        assert record.error_type == "BuildError"

    def test_run_raises_the_builder_error(self, corpus):
        with pytest.raises(BuildError, match="builder.fig5"):
            ArtifactExecutor(
                Study(corpus=corpus),
                faults=_plan(
                    FaultSpec(site="builder.fig5", mode="fail", error="build")
                ),
            ).run(SUBSET)


class TestTimeouts:
    def test_overrunning_builder_times_out_into_the_ledger(
        self, corpus, monkeypatch
    ):
        import repro.core.study as study_module

        def stuck(self):
            time.sleep(30.0)

        monkeypatch.setattr(study_module.Study, "_fig05", stuck)
        study = Study(corpus=corpus)
        report = ArtifactExecutor(
            study, on_error="isolate", timeout_s=0.1
        ).run(["fig5", "eq2"])
        (record,) = list(report.failures)
        assert record.artifact_id == "fig5"
        assert record.error_type == "BuildTimeout"
        assert record.taxonomy == "transient"
        assert "eq2" in report.results

    def test_invalid_timeout_rejected(self, corpus):
        with pytest.raises(ValueError, match="timeout_s"):
            ArtifactExecutor(Study(corpus=corpus), timeout_s=-1.0)


class TestCacheDegradation:
    def test_read_faults_degrade_to_misses(
        self, corpus, tmp_path, series_equal, baseline
    ):
        study = Study(corpus=corpus)
        cache = ArtifactCache(tmp_path / "store")
        ArtifactExecutor(study, cache=cache).run(SUBSET)
        plan = _plan(
            FaultSpec(site="cache.read", mode="fail-n", times=2,
                      error="cache")
        )
        cache.faults = plan
        report = ArtifactExecutor(study, cache=cache).run(SUBSET)
        assert report.ok
        assert plan.fired("cache.read") == 2
        # Two probes failed over to rebuilds; the rest hit the store.
        assert report.cache_hits == len(SUBSET) - 2
        for artifact_id in SUBSET:
            assert series_equal(
                report[artifact_id].series, baseline[artifact_id].series
            )

    def test_persistent_write_failures_disable_the_store(
        self, corpus, tmp_path
    ):
        study = Study(corpus=corpus)
        cache = ArtifactCache(
            tmp_path / "store",
            faults=_plan(
                FaultSpec(site="cache.write", mode="fail", error="os")
            ),
        )
        with pytest.warns(RuntimeWarning, match="disabled after"):
            report = ArtifactExecutor(study, cache=cache).run(SUBSET)
        assert report.ok  # the run itself never noticed
        assert cache.disabled
        assert cache.stats.write_failures >= MAX_WRITE_FAILURES
        assert cache.entries() == []

    def test_corrupt_read_evicts_and_rebuilds(self, corpus, tmp_path):
        study = Study(corpus=corpus)
        cache = ArtifactCache(tmp_path / "store")
        ArtifactExecutor(study, cache=cache).run(["fig3"])
        cache.faults = _plan(
            FaultSpec(site="cache.read", mode="corrupt", times=1)
        )
        report = ArtifactExecutor(study, cache=cache).run(["fig3"])
        assert report.ok
        assert report.cache_hits == 0
        assert cache.stats.evictions == 1
        # The rebuild rewrote the entry; a clean probe now hits.
        assert cache.get(study.fingerprint, "fig3") is not None


class TestEnsembleHardening:
    def test_jobs_must_be_positive(self):
        from repro.core.ensemble import run_ensemble

        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_ensemble([2016], jobs=0)

    def test_worker_fault_is_retried_and_masked(self):
        from repro.core.ensemble import run_ensemble

        reference = run_ensemble([2016, 2017])
        plan = _plan(FaultSpec(site="ensemble.worker", error="transient"))
        result = run_ensemble([2016, 2017], faults=plan, seed_retries=1)
        assert plan.fired("ensemble.worker") == 1
        assert result.per_seed == reference.per_seed

    def test_worker_fault_budget_exhaustion_raises(self):
        from repro.core.ensemble import run_ensemble

        plan = _plan(
            FaultSpec(site="ensemble.worker", mode="fail", error="transient")
        )
        with pytest.raises(TransientError, match="injected ensemble.worker"):
            run_ensemble([2016, 2017], faults=plan, seed_retries=1)

    def test_parallel_injection_matches_serial(self):
        from repro.core.ensemble import run_ensemble

        serial = run_ensemble(
            [2016, 2017],
            faults=_plan(FaultSpec(site="ensemble.worker")),
            seed_retries=1,
        )
        parallel = run_ensemble(
            [2016, 2017], jobs=2,
            faults=_plan(FaultSpec(site="ensemble.worker")),
            seed_retries=1,
        )
        assert serial.per_seed == parallel.per_seed

    def test_broken_pool_degrades_to_serial(self, monkeypatch):
        """A worker process that dies (not raises) breaks the pool; the
        engine restarts it up to ``pool_restarts`` times and then
        degrades to serial execution under a RuntimeWarning."""
        import os

        import repro.core.ensemble as ensemble_module

        main_pid = os.getpid()
        real = ensemble_module.claim_values

        def deadly(seed, structural_effects=True):
            if os.getpid() != main_pid:
                os._exit(1)  # kill the pool worker outright
            return real(seed, structural_effects=structural_effects)

        monkeypatch.setattr(ensemble_module, "claim_values", deadly)
        with pytest.warns(RuntimeWarning, match="degrading"):
            result = ensemble_module.run_ensemble(
                [2016, 2017], jobs=2, pool_restarts=0
            )
        assert result.seeds == (2016, 2017)
        assert result.per_seed == (real(2016), real(2017))
