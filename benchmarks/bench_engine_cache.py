"""Harness: the artifact engine's cold and warm-cache paths.

Not a paper artifact: times ``run_all`` through the execution engine
and asserts the cache contract — a warm run serves every artifact from
the content-addressed store without recomputing anything.
"""

from repro.core.executor import ArtifactExecutor
from repro.core.registry import FIGURE_IDS


def test_engine_cold_run_all(study, benchmark):
    report = benchmark(lambda: ArtifactExecutor(study).run())
    assert set(report) == set(FIGURE_IDS)
    assert report.built == len(FIGURE_IDS)


def test_engine_warm_cached_run_all(study, warm_cache, benchmark):
    report = benchmark(
        lambda: study.run_all(cache=warm_cache, report=True)
    )
    assert report.cache_hits == len(FIGURE_IDS)
    assert report.built == 0
