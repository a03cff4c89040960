"""Shared fixtures for the benchmark harness.

Each bench regenerates one paper artifact, times it with
pytest-benchmark, and asserts the artifact's shape (orderings,
monotonicity, sums, set equality).  The paper's published numbers
are rows of ``repro.core.pipeline.CLAIMS``, gated in the tier-1 suite.
The engine benches additionally get a pre-warmed artifact cache
(``warm_cache``) to measure cold-vs-warm ``run_all`` behavior.
"""

from __future__ import annotations

import pytest

from repro.core.cache import ArtifactCache
from repro.core.study import Study
from repro.dataset.synthesis import generate_corpus


@pytest.fixture(scope="session")
def corpus():
    return generate_corpus(seed=2016)


@pytest.fixture(scope="session")
def study(corpus):
    return Study(corpus=corpus)


@pytest.fixture(scope="session")
def warm_cache(study, tmp_path_factory):
    """An artifact cache pre-filled by one cold run."""
    cache = ArtifactCache(tmp_path_factory.mktemp("repro_cache"))
    study.run_all(cache=cache)
    return cache


@pytest.fixture()
def record(study, benchmark):
    """Benchmark one artifact build and return its result."""

    def run(figure_id: str):
        return benchmark(study.figure, figure_id)

    return run
