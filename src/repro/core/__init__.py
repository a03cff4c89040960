"""The study pipeline: one call per paper figure or table.

:class:`~repro.core.study.Study` owns a corpus (generated or supplied)
and exposes a ``figure(id)`` / ``run_all()`` API whose results carry
both the raw data series and a plain-text rendering.  The declarative
registry in :mod:`repro.core.registry` maps every artifact of the
paper (Figs. 1-21, Tables I-II, Eq. 2, and the scalar findings) to an
:class:`~repro.core.registry.ArtifactSpec`; the execution engine in
:mod:`repro.core.executor` walks those specs in topological order
and, through :mod:`repro.core.cache`, serves repeat builds from a
content-addressed on-disk store.
"""

from repro.core.cache import ArtifactCache, CacheStats, ENGINE_VERSION
from repro.core.ensemble import (
    EnsembleResult,
    MetricSummary,
    claim_values,
    run_ensemble,
)
from repro.core.executor import ArtifactExecutor, ArtifactMetric, RunReport
from repro.core.registry import FIGURE_IDS, REGISTRY, ArtifactSpec, register
from repro.core.study import FigureResult, Study

__all__ = [
    "ENGINE_VERSION",
    "FIGURE_IDS",
    "REGISTRY",
    "ArtifactCache",
    "ArtifactExecutor",
    "ArtifactMetric",
    "ArtifactSpec",
    "CacheStats",
    "EnsembleResult",
    "FigureResult",
    "MetricSummary",
    "RunReport",
    "Study",
    "claim_values",
    "register",
    "run_ensemble",
]
