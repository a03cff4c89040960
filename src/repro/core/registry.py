"""Declarative registry of the paper's reproducible artifacts.

Every artifact is described by an :class:`ArtifactSpec`: the
:class:`~repro.core.study.Study` builder that regenerates it, a
one-line description of what the paper shows there, the shared
resources it depends on (for example the Table II hardware sweeps,
which several figures reuse), and classification tags.  The execution
engine in :mod:`repro.core.executor` consumes these specs to schedule
builds topologically and share dependency work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.study import FigureResult, Study

#: Resource key for the shared corpus (every corpus-derived artifact).
CORPUS = "corpus"


def sweep_resource(number: int) -> str:
    """The resource key for the Table II server ``number`` sweep."""
    return f"sweep:{number}"


@dataclass(frozen=True)
class ArtifactSpec:
    """One reproducible artifact: builder, description, dependencies.

    ``builder`` is either the name of a :class:`Study` method or a
    callable taking a :class:`Study` and returning a
    :class:`FigureResult`.  ``depends`` lists the shared resources the
    build consumes (``"corpus"``, ``"sweep:N"``); the executor resolves
    each resource exactly once and orders builds after their
    dependencies.  ``tags`` classify the artifact (``"figure"``,
    ``"table"``, ``"scalar"``, ``"extension"``, ...).
    """

    artifact_id: str
    builder: Union[str, Callable[["Study"], "FigureResult"]]
    description: str
    depends: Tuple[str, ...] = (CORPUS,)
    tags: Tuple[str, ...] = field(default=("figure",))

    def bind(self, study: "Study") -> Callable[[], "FigureResult"]:
        """The zero-argument build callable for ``study``."""
        if callable(self.builder):
            return lambda: self.builder(study)
        method = getattr(study, self.builder)
        return method

    @property
    def builder_name(self) -> str:
        """A printable name for the builder (method name or callable)."""
        if callable(self.builder):
            return getattr(self.builder, "__name__", repr(self.builder))
        return self.builder


def _spec(
    artifact_id: str,
    builder: str,
    description: str,
    depends: Tuple[str, ...] = (CORPUS,),
    tags: Tuple[str, ...] = ("figure",),
) -> ArtifactSpec:
    return ArtifactSpec(artifact_id, builder, description, depends, tags)


#: artifact id -> ArtifactSpec, in paper order.
REGISTRY: Dict[str, ArtifactSpec] = {
    spec.artifact_id: spec
    for spec in (
        _spec("fig1", "_fig01", "Energy proportionality curve of the 2016 exemplar (score 12212, EP~1.02)"),
        _spec("fig2", "_fig02", "EP and EE evolution by hardware availability year (scatter)"),
        _spec("fig3", "_fig03", "EP statistics trend: min/avg/median/max per year"),
        _spec("fig4", "_fig04", "EE and peak-EE statistics trend per year"),
        _spec("fig5", "_fig05", "CDF of energy proportionality"),
        _spec("fig6", "_fig06", "Server counts by CPU microarchitecture family"),
        _spec("fig7", "_fig07", "Average EP by microarchitecture codename"),
        _spec("fig8", "_fig08", "Microarchitecture mix of 2012-2016"),
        _spec("fig9", "_fig09", "Pencil-head chart: all EP curves and their envelope"),
        _spec("fig10", "_fig10", "Selected EP curves and ideal-line intersections"),
        _spec("fig11", "_fig11", "Almond chart: all relative-EE curves and their envelope"),
        _spec("fig12", "_fig12", "Selected relative-EE curves and 0.8x/1.0x crossings"),
        _spec("fig13", "_fig13", "EP and EE vs. server node count"),
        _spec("fig14", "_fig14", "EP and EE of single-node servers vs. chip count"),
        _spec("fig15", "_fig15", "2-chip single-node servers vs. all servers"),
        _spec("fig16", "_fig16", "Chronological shifting of the peak-EE utilization spot"),
        _spec("fig17", "_fig17", "Corpus EP and EE by memory-per-core configuration"),
        _spec("fig18", "_fig18", "Server #1: EE vs. memory-per-core and frequency",
              depends=(sweep_resource(1),), tags=("figure", "testbed")),
        _spec("fig19", "_fig19", "Server #2: EE vs. memory-per-core and frequency",
              depends=(sweep_resource(2),), tags=("figure", "testbed")),
        _spec("fig20", "_fig20", "Server #4: EE vs. memory-per-core and frequency",
              depends=(sweep_resource(4),), tags=("figure", "testbed")),
        _spec("fig21", "_fig21", "Server #4: EE and peak power vs. frequency and memory",
              depends=(sweep_resource(4),), tags=("figure", "testbed")),
        _spec("table1", "_table1", "Memory-per-core statistics of the published servers",
              tags=("table",)),
        _spec("table2", "_table2", "Base configuration of the tested 2U servers",
              depends=(), tags=("table", "testbed")),
        _spec("eq2", "_eq2", "Idle-power regression (Eq. 2) and corr(EP, idle)",
              tags=("scalar",)),
        _spec("reorg", "_reorg", "Published-year vs. hardware-availability-year deltas",
              tags=("scalar",)),
        _spec("asynchrony", "_asynchrony", "EP/EE top-decile asynchrony (Section IV.B)",
              tags=("scalar",)),
        _spec("placement", "_placement", "EP-aware placement vs. pack-to-full (Section V.C)",
              tags=("scalar", "cluster")),
        _spec("wong", "_wong", "Peak-spot shares vs. Wong ISCA'16's ~60% claim (Section VI)",
              tags=("scalar",)),
        # -- extensions beyond the paper's figures (related work + future work) --
        _spec("gap", "_gap", "Proportionality-gap trend and low-utilization lag (Wong & Annavaram)",
              tags=("extension",)),
        _spec("metric_family", "_metric_family", "EP/ER/IPR/LD/PG rank-correlation matrix (Hsu & Poole)",
              tags=("extension",)),
        _spec("forecast", "_forecast", "EP headroom (Eq. 2) and peak-spot drift projections",
              tags=("extension",)),
        _spec("workloads", "_workloads", "Per-workload EP/EE characterization of server #4 (future work)",
              depends=(), tags=("extension", "testbed")),
        _spec("trace", "_trace", "Diurnal-trace placement: daily energy per policy (Section V.C)",
              tags=("extension", "cluster")),
        _spec("jobs", "_jobs", "Job-granular scheduling: peak-spot-aware vs first-fit (Wong ISCA'16)",
              tags=("extension", "cluster")),
        _spec("procurement", "_procurement", "Capacity planning: peak EE is the wrong buying criterion (Section I)",
              tags=("extension", "cluster")),
        _spec("prior_work", "_prior_work", "Prior-work windows re-examined: the 0.83 -> 0.741 correlation drift",
              tags=("extension",)),
    )
}

#: Artifact ids in paper order.
FIGURE_IDS = tuple(REGISTRY)


def register(spec: ArtifactSpec) -> ArtifactSpec:
    """Register an additional artifact (extension point for new studies).

    The id must be new and the builder resolvable; returns the spec so
    the call can be used as a decorator helper.
    """
    if spec.artifact_id in REGISTRY:
        raise ValueError(f"artifact {spec.artifact_id!r} already registered")
    if not spec.artifact_id:
        raise ValueError("artifact id must be non-empty")
    REGISTRY[spec.artifact_id] = spec
    return spec


def description_of(artifact_id: str) -> str:
    """The registered one-line description for ``artifact_id``."""
    return REGISTRY[artifact_id].description
