"""Serial artifact execution engine with caching, retries, isolation.

:class:`ArtifactExecutor` turns the declarative registry
(:mod:`repro.core.registry`) into an execution plan:

1. every requested artifact is first probed against the
   content-addressed cache (:mod:`repro.core.cache`) — hits skip both
   the build *and* its dependencies;
2. the remaining artifacts and the shared resources they declare
   (``"corpus"``, ``"sweep:N"``) form a dependency graph that is
   walked in topological order on the calling thread, so a sweep
   shared by several figures (e.g. server #4 feeding fig20 and fig21)
   is computed exactly once, before any artifact that reads it;
3. every build is timed, and the :class:`RunReport` returned by
   :meth:`ArtifactExecutor.run` carries per-artifact wall time and
   cache-hit flags next to the results.

Failure semantics (:mod:`repro.core.resilience`) are explicit:

* ``retry=RetryPolicy(...)`` retries transient per-node failures on a
  bounded, deterministic (seeded-jitter) backoff schedule;
* ``timeout_s`` puts a wall-clock budget on every node;
* ``on_error="raise"`` (default) records the first unrecovered
  failure in the ledger and re-raises it;
* ``on_error="isolate"`` quarantines the failing node plus its
  downstream dependents, finishes everything else, and returns a
  partial report whose :attr:`RunReport.failures` ledger records every
  root failure and quarantine;
* a ``faults=FaultPlan(...)`` threads the deterministic fault harness
  (:mod:`repro.core.faults`) through every ``builder.<id>`` /
  ``resource.<key>`` site, which is how all of the above is tested.

The walk is serial.  The builders are GIL-bound Python, so a thread
pool over them measured no faster than this loop.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from graphlib import TopologicalSorter
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Union,
)

from repro.core.cache import ArtifactCache
from repro.core.faults import FaultPlan, fire
from repro.core.registry import CORPUS, FIGURE_IDS, REGISTRY, ArtifactSpec
from repro.core.resilience import (
    FailureLedger,
    RetryPolicy,
    failure_record,
    quarantine_record,
    run_with_timeout,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.study import FigureResult, Study

#: The recognized ``on_error`` modes of :meth:`ArtifactExecutor.run`.
ON_ERROR_MODES = ("raise", "isolate")


@dataclass(frozen=True)
class ArtifactMetric:
    """Build observability for one artifact in one run."""

    artifact_id: str
    seconds: float
    cache_hit: bool

    @property
    def source(self) -> str:
        """Where the result came from: ``"cache"`` or ``"built"``."""
        return "cache" if self.cache_hit else "built"


@dataclass(frozen=True)
class _NodeFailure:
    """Internal: one node's unrecovered failure, with retry context."""

    error: BaseException
    attempts: int
    elapsed_s: float


@dataclass
class RunReport(Mapping):
    """Results plus per-artifact metrics for one engine run.

    Behaves as a read-only mapping of ``artifact id -> FigureResult``
    (so existing ``run_all()`` consumers can iterate it unchanged) and
    additionally exposes ``metrics``, resource timings, the
    ``failures`` ledger of an isolate-mode run, and a :meth:`render`
    summary table.
    """

    results: Dict[str, "FigureResult"]
    metrics: Dict[str, ArtifactMetric]
    resource_seconds: Dict[str, float]
    total_seconds: float
    cache_dir: Optional[str] = None
    failures: FailureLedger = field(default_factory=FailureLedger)
    on_error: str = "raise"

    def __getitem__(self, artifact_id: str) -> "FigureResult":
        return self.results[artifact_id]

    def __iter__(self) -> Iterator[str]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def cache_hits(self) -> int:
        """How many artifacts were served from the cache."""
        return sum(1 for metric in self.metrics.values() if metric.cache_hit)

    @property
    def built(self) -> int:
        """How many artifacts were computed this run."""
        return len(self.metrics) - self.cache_hits

    @property
    def ok(self) -> bool:
        """Whether every requested artifact was produced."""
        return not self.failures

    @property
    def quarantined(self) -> Dict[str, str]:
        """Quarantined artifact id -> the root failure that caused it."""
        return {
            record.artifact_id: record.quarantined_by or ""
            for record in self.failures
            if record.is_quarantine
        }

    def render(self) -> str:
        """A terminal table of per-artifact timings and sources."""
        from repro.viz.tables import format_table

        rows = [
            [metric.artifact_id, metric.source, metric.seconds * 1000.0]
            for metric in self.metrics.values()
        ]
        table = format_table(
            ["artifact", "source", "ms"],
            rows,
            title=f"engine run: {len(self.results)} artifacts, "
            f"{self.cache_hits} cached",
            float_format="{:.2f}",
        )
        summary = (
            f"total {self.total_seconds * 1000.0:.1f} ms"
            + (f", cache at {self.cache_dir}" if self.cache_dir else ", cache off")
        )
        if self.resource_seconds:
            shared = ", ".join(
                f"{name} {seconds * 1000.0:.1f} ms"
                for name, seconds in self.resource_seconds.items()
                if name != CORPUS
            )
            if shared:
                summary += f"\nshared resources: {shared}"
        if self.failures:
            summary += "\n" + self.failures.render()
        return table + "\n" + summary


class ArtifactExecutor:
    """Schedules artifact builds for one :class:`Study`.

    ``cache`` is an :class:`ArtifactCache` keyed on the study's corpus
    fingerprint, ``True`` for the default store, or ``False``/``None``
    for no caching.  ``on_error``, ``retry``, ``timeout_s``, and
    ``faults`` select the failure semantics (see the module
    docstring).  Repeated runs produce identical results *and
    identical failure ledgers*: the walk order is a function of the
    registry and retry jitter is seeded.
    """

    def __init__(self, study: "Study",
                 cache: Union[bool, ArtifactCache, None] = None,
                 on_error: str = "raise",
                 retry: Optional[RetryPolicy] = None,
                 timeout_s: Optional[float] = None,
                 faults: Optional[FaultPlan] = None):
        self.study = study
        if isinstance(cache, bool):
            cache = ArtifactCache() if cache else None
        self.cache = cache
        if on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_MODES}, got {on_error!r}"
            )
        self.on_error = on_error
        self.retry = retry
        if timeout_s is not None and timeout_s <= 0.0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        self.timeout_s = timeout_s
        self.faults = faults
        if (faults is not None and self.cache is not None
                and self.cache.faults is None):
            self.cache.faults = faults

    # -- graph construction -------------------------------------------------------

    def _specs(self, artifact_ids: Optional[Sequence[str]]) -> List[ArtifactSpec]:
        ids = list(FIGURE_IDS) if artifact_ids is None else list(artifact_ids)
        unknown = [fid for fid in ids if fid not in REGISTRY]
        if unknown:
            raise KeyError(f"unknown artifact(s) {unknown!r}")
        return [REGISTRY[fid] for fid in ids]

    def _resolve_resource(self, key: str) -> None:
        """Materialize one shared resource on the study (memoized there)."""
        if key == CORPUS:
            self.study.corpus  # already materialized at construction
        elif key.startswith("sweep:"):
            self.study._sweep(int(key.split(":", 1)[1]))
        else:
            raise KeyError(f"unknown resource {key!r}")

    # -- execution ----------------------------------------------------------------

    def run(self, artifact_ids: Optional[Sequence[str]] = None) -> RunReport:
        """Regenerate the requested artifacts (all of them by default)."""
        started = time.perf_counter()
        specs = self._specs(artifact_ids)
        results: Dict[str, "FigureResult"] = {}
        metrics: Dict[str, ArtifactMetric] = {}
        resource_seconds: Dict[str, float] = {}
        failures = FailureLedger()

        fingerprint = self.study.fingerprint if self.cache is not None else ""
        to_build: List[ArtifactSpec] = []
        for spec in specs:
            if self.cache is not None:
                probe_started = time.perf_counter()
                cached = self.cache.get(fingerprint, spec.artifact_id)
                if cached is not None:
                    results[spec.artifact_id] = cached
                    metrics[spec.artifact_id] = ArtifactMetric(
                        spec.artifact_id,
                        time.perf_counter() - probe_started,
                        cache_hit=True,
                    )
                    continue
            to_build.append(spec)

        if to_build:
            self._build(to_build, fingerprint, results, metrics,
                        resource_seconds, failures)

        ordered_ids = [spec.artifact_id for spec in specs]
        return RunReport(
            results={fid: results[fid] for fid in ordered_ids
                     if fid in results},
            metrics={fid: metrics[fid] for fid in ordered_ids
                     if fid in metrics},
            resource_seconds=resource_seconds,
            total_seconds=time.perf_counter() - started,
            cache_dir=str(self.cache.root) if self.cache is not None else None,
            failures=failures,
            on_error=self.on_error,
        )

    # -- node execution -----------------------------------------------------------

    def _site(self, node: str, build_ids: Set[str]) -> str:
        return f"builder.{node}" if node in build_ids else f"resource.{node}"

    def _run_node(self, node: str, build_ids: Set[str], fingerprint: str,
                  results: Dict[str, "FigureResult"],
                  metrics: Dict[str, ArtifactMetric],
                  resource_seconds: Dict[str, float]) -> Optional[_NodeFailure]:
        """Build one node with retry/timeout; never raises.

        Returns ``None`` on success, else the :class:`_NodeFailure`
        carrying the final exception and the attempt count — the
        walk decides whether that aborts the run or quarantines a
        subgraph.
        """
        site = self._site(node, build_ids)
        started = time.perf_counter()
        attempts = 0
        while True:
            attempts += 1
            try:
                fire(site, self.faults)
                if node in build_ids:
                    builder = REGISTRY[node].bind(self.study)
                    result = run_with_timeout(builder, self.timeout_s, site)
                    elapsed = time.perf_counter() - started
                    if self.cache is not None:
                        self.cache.put(fingerprint, node, result)
                    results[node] = result
                    metrics[node] = ArtifactMetric(
                        node, elapsed, cache_hit=False
                    )
                else:
                    run_with_timeout(
                        lambda: self._resolve_resource(node),
                        self.timeout_s, site,
                    )
                    resource_seconds[node] = time.perf_counter() - started
                return None
            except Exception as exc:
                if (self.retry is not None and attempts < self.retry.attempts
                        and self.retry.retryable(exc)):
                    time.sleep(self.retry.delay_s(site, attempts))
                    continue
                return _NodeFailure(
                    exc, attempts, time.perf_counter() - started
                )

    # -- the walk -----------------------------------------------------------------

    def _build(self, specs: List[ArtifactSpec], fingerprint: str,
               results: Dict[str, "FigureResult"],
               metrics: Dict[str, ArtifactMetric],
               resource_seconds: Dict[str, float],
               failures: FailureLedger) -> None:
        """Build ``specs`` and their resources in topological order.

        A node failure is recorded in ``failures``.  In ``raise`` mode
        its exception is then re-raised; in ``isolate`` mode every
        transitive dependent of the failed node is quarantined
        (recorded in the ledger and skipped) and the walk goes on.
        """
        build_ids = {spec.artifact_id for spec in specs}
        graph: Dict[str, Set[str]] = {}
        for spec in specs:
            graph[spec.artifact_id] = set(spec.depends)
            for resource in spec.depends:
                graph.setdefault(resource, set())
        # Reverse adjacency: node -> the nodes that depend on it.
        children: Dict[str, Set[str]] = {node: set() for node in graph}
        for node, depends in graph.items():
            for dependency in depends:
                children[dependency].add(node)
        quarantined: Dict[str, str] = {}

        for node in TopologicalSorter(graph).static_order():
            if node in quarantined:
                continue
            failure = self._run_node(
                node, build_ids, fingerprint, results, metrics,
                resource_seconds,
            )
            if failure is None:
                continue
            failures.add(failure_record(
                node, failure.error, failure.attempts, failure.elapsed_s,
            ))
            if self.on_error == "raise":
                raise failure.error
            stack = [node]
            while stack:
                current = stack.pop()
                for child in sorted(children[current]):
                    if child in quarantined or child == node:
                        continue
                    quarantined[child] = node
                    if child in build_ids:
                        failures.add(quarantine_record(child, node))
                    stack.append(child)
