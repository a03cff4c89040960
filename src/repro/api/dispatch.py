"""One dispatch table for every query path (CLI, Study, daemon).

:func:`execute` is the single entry point: it looks up the fleet
engine a fleet-family request will run on (provenance records which
one served the query; the choice never reaches the spec key), probes
the content-addressed artifact cache under the same fingerprint+spec
key the executor uses, routes the request to its family handler, and
wraps the answer in a :class:`~repro.api.result.QueryResult` envelope.

:class:`QueryContext` is the warm state a long-lived process (the
:mod:`repro.serve` daemon, a REPL session) shares across queries:
corpora, corpus slices, studies, tiled fleets, fleet engines, trace
replayers, fleet capacities and CDF landmarks, all memoized under one
lock so concurrent executor threads build each at most once; the
per-cohort memos are a bounded LRU.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Type

from repro.api.requests import (
    ArtifactQuery,
    CacheQuery,
    CapQuery,
    CdfQuery,
    EnsembleQuery,
    FAMILIES,
    FLEET_FAMILIES,
    GenerateQuery,
    GroupQuery,
    ListArtifactsQuery,
    PlacementQuery,
    QueryRequest,
    ReplayQuery,
    ReportQuery,
    RunAllQuery,
    SweepQuery,
    StatsQuery,
    ValidateQuery,
    spec_suffix,
)
from repro.api.result import API_VERSION, Provenance, QueryResult
from repro.core.cache import (
    DEFAULT_CACHE_DIR,
    ENGINE_VERSION,
    ArtifactCache,
    cache_key,
)
from repro.dataset.synthesis import generate_corpus


@dataclass
class Built:
    """What a family handler produced, before envelope wrapping."""

    payload: Dict[str, Any]
    text: str
    exit_code: int = 0
    artifact: Optional[Any] = None  # FigureResult persisted for run_all reuse


Handler = Callable[[QueryRequest, "QueryContext"], Built]

#: request type -> handler, the one dispatch table.
DISPATCH: Dict[Type[QueryRequest], Handler] = {}


def handler(request_type: Type[QueryRequest]) -> Callable[[Handler], Handler]:
    """Register a family handler in :data:`DISPATCH`."""

    def register(fn: Handler) -> Handler:
        DISPATCH[request_type] = fn
        return fn

    return register


def build_artifact(study: Any, figure_id: str) -> Any:
    """The canonical artifact build: registry spec bound to a study.

    Both :meth:`repro.core.study.Study.figure` and the artifact query
    handler go through here, so there is exactly one build path.
    """
    from repro.core.registry import REGISTRY

    if figure_id not in REGISTRY:
        raise KeyError(f"unknown artifact {figure_id!r}")
    return REGISTRY[figure_id].bind(study)()


#: The identity of a fleet cohort: seed, hardware-year bounds, servers.
FleetKey = Tuple[int, Optional[int], Optional[int], Optional[int]]

#: How many fleet cohorts a context keeps warm.  Every positive
#: ``servers`` value is a new cohort, so the cohort memos are an LRU;
#: the serve benchmark's mix touches about 28.
MAX_COHORTS = 64

#: How many seeds a context keeps warm.  Each seed holds a whole corpus
#: plus its slices, study, CDF landmarks and fleet cohorts, and every
#: non-negative integer is a valid seed, so the seed memos are an LRU
#: too.  A pinned seed (see :class:`QueryContext`) is never evicted.
MAX_SEEDS = 4

#: The process's generated corpora, seed -> ``Corpus``: a corpus is a
#: pure function of its seed, so every context attaches the one object
#: (and its memoized fingerprint and column store) instead of
#: regenerating it.  The same :data:`MAX_SEEDS` LRU bounds it.  Only
#: :func:`shared_corpus` writes it; an adopted study's corpus never
#: enters it.
_CORPORA: "OrderedDict[int, Any]" = OrderedDict()
_CORPORA_LOCK = threading.Lock()


def _reset_corpora_lock() -> None:
    """A forked child starts with the store lock free: a thread that
    held it in the parent does not exist in the child."""
    global _CORPORA_LOCK
    _CORPORA_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_reset_corpora_lock)


def shared_corpus(seed: int) -> Any:
    """The process's corpus for ``seed``, generated on first use."""
    with _CORPORA_LOCK:
        if seed in _CORPORA:
            _CORPORA.move_to_end(seed)
        else:
            _CORPORA[seed] = generate_corpus(seed)
            while len(_CORPORA) > MAX_SEEDS:
                _CORPORA.popitem(last=False)
        return _CORPORA[seed]


class QueryContext:
    """Warm, shareable state for executing queries.

    Everything is memoized under one re-entrant lock: corpora (per
    seed), filtered corpus slices, studies, tiled fleets, fleet engines
    and trace replayers, fleet capacities, CDF landmarks (per slice and
    metric), diurnal traces, and testbed sweeps.  A single
    context handed to concurrent executor threads builds each of these
    at most once -- which is what makes the daemon's batching window
    collapse a group of compatible fleet queries into one engine
    construction.

    The per-cohort memos (fleet, engine, replayer, capacity) share one
    least-recently-used order of at most :data:`MAX_COHORTS` cohorts
    and are evicted together, so a stream of distinct ``servers``
    values cannot grow a long-lived daemon without bound.  An evicted
    cohort is rebuilt on its next query, with the same answers.  The
    per-seed memos (corpus, slices, study, CDF landmarks, and that
    seed's cohorts) likewise share one order of at most
    :data:`MAX_SEEDS` seeds.  ``seed`` -- the seed a daemon or worker
    is warmed for -- and the seed of an adopted study are pinned: never
    evicted, so a warm corpus is never rebuilt and an adopted corpus
    never replaced by a generated one.

    A fresh context does not regenerate a corpus: it attaches the
    process's corpus for the seed (:func:`shared_corpus`), so it also
    shares that corpus's memoized fingerprint and column store.  An
    adopted study's corpus stays in its own context, and
    ``Study(seed=...)`` still generates its own corpus.
    """

    def __init__(
        self, cache: Optional[ArtifactCache] = None, seed: Optional[int] = None
    ):
        self.cache = cache
        self._lock = threading.RLock()
        self._seeds: "OrderedDict[int, None]" = OrderedDict()
        self._pinned: Set[int] = set() if seed is None else {seed}
        self._corpora: Dict[int, Any] = {}
        self._slices: Dict[Tuple[int, Optional[int], Optional[int]], Any] = {}
        self._studies: Dict[int, Any] = {}
        self._cohorts: "OrderedDict[FleetKey, None]" = OrderedDict()
        self._fleets: Dict[FleetKey, List[Any]] = {}
        self._engines: Dict[FleetKey, Any] = {}
        self._replayers: Dict[FleetKey, Any] = {}
        self._capacities: Dict[FleetKey, float] = {}
        self._cdfs: Dict[Tuple[int, Optional[int], Optional[int], str], Any] = {}
        self._traces: Dict[int, Any] = {}
        self._sweeps: Dict[int, Any] = {}

    def _touch_seed(self, seed: int) -> None:
        """Mark ``seed`` most recently used; past :data:`MAX_SEEDS`,
        forget the oldest unpinned seed from every per-seed memo."""
        if seed in self._seeds:
            self._seeds.move_to_end(seed)
            return
        self._seeds[seed] = None
        unpinned = [s for s in self._seeds if s not in self._pinned and s != seed]
        for oldest in unpinned[: max(0, len(self._seeds) - MAX_SEEDS)]:
            del self._seeds[oldest]
            self._corpora.pop(oldest, None)
            self._studies.pop(oldest, None)
            for memo in (self._slices, self._cdfs):
                for key in [key for key in memo if key[0] == oldest]:
                    del memo[key]
            for cohort in [key for key in self._cohorts if key[0] == oldest]:
                self._evict_cohort(cohort)

    def corpus(self, seed: int) -> Any:
        """The calibrated corpus for ``seed``: an adopted study's, else
        the process's (see :func:`shared_corpus`)."""
        with self._lock:
            self._touch_seed(seed)
            if seed not in self._corpora:
                self._corpora[seed] = shared_corpus(seed)
            return self._corpora[seed]

    def corpus_slice(
        self, seed: int, hw_year_min: Optional[int], hw_year_max: Optional[int]
    ) -> Any:
        """A hardware-year slice of the seeded corpus (memoized)."""
        key = (seed, hw_year_min, hw_year_max)
        with self._lock:
            self._touch_seed(seed)
            if key not in self._slices:
                corpus = self.corpus(seed)
                if hw_year_min is not None or hw_year_max is not None:
                    corpus = corpus.by_hw_year_range(
                        hw_year_min if hw_year_min is not None else -(10**6),
                        hw_year_max if hw_year_max is not None else 10**6,
                    )
                self._slices[key] = corpus
            return self._slices[key]

    def study(self, request: QueryRequest) -> Any:
        """A :class:`Study` over the request's corpus (memoized)."""
        seed = request.seed
        with self._lock:
            self._touch_seed(seed)
            if seed not in self._studies:
                from repro.core.study import Study

                self._studies[seed] = Study(corpus=self.corpus(seed), seed=seed)
            return self._studies[seed]

    def adopt_study(self, study: Any) -> None:
        """Register an existing study (and its corpus) in the memos,
        pinned under its seed."""
        with self._lock:
            self._pinned.add(study.seed)
            self._touch_seed(study.seed)
            self._corpora.setdefault(study.seed, study.corpus)
            self._studies.setdefault(study.seed, study)

    # -- fleet machinery ---------------------------------------------------------

    @staticmethod
    def fleet_key(request: QueryRequest) -> FleetKey:
        """The cohort identity of a fleet-family request."""
        servers = getattr(request, "servers", None)
        return (
            request.seed,
            getattr(request, "hw_year_min"),
            getattr(request, "hw_year_max"),
            servers,
        )

    def _touch(self, key: FleetKey) -> None:
        """Mark ``key`` (and its seed) most recently used; evict the
        oldest cohort past :data:`MAX_COHORTS` from every cohort memo at
        once."""
        self._touch_seed(key[0])
        self._cohorts[key] = None
        self._cohorts.move_to_end(key)
        while len(self._cohorts) > MAX_COHORTS:
            self._evict_cohort(next(iter(self._cohorts)))

    def _evict_cohort(self, key: FleetKey) -> None:
        del self._cohorts[key]
        for memo in (self._fleets, self._engines, self._replayers, self._capacities):
            memo.pop(key, None)

    def fleet(self, request: QueryRequest) -> List[Any]:
        """The (optionally tiled) server cohort of a fleet request."""
        key = self.fleet_key(request)
        with self._lock:
            self._touch(key)
            if key not in self._fleets:
                seed, year_min, year_max, servers = key
                base = self.corpus_slice(seed, year_min, year_max).results()
                if not base:
                    raise ValueError(
                        f"empty fleet cohort: hw years {year_min}-{year_max}"
                    )
                if servers is not None:
                    from repro.cluster.fleet_arrays import tile_fleet

                    base = tile_fleet(base, servers)
                self._fleets[key] = base
            return self._fleets[key]

    def engine(self, request: QueryRequest) -> Any:
        """The engine for the request's fleet.

        Looked up once per cohort through
        :func:`repro.cluster.engines.fleet_engine`, so every execution
        path agrees on the engine and its construction is shared
        across a batch group.
        """
        key = self.fleet_key(request)
        with self._lock:
            self._touch(key)
            if key not in self._engines:
                from repro.cluster.engines import fleet_engine

                self._engines[key] = fleet_engine(self.fleet(request))
            return self._engines[key]

    def fleet_capacity(self, request: QueryRequest) -> float:
        """The full-load capacity of :meth:`fleet`, folded once per cohort."""
        key = self.fleet_key(request)
        with self._lock:
            self._touch(key)
            if key not in self._capacities:
                from repro.cluster.fleet_arrays import (
                    TiledFleetView,
                    streamed_level_capacity,
                )

                fleet = self.fleet(request)
                # A tiled view folds over base-cycle repeats instead of
                # cloning a million records.
                records = (
                    fleet.base if isinstance(fleet, TiledFleetView) else fleet
                )
                self._capacities[key] = streamed_level_capacity(
                    records, len(fleet)
                )
            return self._capacities[key]

    def replayer(self, request: QueryRequest) -> Any:
        """The trace replayer over :meth:`engine` (memoized)."""
        key = self.fleet_key(request)
        with self._lock:
            self._touch(key)
            if key not in self._replayers:
                from repro.cluster.engines import trace_replayer

                self._replayers[key] = trace_replayer(self.engine(request))
            return self._replayers[key]

    def cdf_landmarks(self, request: QueryRequest) -> Any:
        """The sorted CDF of the request's metric over its corpus slice,
        with its quantile and decile landmarks (memoized)."""
        key = (
            request.seed,
            getattr(request, "hw_year_min", None),
            getattr(request, "hw_year_max", None),
            request.metric,
        )
        with self._lock:
            self._touch_seed(request.seed)
            if key not in self._cdfs:
                from repro.analysis.cdf import cdf_landmarks

                values = _metric_values(request, self)
                self._cdfs[key] = cdf_landmarks(values.tolist())
            return self._cdfs[key]

    def trace(self, steps: int) -> Any:
        """The deterministic diurnal trace with ``steps`` steps."""
        with self._lock:
            if steps not in self._traces:
                from repro.cluster.trace import diurnal_trace

                self._traces[steps] = diurnal_trace(
                    steps_per_day=steps, noise=0.0
                )
            return self._traces[steps]

    def sweep(self, number: int) -> Any:
        """The Table II sweep for testbed server ``number`` (memoized)."""
        with self._lock:
            if number not in self._sweeps:
                from repro.hwexp.sweeps import run_sweep
                from repro.hwexp.testbed import TESTBED

                self._sweeps[number] = run_sweep(TESTBED[number])
            return self._sweeps[number]


def execute(
    request: QueryRequest,
    context: Optional[QueryContext] = None,
    cache: Optional[ArtifactCache] = None,
) -> QueryResult:
    """Answer one request through the dispatch table.

    Order matters: a fleet family's engine is looked up first (so
    provenance names it even on a cache hit), then the spec key is
    derived and the disk cache probed, and only on a miss does the
    family handler run.  Cacheable non-artifact results
    are persisted as pickled :class:`QueryResult` envelopes; artifact
    results are persisted as plain ``FigureResult`` objects so they
    share entries with ``Study.run_all`` warm caches.

    Without a ``context`` the request runs in a fresh one, which
    attaches the process's corpus for the seed (generated on the first
    such call, see :func:`shared_corpus`) rather than regenerating it.
    """
    if context is None:
        context = QueryContext(cache=cache)
    family_handler = DISPATCH.get(type(request))
    if family_handler is None:
        raise ValueError(
            f"no handler registered for {type(request).__name__}"
        )
    started = time.perf_counter()
    backend = "-"
    if type(request).family in FLEET_FAMILIES:
        from repro.cluster.engines import engine_name

        backend = engine_name(context.engine(request))
    fingerprint = (
        context.corpus(request.seed).fingerprint()
        if type(request).needs_corpus
        else ""
    )
    suffix = spec_suffix(request)
    spec_key = cache_key(fingerprint, suffix, ENGINE_VERSION)
    store = context.cache if type(request).cacheable else None

    built: Optional[Built] = None
    cache_hit = False
    if store is not None:
        hit = store.get(fingerprint, suffix)
        if hit is not None:
            cache_hit = True
            if isinstance(hit, QueryResult):
                built = Built(
                    payload=hit.payload, text=hit.text, exit_code=hit.exit_code
                )
            else:  # a FigureResult written by the artifact executor
                built = _artifact_built(request, hit)
    if built is None:
        built = family_handler(request, context)

    elapsed_ms = (time.perf_counter() - started) * 1000.0
    provenance = Provenance(
        fingerprint=fingerprint,
        spec_key=spec_key,
        engine_version=ENGINE_VERSION,
        api_version=API_VERSION,
        fleet_backend=backend,
        cache_hit=cache_hit,
        wall_time_ms=elapsed_ms,
    )
    result = QueryResult(
        family=type(request).family,
        payload=built.payload,
        text=built.text,
        provenance=provenance,
        exit_code=built.exit_code,
    )
    if store is not None and not cache_hit and built.exit_code == 0:
        store.put(
            fingerprint,
            suffix,
            built.artifact if built.artifact is not None else result,
        )
    return result


# -- family handlers -----------------------------------------------------------


@handler(ListArtifactsQuery)
def _handle_list(request: QueryRequest, context: QueryContext) -> Built:
    """Enumerate the registry, matching the classic ``repro list``."""
    from repro.core.registry import REGISTRY

    width = max(len(figure_id) for figure_id in REGISTRY)
    lines = [
        f"{figure_id:<{width}}  {spec.description}"
        for figure_id, spec in REGISTRY.items()
    ]
    payload = {
        "artifacts": [
            {
                "id": figure_id,
                "description": spec.description,
                "tags": list(spec.tags),
                "depends": list(spec.depends),
            }
            for figure_id, spec in REGISTRY.items()
        ]
    }
    return Built(payload=payload, text="\n".join(lines))


def _artifact_built(request: QueryRequest, figure) -> Built:
    payload = {
        "artifact_id": figure.figure_id,
        "title": figure.title,
        "series": figure.series,
        "text": figure.text,
    }
    text = f"== {figure.figure_id}: {figure.title} ==\n{figure.text}"
    return Built(payload=payload, text=text, artifact=figure)


@handler(ArtifactQuery)
def _handle_artifact(request: ArtifactQuery, context: QueryContext) -> Built:
    """Regenerate one artifact via the canonical registry build."""
    figure = build_artifact(context.study(request), request.artifact_id)
    return _artifact_built(request, figure)


def _metric_values(request, context: QueryContext):
    corpus = context.corpus_slice(
        request.seed,
        getattr(request, "hw_year_min", None),
        getattr(request, "hw_year_max", None),
    )
    if len(corpus) == 0:
        raise ValueError("empty corpus slice for the requested year range")
    return corpus.columns().array(request.metric)


@handler(StatsQuery)
def _handle_stats(request: StatsQuery, context: QueryContext) -> Built:
    """Summary statistics of one metric over a corpus slice."""
    import numpy as np

    values = _metric_values(request, context)
    payload = {
        "metric": request.metric,
        "hw_year_min": request.hw_year_min,
        "hw_year_max": request.hw_year_max,
        "count": int(values.size),
        "mean": float(np.mean(values)),
        "median": float(np.median(values)),
        "min": float(np.min(values)),
        "max": float(np.max(values)),
        "std": float(np.std(values)),
    }
    span = (
        f" [hw {request.hw_year_min}-{request.hw_year_max}]"
        if request.hw_year_min is not None or request.hw_year_max is not None
        else ""
    )
    text = (
        f"{request.metric} over {payload['count']} result(s){span}:\n"
        f"  mean {payload['mean']:.4f}  median {payload['median']:.4f}  "
        f"min {payload['min']:.4f}  max {payload['max']:.4f}  "
        f"std {payload['std']:.4f}"
    )
    return Built(payload=payload, text=text)


@handler(CdfQuery)
def _handle_cdf(request: CdfQuery, context: QueryContext) -> Built:
    """Empirical-CDF quantiles, decile bands, optional [lo, hi) share."""
    landmarks = context.cdf_landmarks(request)
    count = len(landmarks.cdf.sorted_values)
    # Fresh dicts and lists per answer: the memoized landmarks are shared.
    quantiles = dict(landmarks.quantiles)
    deciles = [
        {"lo": lo, "hi": hi, "share": share}
        for lo, hi, share in landmarks.deciles
    ]
    payload: Dict[str, Any] = {
        "metric": request.metric,
        "count": count,
        "quantiles": quantiles,
        "deciles": deciles,
    }
    lines = [f"{request.metric} CDF over {count} result(s):"]
    lines.append(
        "  " + "  ".join(f"{k} {v:.4f}" for k, v in quantiles.items())
    )
    if request.lo is not None and request.hi is not None:
        share = landmarks.cdf.share_in(request.lo, request.hi)
        payload["band"] = {"lo": request.lo, "hi": request.hi, "share": share}
        lines.append(
            f"  share in [{request.lo:g}, {request.hi:g}): {share:.2%}"
        )
    return Built(payload=payload, text="\n".join(lines))


@handler(GroupQuery)
def _handle_group(request: GroupQuery, context: QueryContext) -> Built:
    """Population and EP/EE breakdown under one grouping key."""
    from repro.analysis.grouping import (
        codename_ep_table,
        family_table,
        memory_per_core_table,
    )
    from repro.viz.tables import format_table

    corpus = context.corpus(request.seed)
    tables = {
        "family": family_table,
        "codename": codename_ep_table,
        "memory_per_core": memory_per_core_table,
    }
    stats = tables[request.by](corpus)
    payload = {
        "by": request.by,
        "groups": [
            {
                "label": stat.label,
                "count": stat.count,
                "ep_mean": stat.ep.mean,
                "score_mean": stat.score.mean,
            }
            for stat in stats
        ],
    }
    rows = [
        [stat.label, stat.count, stat.ep.mean, stat.score.mean]
        for stat in stats
    ]
    text = format_table(
        ["group", "count", "mean EP", "mean score"],
        rows,
        title=f"grouped by {request.by}",
        float_format="{:.4f}",
    )
    return Built(payload=payload, text=text)


def _outcome_payload(outcome) -> Dict[str, Any]:
    return {
        "policy": outcome.policy,
        "demand_ops": outcome.demand_ops,
        "placed_ops": outcome.placed_ops,
        "total_power_w": outcome.total_power_w,
        "unused_idle_power_w": outcome.unused_idle_power_w,
        "servers_used": outcome.servers_used,
        "fleet_efficiency": outcome.fleet_efficiency,
        "satisfied": outcome.satisfied(),
    }


@handler(PlacementQuery)
def _handle_placement(request: PlacementQuery, context: QueryContext) -> Built:
    """One placement what-if at a fractional demand level."""
    fleet = context.fleet(request)
    demand = request.demand_fraction * context.fleet_capacity(request)
    engine = context.engine(request)
    if request.policy == "ep-aware":
        outcome = engine.ep_aware(demand, request.power_off_unused)
    else:
        outcome = engine.pack_to_full(demand, request.power_off_unused)
    payload = _outcome_payload(outcome)
    payload.update(
        {
            "demand_fraction": request.demand_fraction,
            "fleet_size": len(fleet),
        }
    )
    text = (
        f"{request.policy} over {len(fleet)} servers at "
        f"{request.demand_fraction:.0%} demand: "
        f"{outcome.servers_used} used, {outcome.total_power_w:.0f} W, "
        f"{outcome.fleet_efficiency:.1f} ops/W"
    )
    return Built(payload=payload, text=text)


@handler(CapQuery)
def _handle_cap(request: CapQuery, context: QueryContext) -> Built:
    """Maximum throughput under a fixed power budget."""
    fleet = context.fleet(request)
    outcome = context.engine(request).max_throughput_under_cap(
        request.power_cap_w, request.policy, request.power_off_unused
    )
    payload = _outcome_payload(outcome)
    payload.update(
        {"power_cap_w": request.power_cap_w, "fleet_size": len(fleet)}
    )
    text = (
        f"{request.policy} under {request.power_cap_w:.0f} W over "
        f"{len(fleet)} servers: {outcome.placed_ops:.0f} ops at "
        f"{outcome.total_power_w:.0f} W ({outcome.servers_used} used)"
    )
    return Built(payload=payload, text=text)


@handler(ReplayQuery)
def _handle_replay(request: ReplayQuery, context: QueryContext) -> Built:
    """Replay a diurnal day over the tiled cohort."""
    outcome = context.replayer(request).replay(
        context.trace(request.steps), request.policy, request.power_off_unused
    )
    payload = {
        "servers": request.servers,
        "steps": request.steps,
        "policy": outcome.policy,
        "energy_kwh": outcome.energy_kwh,
        "served_gops": outcome.served_gops,
        "step_hours": outcome.step_hours,
        "unserved_steps": outcome.unserved_steps,
        "energy_per_gop": outcome.energy_per_gop,
    }
    text = (
        f"{request.servers} servers x {request.steps} steps, "
        f"{request.policy}\n"
        f"energy {outcome.energy_kwh:.1f} kWh/day, "
        f"served {outcome.served_gops:.1f} Gops, "
        f"{outcome.unserved_steps} unserved step(s)"
    )
    return Built(payload=payload, text=text)


@handler(SweepQuery)
def _handle_sweep(request: SweepQuery, context: QueryContext) -> Built:
    """The Table II sweep, matching the classic ``repro sweep N``."""
    from repro.hwexp.testbed import TESTBED
    from repro.viz.tables import format_table

    server = TESTBED[request.server]
    sweep = context.sweep(request.server)
    rows = []
    cells = []
    for mpc in server.tested_memory_per_core:
        for frequency in list(server.frequencies_ghz) + ["ondemand"]:
            cell = sweep.cell(mpc, frequency)
            rows.append(
                [
                    f"{mpc:g}",
                    frequency if isinstance(frequency, str) else f"{frequency:g}",
                    cell.overall_efficiency,
                    cell.peak_power_w,
                ]
            )
            cells.append(
                {
                    "memory_per_core_gb": mpc,
                    "frequency": frequency,
                    "overall_efficiency": cell.overall_efficiency,
                    "peak_power_w": cell.peak_power_w,
                }
            )
    best = sweep.best_memory_per_core()
    table = format_table(
        ["GB/core", "freq (GHz)", "EE (ops/W)", "peak W"],
        rows,
        title=f"server #{request.server}: {server.name}",
        float_format="{:.1f}",
    )
    text = f"{table}\nbest memory per core: {best:g} GB"
    payload = {
        "server": request.server,
        "name": server.name,
        "cells": cells,
        "best_memory_per_core_gb": best,
    }
    return Built(payload=payload, text=text)


@handler(EnsembleQuery)
def _handle_ensemble(request: EnsembleQuery, context: QueryContext) -> Built:
    """The claims rows across seeds, matching the classic ``repro ensemble``."""
    from repro.core.ensemble import run_ensemble
    from repro.viz.tables import format_table

    result = run_ensemble(
        request.seeds, jobs=request.jobs, base_seed=request.seed
    )
    parts = []
    if request.per_seed:
        rows = [[s.name, *s.values] for s in result.summaries.values()]
        parts.append(
            format_table(
                ["claim", *map(str, result.seeds)],
                rows,
                title="per-seed headline statistics",
                float_format="{:.4f}",
            )
        )
    parts.append(result.render())
    payload = {
        "seeds": list(result.seeds),
        "summaries": [asdict(summary) for summary in result.summaries.values()],
    }
    return Built(payload=payload, text="\n".join(parts))


@handler(GenerateQuery)
def _handle_generate(request: GenerateQuery, context: QueryContext) -> Built:
    """Write the seeded corpus to CSV."""
    from repro.dataset.io import save_corpus

    corpus = context.corpus(request.seed)
    save_corpus(corpus, request.out)
    return Built(
        payload={"path": request.out, "results": len(corpus)},
        text=f"wrote {len(corpus)} results to {request.out}",
    )


@handler(ValidateQuery)
def _handle_validate(request: ValidateQuery, context: QueryContext) -> Built:
    """Lint a corpus CSV; exit code 1 when errors are found."""
    from repro.dataset.io import load_corpus
    from repro.dataset.validation import errors_only, validate_corpus

    corpus = load_corpus(request.path)
    findings = validate_corpus(corpus)
    errors = errors_only(findings)
    lines = [str(finding) for finding in findings]
    lines.append(
        f"{len(corpus)} results: {len(errors)} error(s), "
        f"{len(findings) - len(errors)} warning(s)"
    )
    payload = {
        "path": request.path,
        "results": len(corpus),
        "errors": len(errors),
        "warnings": len(findings) - len(errors),
        "findings": [str(finding) for finding in findings],
    }
    return Built(
        payload=payload,
        text="\n".join(lines),
        exit_code=1 if errors else 0,
    )


@handler(ReportQuery)
def _handle_report(request: ReportQuery, context: QueryContext) -> Built:
    """Write the paper-vs-measured report."""
    from pathlib import Path

    from repro.core.pipeline import build_experiments_report

    Path(request.out).write_text(
        build_experiments_report(context.study(request))
    )
    return Built(
        payload={"path": request.out}, text=f"wrote {request.out}"
    )


@handler(RunAllQuery)
def _handle_run_all(request: RunAllQuery, context: QueryContext) -> Built:
    """Render every artifact to files, with the classic failure modes."""
    from pathlib import Path

    from repro.core.faults import FaultPlan
    from repro.core.registry import REGISTRY
    from repro.core.resilience import RetryPolicy

    directory = Path(request.output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    faults = FaultPlan.load(request.inject) if request.inject else None
    policy = RetryPolicy(attempts=request.retry) if request.retry else None
    cache = None
    if request.use_cache or request.cache_dir is not None:
        cache = ArtifactCache(request.cache_dir or DEFAULT_CACHE_DIR)
    run_report = context.study(request).run_all(
        cache=cache,
        report=True,
        on_error=request.on_error,
        retry=policy,
        timeout_s=request.timeout_s,
        faults=faults,
    )
    for figure_id, result in run_report.results.items():
        (directory / f"{figure_id}.txt").write_text(
            f"== {result.title} ==\n{result.text}\n"
        )
    lines = []
    if request.show_report:
        lines.append(run_report.render())
    built = len(run_report.results)
    lines.append(
        f"wrote {built} of {len(REGISTRY)} artifacts to {directory}/"
    )
    exit_code = 0
    if run_report.failures:
        lines.append(run_report.failures.render())
        exit_code = 1
    payload = {
        "output_dir": str(directory),
        "written": built,
        "total": len(REGISTRY),
        "artifacts": sorted(run_report.results),
        "failures": list(run_report.failures.failed_ids),
    }
    return Built(payload=payload, text="\n".join(lines), exit_code=exit_code)


@handler(CacheQuery)
def _handle_cache(request: CacheQuery, context: QueryContext) -> Built:
    """Inspect or empty an artifact cache store."""
    cache = (
        context.cache
        if context.cache is not None and request.cache_dir is None
        else ArtifactCache(request.cache_dir or DEFAULT_CACHE_DIR)
    )
    if request.action == "clear":
        removed = cache.clear()
        return Built(
            payload={"root": str(cache.root), "removed": removed},
            text=f"removed {removed} cache entr(ies) from {cache.root}/",
        )
    entries = cache.entries()
    payload = {
        "root": str(cache.root),
        "entries": len(entries),
        "size_bytes": cache.size_bytes(),
        "engine_version": cache.engine_version,
    }
    text = (
        f"{cache.root}/: {len(entries)} entr(ies), "
        f"{cache.size_bytes() / 1024.0:.1f} KiB, "
        f"engine version {cache.engine_version}"
    )
    return Built(payload=payload, text=text)


def _assert_dispatch_complete() -> None:
    """Every request family must be wired into :data:`DISPATCH`."""
    missing = [
        cls.__name__ for cls in FAMILIES.values() if cls not in DISPATCH
    ]
    if missing:  # pragma: no cover - wiring bug, caught at import
        raise RuntimeError(f"families without handlers: {missing}")


_assert_dispatch_complete()
