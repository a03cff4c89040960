"""Benchmark-owned tracing: spans around calls into each layer's public API.

Nothing under ``src/`` knows about these spans.  :func:`install` wraps
the public functions and methods of each layer in place (class
attributes, and every ``repro`` module that imported a wrapped function
by name), so the daemon, its forked engine workers and the offline
build all record into one in-memory :class:`Recorder` per process.

A span is ``(id, parent, request_id, name, start_ns, end_ns, attrs)``.
The parent and request id travel in a context variable, so spans of
one request nest across ``await`` points and tasks.  The daemon assigns
request ids per connection (``<client port>:<n-th query>``), which the
load generator reproduces on its side to pair client latency with the
daemon's ``ServeApp.handle`` span.

Times are ``time.perf_counter_ns()`` — CLOCK_MONOTONIC on Linux, one
clock for every process on the box, so spans from a worker process
line up with the daemon's and the load generator's.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (span id, request id) of the innermost open span.
_CURRENT: "contextvars.ContextVar[Optional[Tuple[int, Optional[str]]]]" = (
    contextvars.ContextVar("perfbench_span", default=None)
)
#: [client port, queries so far] of the connection being served.
_CONNECTION: "contextvars.ContextVar[Optional[List[int]]]" = (
    contextvars.ContextVar("perfbench_connection", default=None)
)

Span = Tuple[int, Optional[int], Optional[str], str, int, int, Optional[Dict]]
Before = Callable[[tuple], Any]
After = Callable[[tuple, Any, Any], Optional[Dict[str, Any]]]


class Recorder:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._restart_ids()

    def _restart_ids(self) -> None:
        base = os.getpid() * 1_000_000_000
        self._ids = itertools.count(base + 1)

    def forget(self) -> None:
        """Drop spans inherited across a fork; ids restart for this pid."""
        self.spans = []
        self._restart_ids()

    def dump(self, directory: Path) -> Path:
        """Write this process's spans as JSON lines; returns the file."""
        path = Path(directory) / f"spans-{os.getpid()}.jsonl"
        with path.open("w", encoding="utf-8") as stream:
            for span in self.spans:
                stream.write(json.dumps(span) + "\n")
        return path

    def wrap(self, fn: Callable, name: str, before: Optional[Before] = None,
             after: Optional[After] = None) -> Callable:
        """``fn`` wrapped so each call records one span named ``name``.

        ``before(args)`` runs first and returns state for
        ``after(args, result, state)``, which returns the span's
        attributes.  A ``before`` state that is a dict holding ``rid``
        starts a new request id.
        """
        recorder = self

        def enter(args: tuple) -> Tuple[int, Optional[int], Optional[str], Any, Any]:
            parent = _CURRENT.get()
            state = before(args) if before is not None else None
            rid = parent[1] if parent is not None else None
            if isinstance(state, dict) and "rid" in state:
                rid = state["rid"]
            sid = next(recorder._ids)
            token = _CURRENT.set((sid, rid))
            return sid, (parent[0] if parent is not None else None), rid, state, token

        def leave(opened: tuple, args: tuple, result: Any, start: int) -> None:
            sid, parent, rid, state, token = opened
            end = time.perf_counter_ns()
            _CURRENT.reset(token)
            attrs = after(args, result, state) if after is not None else None
            recorder.spans.append((sid, parent, rid, name, start, end, attrs))

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                opened = enter(args)
                start = time.perf_counter_ns()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    leave(opened, args, result, start)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            opened = enter(args)
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                leave(opened, args, result, start)

        return wrapper


def load_spans(directory: Path) -> List[Span]:
    """Every span dumped under ``directory`` (all processes)."""
    spans: List[Span] = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with path.open(encoding="utf-8") as stream:
            for line in stream:
                spans.append(tuple(json.loads(line)))  # type: ignore[arg-type]
    return spans


# -- installation -------------------------------------------------------------


def _patch_method(recorder: Recorder, owner: type, attr: str, name: str,
                  before: Optional[Before] = None,
                  after: Optional[After] = None) -> None:
    setattr(owner, attr, recorder.wrap(owner.__dict__[attr], name, before, after))


def _patch_function(recorder: Recorder, module: Any, attr: str, name: str,
                    after: Optional[After] = None) -> None:
    """Wrap a module-level function, and every ``repro`` import of it."""
    original = getattr(module, attr)
    wrapped = recorder.wrap(original, name, None, after)
    for module_name, loaded in list(sys.modules.items()):
        if (module_name == "repro" or module_name.startswith("repro.")) and \
                getattr(loaded, attr, None) is original:
            setattr(loaded, attr, wrapped)


def _miss(store: str) -> Tuple[Before, After]:
    def before(args: tuple) -> int:
        return len(getattr(args[0], store))

    def after(args: tuple, _result: Any, size: int) -> Dict[str, Any]:
        return {"miss": len(getattr(args[0], store)) > size}

    return before, after


def _work(servers: Callable[[tuple], int]) -> After:
    def after(args: tuple, _result: Any, _state: Any) -> Dict[str, Any]:
        return {"work": servers(args) * args[1].steps}

    return after


def _connection_request_id(_args: tuple) -> Dict[str, Any]:
    connection = _CONNECTION.get()
    if connection is None:
        return {}
    connection[1] += 1
    return {"rid": f"{connection[0]}:{connection[1]}"}


def _handled(_args: tuple, result: Any, _state: Any) -> Optional[Dict[str, Any]]:
    if result is None:
        return None
    return {"status": result[0], "bytes": len(result[1])}


def install(recorder: Recorder) -> None:
    """Wrap every traced layer's public calls so they record into ``recorder``."""
    import repro.api  # noqa: F401  (loads the dispatch module and its imports)
    from repro.api import dispatch, result
    from repro.cluster import batch_placement, batch_trace, placement, sharded, trace
    from repro.core import cache, study  # noqa: F401
    from repro.dataset import columns, corpus, fingerprint, synthesis
    from repro.serve import app, batch, coalesce, resilience, workers

    _patch_method(recorder, app.ServeApp, "handle", "serve.app.handle",
                  _connection_request_id, _handled)
    _patch_method(recorder, result.QueryResult, "to_json", "serve.app.encode")
    _patch_method(recorder, resilience.AdmissionController, "try_acquire",
                  "serve.resilience.admit_wait")
    _patch_method(recorder, coalesce.Coalescer, "run", "serve.coalesce.run")
    _patch_method(recorder, batch.BatchWindow, "submit", "serve.batch.submit",
                  lambda args: id(args[1]),
                  lambda args, _r, req: {"req": req})
    _patch_method(recorder, workers.EngineWorkerPool, "submit",
                  "serve.workers.exchange", None,
                  lambda args, _r, _s: {"reqs": [id(args[1])]})
    _patch_method(recorder, workers.EngineWorkerPool, "submit_group",
                  "serve.workers.exchange", None,
                  lambda args, _r, _s: {"reqs": [id(r) for r in args[1]]})

    _patch_function(recorder, dispatch, "execute", "api.dispatch.execute")
    _patch_method(recorder, dispatch.QueryContext, "engine",
                  "api.dispatch.engine", *_miss("_engines"))
    _patch_method(recorder, dispatch.QueryContext, "fleet",
                  "api.dispatch.fleet", *_miss("_fleets"))

    for engine in (batch_placement.BatchPlacementEngine, sharded.ShardedFleetEngine):
        _patch_method(recorder, engine, "ep_aware", "cluster.place")
        _patch_method(recorder, engine, "pack_to_full", "cluster.place")
        _patch_method(recorder, engine, "max_throughput_under_cap", "cluster.cap")
    _patch_function(recorder, placement, "ep_aware_placement", "cluster.place")
    _patch_function(recorder, placement, "pack_to_full_placement", "cluster.place")
    _patch_function(recorder, placement, "max_throughput_under_cap", "cluster.cap")
    _patch_method(recorder, batch_trace.BatchTraceReplay, "replay", "cluster.replay",
                  None, _work(lambda args: len(args[0].engine.arrays.records)))
    _patch_function(recorder, trace, "replay_trace", "cluster.replay",
                    _work(lambda args: len(args[0])))
    _patch_method(recorder, sharded.ShardedTraceReplay, "replay",
                  "cluster.sharded_replay", None,
                  _work(lambda args: len(args[0].engine)))

    _patch_method(recorder, cache.ArtifactCache, "get", "core.cache.get", None,
                  lambda _a, found, _s: {"hit": found is not None})
    _patch_method(recorder, cache.ArtifactCache, "put", "core.cache.put", None,
                  lambda _a, path, _s: {
                      "bytes": path.stat().st_size if path is not None else 0})

    _patch_function(recorder, synthesis, "generate_corpus", "dataset.generate_corpus")
    _patch_method(recorder, corpus.Corpus, "columns", "dataset.columns")
    for attr in ("array", "load_grid", "power_matrix", "ops_matrix"):
        _patch_method(recorder, columns.CorpusColumns, attr, "dataset.columns")
    _patch_function(recorder, fingerprint, "corpus_fingerprint", "dataset.fingerprint")


def install_daemon(recorder: Recorder, directory: Path) -> None:
    """:func:`install`, plus per-connection request ids and worker dumps.

    Engine workers fork from the daemon after these wrappers are in
    place, so they inherit them; each worker drops the daemon's spans
    it inherited and writes its own when its service loop ends.
    """
    from repro.serve import daemon, workers

    install(recorder)
    handle_connection = daemon._handle_connection
    serve_requests = workers._serve_requests

    @functools.wraps(handle_connection)
    async def traced_connection(app: Any, conns: Any, reader: Any, writer: Any) -> None:
        token = _CONNECTION.set([writer.get_extra_info("peername")[1], 0])
        try:
            await handle_connection(app, conns, reader, writer)
        finally:
            _CONNECTION.reset(token)

    @functools.wraps(serve_requests)
    def traced_worker(conn: Any, context: Any) -> None:
        recorder.forget()
        try:
            serve_requests(conn, context)
        finally:
            recorder.dump(directory)

    daemon._handle_connection = traced_connection
    workers._serve_requests = traced_worker
