"""The daemon's request brain: memo, coalescing, batching, dispatch.

:class:`ServeApp` owns the warm state (one
:class:`~repro.api.dispatch.QueryContext`, optionally backed by the
disk :class:`~repro.core.cache.ArtifactCache`) and answers decoded
query payloads.  The serving path, fastest first:

1. **response memo** -- an LRU of fully serialized response bytes
   keyed by spec key; a hit never leaves the event loop;
2. **coalescing** -- an in-flight map on the same key, so concurrent
   identical queries share one computation
   (:mod:`repro.serve.coalesce`);
3. **batching** -- fleet-family leaders wait out a few-millisecond
   window and execute per cohort group against one shared engine
   (:mod:`repro.serve.batch`);
4. **dispatch** -- everything bottoms out in
   :func:`repro.api.execute`, disk cache included.

Computation never runs on the loop itself.  With ``workers=0`` engine
executions ride the event loop's default thread-pool executor; with
``workers=N`` they route to the pre-forked
:class:`~repro.serve.workers.EngineWorkerPool` (sticky spec-key
routing, warm state inherited by fork, bit-identical payloads), while
memo hits, validation errors and ``/healthz``/``/stats`` stay on the
loop either way.

Under load the path is guarded by the :mod:`repro.serve.resilience`
layer: memo hits always succeed, but a computation must pass the
circuit breaker (``503`` + ``Retry-After`` while its spec key is
tripped) and admission control (bounded in-flight slots plus a bounded
accept queue; saturation sheds with ``503``).  A per-request deadline
(``deadline_ms``) bounds every wait and answers ``504`` on expiry, and
``begin_drain()`` flips the app to *draining*: new queries are refused
while everything already admitted runs to completion.
"""

from __future__ import annotations

import asyncio
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.api.dispatch import QueryContext, execute
from repro.api.requests import (
    FLEET_FAMILIES,
    TRANSPORT_FIELDS,
    QueryRequest,
    request_from_dict,
    spec_suffix,
)
from repro.api.result import QueryResult
from repro.core import faults
from repro.core.cache import ENGINE_VERSION, ArtifactCache, cache_key
from repro.core.resilience import DeadlineExceeded, TransientError
from repro.serve.resilience import (
    AdmissionController,
    CircuitBreaker,
    Deadline,
    ServeLimits,
)

#: Headers attached to every load-shedding (``503``) response.
_NO_HEADERS: Dict[str, str] = {}


@dataclass
class ServeStats:
    """Counters for one daemon lifetime."""

    queries: int = 0
    memo_hits: int = 0
    coalesced: int = 0
    computations: int = 0
    disk_hits: int = 0
    errors: int = 0
    admitted: int = 0
    shed: int = 0
    timeouts: int = 0
    breaker_fastfail: int = 0
    extra: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, int]:
        """The counters as a flat JSON-ready dict."""
        payload = {
            "queries": self.queries,
            "memo_hits": self.memo_hits,
            "coalesced": self.coalesced,
            "computations": self.computations,
            "disk_hits": self.disk_hits,
            "errors": self.errors,
            "admitted": self.admitted,
            "shed": self.shed,
            "timeouts": self.timeouts,
            "breaker_fastfail": self.breaker_fastfail,
        }
        payload.update(self.extra)
        return payload


class ServeApp:
    """Answer query payloads with memoization, coalescing and batching."""

    def __init__(
        self,
        seed: int = 2016,
        cache: Optional[ArtifactCache] = None,
        memo_size: int = 4096,
        memo_bytes: int = 64 * 1024 * 1024,
        window_s: float = 0.002,
        limits: Optional[ServeLimits] = None,
        workers: int = 0,
    ) -> None:
        from repro.serve.batch import BatchWindow
        from repro.serve.coalesce import Coalescer

        if memo_bytes < 0:
            raise ValueError(f"memo_bytes must be >= 0, got {memo_bytes}")
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.seed = seed
        self.context = QueryContext(cache=cache, seed=seed)
        self.stats = ServeStats()
        self.memo_size = memo_size
        self.memo_bytes = memo_bytes
        self.limits = limits if limits is not None else ServeLimits()
        self._memo: "OrderedDict[str, bytes]" = OrderedDict()
        self._memo_total = 0
        self.workers = workers
        self._pool = None
        if workers > 0:
            from repro.serve.workers import EngineWorkerPool

            self._pool = EngineWorkerPool(
                self.context, seed=seed, size=workers
            )
        #: seed -> corpus fingerprint, an LRU bounded by ``memo_size``
        #: (``seed`` is client-controlled).
        self._fingerprints: "OrderedDict[int, str]" = OrderedDict()
        self._coalescer = Coalescer()
        self._batch = BatchWindow(
            self._execute_group_pooled if self._pool is not None
            else self._execute_group,
            QueryContext.fleet_key,
            window_s,
        )
        self._admission = AdmissionController(
            self.limits.max_inflight, self.limits.max_queue
        )
        self._breaker = CircuitBreaker(
            self.limits.breaker_failures, self.limits.breaker_cooldown_s
        )
        self._state = "serving"
        self._in_system = 0
        # created lazily on the serving loop (see AdmissionController)
        self._idle_event: Optional[asyncio.Event] = None

    # -- warm-up -----------------------------------------------------------------

    def warm(self) -> None:
        """Load the corpus, column store, curve matrices and fingerprint.

        With ``workers > 0`` this also forks the engine worker pool —
        after the corpus is warm, so every forked worker inherits the
        parent's built state, curve matrices included, as copy-on-write
        pages instead of rebuilding its own.
        """
        corpus = self.context.corpus(self.seed)
        self._fingerprint_put(self.seed, corpus.fingerprint())
        corpus.columns().load_grid()  # builds all three curve matrices
        if self._pool is not None:
            self._pool.start()

    def stop_workers(self, timeout_s: float = 5.0) -> None:
        """Stop the engine worker pool, if one is running (idempotent)."""
        if self._pool is not None:
            self._pool.stop(timeout_s)

    # -- lifecycle ---------------------------------------------------------------

    @property
    def state(self) -> str:
        """``serving`` or ``draining``."""
        return self._state

    @property
    def in_system(self) -> int:
        """Accepted queries not yet answered (queued or executing)."""
        return self._in_system

    def begin_drain(self) -> None:
        """Refuse new queries; everything already accepted runs on."""
        self._state = "draining"

    async def wait_idle(self, timeout_s: float) -> bool:
        """Await the in-system count reaching zero; False on timeout."""
        if self._in_system == 0:
            return True
        if self._idle_event is None:
            self._idle_event = asyncio.Event()
        if self._in_system == 0:  # settled while creating the event
            return True
        try:
            await asyncio.wait_for(self._idle_event.wait(), timeout_s)
        except asyncio.TimeoutError:
            return False
        return True

    def _enter_system(self) -> None:
        self._in_system += 1
        if self._idle_event is not None:
            self._idle_event.clear()

    def _leave_system(self) -> None:
        self._in_system -= 1
        if self._in_system <= 0 and self._idle_event is not None:
            self._idle_event.set()

    # -- serving -----------------------------------------------------------------

    async def handle_query(self, payload: Dict[str, Any]) -> Tuple[int, bytes]:
        """Answer one decoded ``/query`` body (header-free compatibility).

        Returns ``(http_status, response_bytes)``; the body is always a
        JSON document -- a :class:`~repro.api.result.QueryResult`
        envelope on success, an ``{"error": ...}`` object otherwise.
        """
        status, body, _headers = await self.handle(payload)
        return status, body

    async def handle(
        self,
        payload: Dict[str, Any],
        deadline_ms: Optional[object] = None,
    ) -> Tuple[int, bytes, Dict[str, str]]:
        """Answer one decoded ``/query`` body with response headers.

        ``deadline_ms`` (also accepted as a ``deadline_ms`` field in
        the payload; the header wins) bounds the whole exchange: on
        expiry the answer is ``504`` and no further engine work runs on
        this request's behalf.  Returns
        ``(http_status, response_bytes, extra_headers)``.
        """
        self.stats.queries += 1
        try:
            await faults.fire_async("serve.handler")
            payload = dict(payload)
            for transport_field in TRANSPORT_FIELDS:
                value = payload.pop(transport_field, None)
                if transport_field == "deadline_ms" and deadline_ms is None:
                    deadline_ms = value
            deadline = Deadline.from_ms(deadline_ms)
            if self._state != "serving":
                self.stats.shed += 1
                return (
                    503,
                    _error_body_named("daemon is draining"),
                    self._retry_after(self.limits.drain_s),
                )
            request = request_from_dict(payload)
            if not type(request).servable:
                raise ValueError(
                    f"family {type(request).family!r} is not servable; "
                    "run it through the CLI"
                )
            key = await self._spec_key(request)
            memo = self._memo_get(key)
            if memo is not None:
                self.stats.memo_hits += 1
                return 200, memo, _NO_HEADERS
            retry_in = self._breaker.check(key)
            if retry_in is not None:
                self.stats.breaker_fastfail += 1
                return (
                    503,
                    _error_body_named("spec is circuit-broken"),
                    self._retry_after(retry_in),
                )
            return await self._admit_and_compute(request, key, deadline)
        except DeadlineExceeded as exc:
            self.stats.timeouts += 1
            return 504, _error_body(exc), _NO_HEADERS
        except (ValueError, KeyError) as exc:
            self.stats.errors += 1
            return 400, _error_body(exc), _NO_HEADERS
        except TransientError as exc:
            # transient engine/handler failure: retryable, say so
            self.stats.errors += 1
            return 503, _error_body(exc), self._retry_after(
                self.limits.retry_after_s
            )
        except Exception as exc:
            self.stats.errors += 1
            return 500, _error_body(exc), _NO_HEADERS

    async def _admit_and_compute(
        self,
        request: QueryRequest,
        key: str,
        deadline: Optional[Deadline],
    ) -> Tuple[int, bytes, Dict[str, str]]:
        """The guarded slow path: admission, coalescing, computation."""
        self._enter_system()
        try:
            if not await self._admission.try_acquire(deadline):
                # if this request was the breaker's half-open probe, it
                # just exited without a verdict: free the probe slot
                self._breaker.probe_aborted(key)
                self.stats.shed += 1
                return (
                    503,
                    _error_body_named("server saturated"),
                    self._retry_after(self.limits.retry_after_s),
                )
            try:
                self.stats.admitted += 1
                timeout_s: Optional[float] = None
                if deadline is not None:
                    timeout_s = deadline.remaining_s()
                body, shared = await self._coalescer.run(
                    key, lambda: self._compute(request, key), timeout_s
                )
                if shared:
                    self.stats.coalesced += 1
                return 200, body, _NO_HEADERS
            finally:
                self._admission.release()
        except DeadlineExceeded:
            # expired while queued or coalesced — no breaker verdict
            # was reached on this request's behalf (the flight, if any,
            # still reports its own); a probe must not stay armed
            self._breaker.probe_aborted(key)
            raise
        finally:
            self._leave_system()

    def _retry_after(self, seconds: float) -> Dict[str, str]:
        return {"Retry-After": str(max(1, math.ceil(seconds)))}

    async def _compute(self, request: QueryRequest, key: str) -> bytes:
        try:
            if type(request).family in FLEET_FAMILIES:
                result = await self._batch.submit(request)
            elif self._pool is not None:
                self.stats.computations += 1
                await faults.fire_async("serve.engine")
                result = await self._pool.submit(request, key)
            else:
                loop = asyncio.get_running_loop()
                self.stats.computations += 1
                result = await loop.run_in_executor(
                    None, self._engine_call, request
                )
        except asyncio.CancelledError:
            # abandoned flight, not a verdict on the spec — but it may
            # have been the half-open probe, so let the next request
            # re-probe instead of wedging the key open
            self._breaker.probe_aborted(key)
            raise
        except BaseException as exc:
            self._breaker.record_failure(key, exc)
            raise
        self._breaker.record_success(key)
        if result.provenance.cache_hit:
            self.stats.disk_hits += 1
        body = (result.to_json() + "\n").encode("utf-8")
        if type(request).cacheable and result.exit_code == 0:
            self._memo_put(key, body)
        return body

    def _engine_call(self, request: QueryRequest) -> QueryResult:
        """One engine execution (runs on the executor thread pool)."""
        faults.fire("serve.engine")
        return execute(request, self.context)

    def _execute_group(self, requests: List[QueryRequest]) -> List[QueryResult]:
        """One batch group: every request against the shared context."""
        self.stats.computations += len(requests)
        faults.fire("serve.engine")
        return [execute(request, self.context) for request in requests]

    async def _execute_group_pooled(
        self, requests: List[QueryRequest]
    ) -> List[QueryResult]:
        """One batch group on the worker pool, routed by cohort key.

        Cohort-sticky routing keeps each cohort's shared engine warm
        inside one worker, the same way spec-key routing keeps
        non-fleet caches warm.
        """
        self.stats.computations += len(requests)
        await faults.fire_async("serve.engine")
        route = repr(QueryContext.fleet_key(requests[0]))
        return await self._pool.submit_group(requests, route)

    # -- identity ----------------------------------------------------------------

    async def _spec_key(self, request: QueryRequest) -> str:
        """The cache-grade identity of a request (backend-independent)."""
        fingerprint = ""
        if type(request).needs_corpus:
            fingerprint = self._fingerprints.get(request.seed, "")
            if fingerprint:
                self._fingerprints.move_to_end(request.seed)
            else:
                loop = asyncio.get_running_loop()
                fingerprint = await loop.run_in_executor(
                    None,
                    lambda: self.context.corpus(request.seed).fingerprint(),
                )
                self._fingerprint_put(request.seed, fingerprint)
        return cache_key(fingerprint, spec_suffix(request), ENGINE_VERSION)

    def _fingerprint_put(self, seed: int, fingerprint: str) -> None:
        self._fingerprints[seed] = fingerprint
        self._fingerprints.move_to_end(seed)
        while len(self._fingerprints) > self.memo_size:
            self._fingerprints.popitem(last=False)

    # -- response memo -----------------------------------------------------------

    def _memo_get(self, key: str) -> Optional[bytes]:
        body = self._memo.get(key)
        if body is not None:
            self._memo.move_to_end(key)
        return body

    def _memo_put(self, key: str, body: bytes) -> None:
        previous = self._memo.get(key)
        if previous is not None:
            self._memo_total -= len(previous)
        self._memo[key] = body
        self._memo_total += len(body)
        self._memo.move_to_end(key)
        # bounded twice over: entry count AND total bytes — one
        # million-server fleet response must not pin unbounded memory
        # behind a small-looking entry cap.  A body larger than the
        # byte budget by itself is evicted immediately (never memoized).
        while self._memo and (
            len(self._memo) > self.memo_size
            or self._memo_total > self.memo_bytes
        ):
            _evicted_key, evicted = self._memo.popitem(last=False)
            self._memo_total -= len(evicted)

    # -- introspection -----------------------------------------------------------

    def stats_payload(self) -> Dict[str, Any]:
        """The ``/stats`` document."""
        self.stats.extra = {
            "batched": self._batch.batched,
            "batch_groups": self._batch.groups,
            "batch_pending": self._batch.pending,
            "memo_entries": len(self._memo),
            "memo_bytes": self._memo_total,
            "inflight": self._admission.active,
            "queued": self._admission.waiting,
            "in_system": self._in_system,
            "coalescer_entries": len(self._coalescer),
            "breaker_trips": self._breaker.trips,
            "breaker_open_keys": self._breaker.open_keys(),
            "worker_restarts": (
                self._pool.restarts if self._pool is not None else 0
            ),
        }
        document = {
            "seed": self.seed,
            "engine_version": ENGINE_VERSION,
            "state": self._state,
            "stats": self.stats.to_dict(),
            "workers": (
                self._pool.worker_stats() if self._pool is not None else []
            ),
        }
        return document


def _error_body(exc: BaseException) -> bytes:
    return _error_body_named(str(exc) or type(exc).__name__)


def _error_body_named(message: str) -> bytes:
    import json

    return (json.dumps({"error": message}) + "\n").encode("utf-8")
