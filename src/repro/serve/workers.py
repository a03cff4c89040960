"""Process-pool engine workers: multi-core compute for the daemon.

The serve path's engine executions used to run on the event loop's
default *thread* pool, which serializes compute-heavy queries on the
GIL — one core does all the work while the rest idle.
:class:`EngineWorkerPool` is the compute tier that fixes that, shaped
like a standard inference server:

* **pre-forked workers** — N child processes forked *after*
  :meth:`ServeApp.warm <repro.serve.app.ServeApp.warm>`, so each one
  starts with the parent's warm :class:`~repro.api.dispatch.QueryContext`
  already in memory: corpus, column store and the three fleet curve
  matrices arrive as copy-on-write pages, and nothing is
  re-synthesized, pickled or written to disk.  Fork inheritance is the
  only transport; a spawned worker (spawn-only platforms, post-death
  replacements) rebuilds its context from the seed and cache
  directory;
* **sticky routing** — requests are routed by spec key
  (``crc32(key) % N``), so identical specs always land on the same
  worker and its per-context memoized engines stay hot; batch groups
  route by cohort key for the same reason.  One request (or group) is
  in flight per worker at a time, serialized by a per-worker lock on
  the event loop;
* **crash-isolated compute** — a worker death (the ``serve.worker``
  fault site, an OOM kill, a segfault) is detected on the pipe,
  answered by *one* restart (via the fork-safe ``spawn`` context — the
  parent is multithreaded by then) plus a seeded-backoff retry
  (:class:`~repro.core.resilience.RetryPolicy`), and only a second
  death surfaces — as :class:`~repro.core.resilience.TransientError`,
  which the app maps to ``503`` and the PR 9 circuit breaker correctly
  treats as non-tripping.

Every result carries the executing worker's name in
``provenance.worker``; ``/stats`` exposes per-worker
inflight/served/restart counters.  Payloads are bit-identical to the
in-thread path (``--workers 0``): the same ``execute()`` runs against
the same corpus bytes, only in another process.
"""

from __future__ import annotations

import asyncio
import dataclasses
import multiprocessing
import os
import threading
import time
import zlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.dispatch import QueryContext, execute
from repro.api.requests import QueryRequest
from repro.api.result import QueryResult
from repro.core import faults
from repro.core.cache import ArtifactCache
from repro.core.resilience import RetryPolicy, TransientError

#: Exit code of an injected ``serve.worker`` mid-query death.
_CRASH_EXIT = 70

#: Parent-side poll tick while waiting on a worker reply: bounded
#: waits so a silently vanished worker is noticed within one tick.
_WAIT_TICK_S = 0.25

#: Budget for a worker process to leave after a stop message.
_STOP_JOIN_S = 5.0


class WorkerDied(Exception):
    """A worker process exited while a request was in flight."""

    def __init__(self, index: int, exitcode: Optional[int]) -> None:
        super().__init__(
            f"serve worker w{index} died (exit code {exitcode})"
        )
        self.index = index
        self.exitcode = exitcode


def _serve_requests(conn: Any, context: QueryContext) -> None:
    """The worker's service loop: recv requests, send results."""
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return  # parent went away: nothing left to serve
        if message[0] == "stop":
            return
        _verb, requests, crash = message
        if crash:
            # injected serve.worker fault: die mid-query, no reply —
            # the parent sees the pipe drop and runs its recovery path
            os._exit(_CRASH_EXIT)
        try:
            results = [execute(request, context) for request in requests]
        except Exception as exc:
            reply: Tuple[str, Any] = ("err", exc)
        else:
            reply = ("ok", results)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return  # parent went away mid-reply


def _worker_main(
    conn: Any,
    seed: int,
    warm_context: Optional[QueryContext],
    cache_dir: Optional[str],
) -> None:
    """Entry point of one worker process.

    Forked workers receive the parent's warm ``QueryContext`` directly
    (copy-on-write memory, never pickled), curve matrices included;
    spawned workers — spawn-only platforms, and every post-death
    replacement (see :meth:`EngineWorkerPool._respawn`) — rebuild one
    from the seed and the cache directory, and build the matrices on
    their first fleet query.
    """
    if warm_context is not None:
        context = warm_context
    else:  # spawn platforms and respawned replacement workers
        cache = ArtifactCache(cache_dir) if cache_dir else None
        context = QueryContext(cache=cache, seed=seed)
    _serve_requests(conn, context)


class _Worker:
    """One child process plus its pipe, lock and counters."""

    __slots__ = (
        "index", "process", "conn", "served", "restarts", "inflight",
        "io_lock", "_lock", "_lock_loop",
    )

    def __init__(self, index: int, process: Any, conn: Any) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.served = 0
        self.restarts = 0
        self.inflight = 0
        #: Thread-level guard on the pipe: ``Connection`` is not
        #: thread-safe, and an abandoned (deadline-cancelled) exchange
        #: keeps running on its executor thread after the event-loop
        #: lock moves on — every send/recv, including ``stop()``'s,
        #: must hold this.
        self.io_lock = threading.Lock()
        self._lock: Optional[asyncio.Lock] = None
        self._lock_loop: Optional[asyncio.AbstractEventLoop] = None

    def lock_for(self, loop: asyncio.AbstractEventLoop) -> asyncio.Lock:
        """This worker's submission lock, re-created per event loop."""
        if self._lock is None or self._lock_loop is not loop:
            self._lock = asyncio.Lock()
            self._lock_loop = loop
        return self._lock

    @property
    def name(self) -> str:
        """The stamp this worker leaves in ``provenance.worker``."""
        return f"w{self.index}"


class EngineWorkerPool:
    """N pre-forked engine workers with sticky spec-key routing.

    Built unstarted; :meth:`start` forks the workers off the (already
    warm) parent context and must run before the first
    :meth:`submit`.  ``submit``/``submit_group`` run on the event loop
    and serialize per worker; the blocking pipe exchange itself runs on
    the default executor, so the loop only routes.  :meth:`stop` is
    idempotent and bounded.
    """

    def __init__(
        self,
        context: QueryContext,
        seed: int = 2016,
        size: int = 2,
    ) -> None:
        if size < 1:
            raise ValueError(f"worker pool size must be >= 1, got {size}")
        self.context = context
        self.seed = seed
        self.size = int(size)
        self.retry = RetryPolicy(
            attempts=2, base_delay_s=0.01, max_delay_s=0.25, seed=seed
        )
        start_methods = multiprocessing.get_all_start_methods()
        self._mp = multiprocessing.get_context(
            "fork" if "fork" in start_methods else "spawn"
        )
        # replacements after a worker death always come up via spawn:
        # by then the parent has a live event loop and executor
        # threads, and os.fork() from a multithreaded process can
        # deadlock the child on locks other threads hold
        self._respawn_mp = multiprocessing.get_context("spawn")
        self._workers: List[_Worker] = []
        self._cache_dir: Optional[str] = None
        self._started = False
        #: Worker processes re-forked after a death, pool lifetime.
        self.restarts = 0

    # -- lifecycle ---------------------------------------------------------------

    @property
    def started(self) -> bool:
        """Whether the workers are forked and serving."""
        return self._started

    def start(self) -> None:
        """Fork the workers off the warm parent context (idempotent)."""
        if self._started:
            return
        cache = self.context.cache
        self._cache_dir = str(cache.root) if cache is not None else None
        self._workers = [self._spawn(index) for index in range(self.size)]
        self._started = True

    def _spawn(self, index: int, mp: Any = None) -> _Worker:
        mp = mp if mp is not None else self._mp
        parent_conn, child_conn = mp.Pipe(duplex=True)
        warm = self.context if mp.get_start_method() == "fork" else None
        process = mp.Process(
            target=_worker_main,
            args=(child_conn, self.seed, warm, self._cache_dir),
            name=f"repro-serve-w{index}",
            daemon=True,
        )
        process.start()
        # drop the parent's copy of the child end: worker death must
        # surface as EOF on this pipe, not an indefinite park
        child_conn.close()
        return _Worker(index, process, parent_conn)

    def stop(self, timeout_s: float = _STOP_JOIN_S) -> None:
        """Stop every worker (idempotent, bounded)."""
        if not self._started:
            return
        self._started = False
        for worker in self._workers:
            # never write the pipe while an abandoned exchange may
            # still be mid send/recv on it from an executor thread —
            # if the io lock can't be had quickly, skip the polite
            # stop; join/terminate below still reaps the worker
            if not worker.io_lock.acquire(timeout=0.25):
                continue
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass  # already dead: join below still reaps it
            finally:
                worker.io_lock.release()
        for worker in self._workers:
            worker.process.join(timeout=timeout_s)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            worker.conn.close()

    # -- routing -----------------------------------------------------------------

    def route_index(self, route: str) -> int:
        """Sticky worker index for a routing key (stable across runs)."""
        return zlib.crc32(route.encode("utf-8")) % self.size

    # -- submission --------------------------------------------------------------

    async def submit(self, request: QueryRequest, route: str) -> QueryResult:
        """Execute one request on its sticky worker."""
        results = await self._run(route, [request])
        return results[0]

    async def submit_group(
        self, requests: Sequence[QueryRequest], route: str
    ) -> List[QueryResult]:
        """Execute one batch-window group on its sticky worker."""
        return await self._run(route, list(requests))

    async def _run(
        self, route: str, requests: List[QueryRequest]
    ) -> List[QueryResult]:
        if not self._started:
            raise RuntimeError(
                "EngineWorkerPool.start() must run before submit()"
            )
        worker = self._workers[self.route_index(route)]
        loop = asyncio.get_running_loop()
        lock = worker.lock_for(loop)
        await lock.acquire()
        worker.inflight += 1
        try:
            future = loop.run_in_executor(
                None, self._exchange_with_recovery, worker, requests
            )
        except Exception:
            # executor refused the job (shut down during drain):
            # nothing touched the pipe, the worker is reusable
            worker.inflight -= 1
            lock.release()
            raise

        def _settle(_future: "asyncio.Future[Any]") -> None:
            # fires when the exchange actually finishes (or the job
            # was cancelled before its thread started) — never while
            # it is still on the pipe: the await below is shielded,
            # so cancelling this submit abandons the flight but the
            # exchange runs on and the lock is released only here,
            # once the worker's reply has been consumed and the
            # protocol is back in sync
            worker.inflight -= 1
            lock.release()
            if not _future.cancelled():
                _future.exception()  # abandoned errors are settled

        future.add_done_callback(_settle)
        results = await asyncio.shield(future)
        worker.served += len(requests)
        return [self._stamp(result, worker) for result in results]

    def _stamp(self, result: QueryResult, worker: _Worker) -> QueryResult:
        provenance = dataclasses.replace(
            result.provenance, worker=worker.name
        )
        return dataclasses.replace(result, provenance=provenance)

    # -- pipe exchange (executor thread) -----------------------------------------

    def _exchange_with_recovery(
        self, worker: _Worker, requests: List[QueryRequest]
    ) -> List[QueryResult]:
        """Send/recv with restart-once recovery (PR 4 taxonomy).

        A first worker death is masked: the worker is respawned from
        the seed and cache directory and the request retried after one
        seeded backoff delay.  A second death raises
        :class:`TransientError` — the app answers ``503`` and the
        breaker's transient bucket leaves the spec key closed.

        The whole exchange holds the worker's thread-level ``io_lock``:
        the event-loop lock alone cannot serialize pipe access, because
        a deadline-cancelled submit abandons this thread mid-exchange
        while the loop moves on.
        """
        with worker.io_lock:
            for attempt in (1, 2):
                plan = faults.active_plan()
                crash = plan.take("serve.worker") if plan is not None else False
                try:
                    kind, value = self._exchange(
                        worker, ("run", requests, crash)
                    )
                except WorkerDied as death:
                    if not self._started:
                        # pool is stopping: the pipe went away under
                        # us — don't fork a replacement nobody reaps
                        raise TransientError(
                            f"serve worker w{worker.index} lost during "
                            "pool shutdown"
                        ) from death
                    self.restarts += 1
                    worker.restarts += 1
                    self._respawn(worker)
                    if attempt == 1:
                        time.sleep(self.retry.delay_s("serve.worker", attempt))
                        continue
                    raise TransientError(
                        f"serve worker w{worker.index} died twice executing "
                        "one request; restart + retry exhausted"
                    ) from death
                if kind == "err":
                    raise value
                return value
        raise AssertionError("unreachable")  # pragma: no cover

    def _exchange(self, worker: _Worker, payload: Tuple) -> Tuple[str, Any]:
        try:
            worker.conn.send(payload)
            while not worker.conn.poll(_WAIT_TICK_S):
                if not worker.process.is_alive() and not worker.conn.poll(0):
                    raise WorkerDied(worker.index, worker.process.exitcode)
            return worker.conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerDied(
                worker.index, worker.process.exitcode
            ) from exc

    def _respawn(self, worker: _Worker) -> None:
        """Replace a dead worker's process and pipe in place.

        Runs on an executor thread while the parent's event loop and
        other executor threads are live, so it must not ``os.fork()``
        here — a fork from a multithreaded process can deadlock the
        child on locks other threads hold (malloc arenas, logging,
        other workers' pipes).  Replacements come up through the
        *spawn* context instead: the child rebuilds its context from
        seed + cache, exactly like the spawn-platform fallback in
        :func:`_worker_main`.
        """
        worker.conn.close()
        worker.process.join(timeout=1.0)
        fresh = self._spawn(worker.index, mp=self._respawn_mp)
        worker.process = fresh.process
        worker.conn = fresh.conn

    # -- introspection -----------------------------------------------------------

    def worker_stats(self) -> List[Dict[str, Any]]:
        """Per-worker counters for the ``/stats`` document."""
        return [
            {
                "index": worker.index,
                "pid": worker.process.pid,
                "alive": worker.process.is_alive(),
                "inflight": worker.inflight,
                "served": worker.served,
                "restarts": worker.restarts,
            }
            for worker in self._workers
        ]
