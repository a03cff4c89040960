"""``repro serve``: the async query daemon.

A stdlib-only asyncio HTTP/JSON server that loads the corpus, column
store and warm artifact cache once, then answers
:mod:`repro.api` queries with two latency optimizations on top of the
dispatch table:

* **coalescing** -- N in-flight requests with the same spec key share
  one computation (the same fingerprint+spec hash the disk cache uses
  keys the in-flight task map);
* **batching** -- compatible fleet queries (placement / cap / replay
  over the same cohort) arriving within a few-millisecond window are
  executed as one group against a shared columnar engine.

Compute scales past one core through the process-pool worker tier
(:mod:`repro.serve.workers`): ``--workers N`` pre-forks N engine
workers that inherit the parent's warm corpus state by fork
(copy-on-write pages) and serve bit-identical payloads, with sticky
spec-key routing and restart-once crash recovery.

``python -m repro serve --port 8631`` starts it; POST a request JSON
to ``/query`` and read back the :class:`~repro.api.QueryResult`
envelope.

The daemon stays *correct under overload* (:mod:`repro.serve.
resilience`): bounded admission with 503 shedding, per-request
deadlines answered with 504, a per-spec circuit breaker, and a
graceful drain on SIGTERM/``stop()``.
"""

from repro.serve.app import ServeApp, ServeStats
from repro.serve.client import ServeClient
from repro.serve.daemon import DaemonHandle, run_daemon, start_daemon_thread
from repro.serve.resilience import (
    AdmissionController,
    CircuitBreaker,
    Deadline,
    ServeLimits,
)
from repro.serve.workers import EngineWorkerPool

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "DaemonHandle",
    "Deadline",
    "EngineWorkerPool",
    "ServeApp",
    "ServeClient",
    "ServeLimits",
    "ServeStats",
    "run_daemon",
    "start_daemon_thread",
]
