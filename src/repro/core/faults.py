"""Deterministic fault injection for the execution layer.

A :class:`FaultPlan` names *injection sites* and attaches seeded,
counted triggers to them, so every degradation path in the engine —
retry, quarantine, cache-off fallback, ensemble seed re-runs — can be
exercised by tests and CI instead of waiting for production to fail
interestingly.  The threaded sites are:

==================  ============================================================
site                where it fires
==================  ============================================================
``builder.<id>``    just before the registry builder for artifact ``<id>`` runs
``resource.<key>``  before a shared resource (``corpus``, ``sweep:N``) resolves
``cache.read``      inside :meth:`ArtifactCache.get <repro.core.cache.ArtifactCache.get>`
``cache.write``     inside :meth:`ArtifactCache.put <repro.core.cache.ArtifactCache.put>`
``ensemble.worker``  on dispatch of one ensemble seed worker
``dataset.io``      inside :func:`load_corpus <repro.dataset.io.load_corpus>` / ``save_corpus``
``serve.handler``   at the top of the daemon's query handler (event loop)
``serve.engine``    just before the serve layer runs ``execute()`` for a query
``serve.worker``    on dispatch to a serve engine worker (the claimed budget
                    kills that worker process mid-query)
``serve.io``        before the daemon writes a response to a connection
==================  ============================================================

Site patterns are matched with :mod:`fnmatch` globs, so a plan can say
``builder.fig2*`` or just ``builder.*``.  Trigger modes:

* ``fail`` — raise on every match;
* ``fail-once`` / ``fail-n`` — raise for the first (N) matches only,
  counted process-wide under a lock, then stand down;
* ``latency`` — sleep ``delay_s`` before letting the call proceed;
* ``corrupt`` — tell the call site to corrupt its payload (the cache
  treats the entry as damaged, evicts, and rebuilds).

Everything is deterministic: counters make fail-once/fail-N exact, and
the plan carries a ``seed`` so anything derived from randomness stays
pinned.  Plans round-trip through JSON (``FaultPlan.load`` /
``dumps``) and are exposed on the CLI as
``python -m repro run-all --inject PLAN.json``.
"""

from __future__ import annotations

import errno
import fnmatch
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.resilience import (
    BuildError,
    CacheError,
    DataError,
    TransientError,
)

#: Recognized trigger modes.
MODES = ("fail", "fail-once", "fail-n", "latency", "corrupt")

#: Error kinds a failing trigger can raise, name -> constructor.
ERROR_KINDS = ("transient", "data", "build", "cache", "os")

#: The documented injection sites (globs in plans may match these).
KNOWN_SITES = (
    "builder.<artifact id>",
    "resource.<resource key>",
    "cache.read",
    "cache.write",
    "ensemble.worker",
    "dataset.io",
    "serve.handler",
    "serve.engine",
    "serve.worker",
    "serve.io",
)


def _build_exception(kind: str, site: str, message: str) -> BaseException:
    detail = message or f"injected {kind} fault at {site}"
    if kind == "transient":
        return TransientError(detail)
    if kind == "data":
        return DataError(detail)
    if kind == "build":
        return BuildError(detail)
    if kind == "cache":
        return CacheError(detail)
    if kind == "os":
        return OSError(errno.ENOSPC, f"{detail} (simulated ENOSPC)")
    raise ValueError(f"unknown fault error kind {kind!r}")


@dataclass(frozen=True)
class FaultSpec:
    """One named trigger of a :class:`FaultPlan`.

    ``site`` is an fnmatch glob over injection-site names.  ``times``
    bounds how often the trigger fires (``fail-once`` pins it to 1;
    ``None`` means unbounded).  ``error`` picks the exception kind for
    failing modes; ``delay_s`` is the added latency for ``latency``
    mode.
    """

    site: str
    mode: str = "fail-once"
    error: str = "transient"
    times: Optional[int] = None
    delay_s: float = 0.0
    message: str = ""

    def __post_init__(self) -> None:
        if not self.site:
            raise ValueError("fault site must be non-empty")
        if self.mode not in MODES:
            raise ValueError(
                f"unknown fault mode {self.mode!r}; choose from {MODES}"
            )
        if self.error not in ERROR_KINDS:
            raise ValueError(
                f"unknown fault error kind {self.error!r}; "
                f"choose from {ERROR_KINDS}"
            )
        if self.mode == "fail-once":
            object.__setattr__(self, "times", 1)
        if self.mode == "fail-n" and (self.times is None or self.times < 1):
            raise ValueError("fail-n faults need times >= 1")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if self.delay_s < 0.0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")
        if self.mode == "latency" and self.delay_s == 0.0:
            raise ValueError("latency faults need a positive delay_s")

    @property
    def raises(self) -> bool:
        """Whether this trigger raises (vs. delaying or corrupting)."""
        return self.mode in ("fail", "fail-once", "fail-n")

    def build_error(self, site: str) -> BaseException:
        """The exception instance this trigger injects at ``site``."""
        return _build_exception(self.error, site, self.message)

    def matches(self, site: str) -> bool:
        """Glob-match this trigger against a concrete site name."""
        return fnmatch.fnmatchcase(site, self.site)

    def to_dict(self) -> Dict[str, object]:
        """Serialize to the JSON plan format, omitting default fields."""
        entry: Dict[str, object] = {"site": self.site, "mode": self.mode}
        if self.raises:
            entry["error"] = self.error
        if self.times is not None and self.mode != "fail-once":
            entry["times"] = self.times
        if self.mode == "latency":
            entry["delay_s"] = self.delay_s
        if self.message:
            entry["message"] = self.message
        return entry

    @classmethod
    def from_dict(cls, entry: Dict[str, object]) -> "FaultSpec":
        known = {"site", "mode", "error", "times", "delay_s", "message"}
        unknown = set(entry) - known
        if unknown:
            raise ValueError(
                f"unknown fault spec key(s) {sorted(unknown)!r}; "
                f"expected a subset of {sorted(known)!r}"
            )
        if "site" not in entry:
            raise ValueError("fault spec needs a 'site'")
        return cls(
            site=str(entry["site"]),
            mode=str(entry.get("mode", "fail-once")),
            error=str(entry.get("error", "transient")),
            times=(None if entry.get("times") is None
                   else int(entry["times"])),  # type: ignore[arg-type]
            delay_s=float(entry.get("delay_s", 0.0)),  # type: ignore[arg-type]
            message=str(entry.get("message", "")),
        )


class FaultPlan:
    """A set of :class:`FaultSpec` triggers with process-wide counters.

    The plan is the single source of truth about what has fired:
    ``fired(site)`` and :attr:`log` expose the history, ``reset()``
    rearms every counter.  Counter updates are lock-protected so
    callers on several threads see exact fail-once/fail-N semantics.
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0):
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._fired: Dict[int, int] = {}
        self.log: List[Tuple[str, str]] = []

    # -- persistence -------------------------------------------------------------

    @classmethod
    def from_dict(cls, document: Dict[str, object]) -> "FaultPlan":
        """Build a plan from a ``{"seed": ..., "faults": [...]}`` dict."""
        faults = document.get("faults", [])
        if not isinstance(faults, list):
            raise ValueError("'faults' must be a list of fault specs")
        specs = [FaultSpec.from_dict(entry) for entry in faults]
        return cls(specs, seed=int(document.get("seed", 0)))  # type: ignore[arg-type]

    @classmethod
    def loads(cls, text: str) -> "FaultPlan":
        """Parse a plan from its JSON string form."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultPlan":
        """Read a plan from a JSON file (the ``--inject`` format)."""
        return cls.loads(Path(path).read_text())

    def to_dict(self) -> Dict[str, object]:
        """Serialize the plan (specs + seed, not counters) to a dict."""
        return {
            "seed": self.seed,
            "faults": [spec.to_dict() for spec in self.specs],
        }

    def dumps(self) -> str:
        """Serialize the plan to the ``--inject`` JSON format."""
        return json.dumps(self.to_dict(), indent=2)

    # -- pickling (ensemble workers receive decisions, not counters) -------------

    def __getstate__(self) -> Dict[str, object]:
        return {
            "specs": self.specs,
            "seed": self.seed,
            "_fired": dict(self._fired),
            "log": list(self.log),
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.specs = state["specs"]  # type: ignore[assignment]
        self.seed = state["seed"]  # type: ignore[assignment]
        self._fired = dict(state["_fired"])  # type: ignore[arg-type]
        self.log = list(state["log"])  # type: ignore[arg-type]
        self._lock = threading.Lock()

    # -- trigger state -----------------------------------------------------------

    def reset(self) -> None:
        """Rearm every trigger (counters and history cleared)."""
        with self._lock:
            self._fired.clear()
            self.log.clear()

    def fired(self, site: Optional[str] = None) -> int:
        """How many triggers have fired (optionally at one site)."""
        with self._lock:
            if site is None:
                return len(self.log)
            return sum(1 for fired_site, _ in self.log if fired_site == site)

    def _consume(self, site: str, modes: Tuple[str, ...]) -> List[FaultSpec]:
        """Atomically claim budget from matching triggers of ``modes``."""
        claimed: List[FaultSpec] = []
        with self._lock:
            for index, spec in enumerate(self.specs):
                if spec.mode not in modes or not spec.matches(site):
                    continue
                count = self._fired.get(index, 0)
                if spec.times is not None and count >= spec.times:
                    continue
                self._fired[index] = count + 1
                self.log.append((site, spec.mode))
                claimed.append(spec)
        return claimed

    def fire(self, site: str) -> None:
        """Apply latency and failure triggers for ``site``.

        Sleeps for every matching armed latency trigger, then raises
        the first matching armed failure trigger's exception.  Corrupt
        triggers are left for :meth:`should_corrupt` (the call site
        decides what "corrupt" means for its payload).
        """
        claimed = self._consume(site, ("latency", "fail", "fail-once", "fail-n"))
        for spec in claimed:
            if spec.mode == "latency":
                time.sleep(spec.delay_s)
        for spec in claimed:
            if spec.raises:
                raise spec.build_error(site)

    async def fire_async(self, site: str) -> None:
        """:meth:`fire`, but latency triggers sleep on the event loop.

        The serve daemon's handler sites run *on* the asyncio loop; a
        ``time.sleep`` there would stall every connection, so latency
        budget claimed at such a site is spent with ``asyncio.sleep``
        instead.  Failure semantics are identical to :meth:`fire`.
        """
        import asyncio

        claimed = self._consume(site, ("latency", "fail", "fail-once", "fail-n"))
        for spec in claimed:
            if spec.mode == "latency":
                await asyncio.sleep(spec.delay_s)
        for spec in claimed:
            if spec.raises:
                raise spec.build_error(site)

    def take(self, site: str) -> bool:
        """Claim one failure trigger without raising (dispatch decision).

        The ensemble parent uses this to decide — deterministically and
        in seed order — which worker dispatches carry an injected
        failure, since counters cannot be shared with subprocesses.
        """
        return any(
            spec.raises
            for spec in self._consume(site, ("fail", "fail-once", "fail-n"))
        )

    def should_corrupt(self, site: str) -> bool:
        """Claim one corrupt trigger for ``site`` (payload damage)."""
        return bool(self._consume(site, ("corrupt",)))


# -- ambient plan ----------------------------------------------------------------

_ACTIVE: Optional[FaultPlan] = None
_ACTIVE_LOCK = threading.Lock()


class _Installed:
    """Context manager produced by :func:`install`."""

    def __init__(self, plan: Optional[FaultPlan]):
        self._plan = plan
        self._previous: Optional[FaultPlan] = None

    def __enter__(self) -> Optional[FaultPlan]:
        global _ACTIVE
        with _ACTIVE_LOCK:
            self._previous = _ACTIVE
            _ACTIVE = self._plan
        return self._plan

    def __exit__(self, *exc_info: object) -> None:
        global _ACTIVE
        with _ACTIVE_LOCK:
            _ACTIVE = self._previous


def install(plan: Optional[FaultPlan]) -> _Installed:
    """Install ``plan`` as the ambient plan for a ``with`` block.

    Sites that cannot receive a plan argument (e.g. ``dataset.io``
    free functions) consult the ambient plan through :func:`fire`.
    """
    return _Installed(plan)


def active_plan() -> Optional[FaultPlan]:
    """The currently installed ambient plan, if any."""
    return _ACTIVE


def fire(site: str, plan: Optional[FaultPlan] = None) -> None:
    """Fire ``site`` on ``plan`` or the ambient plan; no-op without one."""
    plan = plan if plan is not None else _ACTIVE
    if plan is not None:
        plan.fire(site)


async def fire_async(site: str, plan: Optional[FaultPlan] = None) -> None:
    """Async :func:`fire` against ``plan`` or the ambient plan."""
    plan = plan if plan is not None else _ACTIVE
    if plan is not None:
        await plan.fire_async(site)


def should_corrupt(site: str, plan: Optional[FaultPlan] = None) -> bool:
    """Corrupt-trigger check against ``plan`` or the ambient plan."""
    plan = plan if plan is not None else _ACTIVE
    return plan.should_corrupt(site) if plan is not None else False


def iter_sites(plan: FaultPlan) -> Iterator[str]:
    """The site globs of a plan, in spec order (for rendering/docs)."""
    for spec in plan.specs:
        yield spec.site
