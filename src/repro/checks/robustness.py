"""Robustness rules (REP50x): failures must stay visible and bounded.

The fault-tolerant execution layer (:mod:`repro.core.resilience`,
:mod:`repro.core.faults`) only delivers its contract — every failure
retried, recorded in the ledger, or quarantined — if no code path
swallows an exception or blocks forever first.  This family flags the
patterns that silently defeat it:

* REP501 — a bare ``except:`` handler catches ``KeyboardInterrupt``
  and ``SystemExit`` too, hiding even deliberate shutdown (a handler
  that re-raises is allowed);
* REP502 — a broad handler (``Exception``/``BaseException``/bare) in a
  pooled builder or worker that neither re-raises nor uses the caught
  exception swallows the failure: the executor's ledger never sees it
  and a wrong artifact looks like a built one;
* REP503 — an untimed pool wait (``wait()``/``as_completed()`` without
  ``timeout``, ``Future.result()`` with no arguments) can block the
  engine forever on one lost worker, reported as a warning;
* REP504 — ``raise NewError(...)`` inside an except handler without
  ``from`` drops the explicit cause chain the failure ledger records
  (``from err`` to chain, ``from None`` to suppress on purpose),
  reported as a warning;
* REP506 — an unbounded socket wait in the serve path: ``await
  x.drain()`` / ``await x.wait_closed()`` awaited directly (outside
  ``asyncio.wait_for``) parks the daemon's connection handler forever
  on one stuck peer, defeating the overload layer's promise that every
  wait is bounded by a deadline or an I/O timeout;
* REP505 — a ``multiprocessing.shared_memory.SharedMemory`` segment
  created (or attached) outside a context manager, in a scope with no
  ``try``/``finally`` that calls ``.close()``/``.unlink()``, leaks a
  kernel object past the process: the serve engine workers'
  publish/attach discipline is reclaim-on-every-path.  A segment
  that *escapes* its creating scope — returned, yielded, stored on
  ``self``, or passed onward — is exempt here: the obligation moves
  with it, and the REP51x lifetime family audits the receiving side
  through the call graph.

Builder/worker discovery for REP502 is shared with the concurrency
family: builders are ``Study`` methods named by literal
``ArtifactSpec`` calls anywhere in the scanned set, workers are
top-level functions passed by name inside pool-importing modules.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.checks.astutil import import_aliases, resolve_call
from repro.checks.concurrency import (
    _imports_pool,
    _pooled_functions,
    in_serve_path,
)
from repro.checks.model import (
    Finding,
    Project,
    Rule,
    Severity,
    SourceFile,
    finding,
)

#: Exception names whose handlers count as "broad" for REP502.
_BROAD_HANDLERS = {"Exception", "BaseException"}

#: Pool-synchronisation callables that accept a ``timeout`` keyword.
_TIMED_WAITS = {
    "concurrent.futures.wait",
    "concurrent.futures.as_completed",
}


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    """Whether the handler body contains a bare ``raise``."""
    return any(
        isinstance(node, ast.Raise) and node.exc is None
        for node in ast.walk(handler)
    )


def _check_bare_except(ctx: SourceFile) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler) or node.type is not None:
            continue
        if _handler_reraises(node):
            continue
        yield finding(
            RULES["REP501"], ctx.rel, node,
            "bare 'except:' also catches KeyboardInterrupt/SystemExit",
            hint="catch Exception (or a taxonomy class from "
            "repro.core.resilience) so shutdown stays deliverable",
        )


def _handler_is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    kinds = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    return any(
        isinstance(kind, ast.Name) and kind.id in _BROAD_HANDLERS
        for kind in kinds
    )


def _handler_uses_exception(handler: ast.ExceptHandler) -> bool:
    """Whether the body raises, or reads the bound exception name."""
    if any(isinstance(node, ast.Raise) for node in ast.walk(handler)):
        return True
    if handler.name is None:
        return False
    return any(
        isinstance(node, ast.Name)
        and node.id == handler.name
        and isinstance(node.ctx, ast.Load)
        for node in ast.walk(handler)
    )


def _check_swallowed(project: Project) -> Iterator[Finding]:
    for ctx, func, kind in _pooled_functions(project):
        assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _handler_is_broad(node) or _handler_uses_exception(node):
                continue
            yield finding(
                RULES["REP502"], ctx.rel, node,
                f"{kind} {func.name!r} swallows a broad exception; the "
                "failure never reaches the executor's ledger",
                hint="let it propagate (the engine retries/quarantines), "
                "or re-raise a taxonomy error with 'from exc'",
            )


def _check_untimed_waits(ctx: SourceFile) -> Iterator[Finding]:
    if not _imports_pool(ctx.tree):
        return
    aliases = import_aliases(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        has_timeout = any(kw.arg == "timeout" for kw in node.keywords)
        path = resolve_call(node.func, aliases)
        if path in _TIMED_WAITS and not has_timeout:
            name = path.rsplit(".", 1)[-1]
            yield finding(
                RULES["REP503"], ctx.rel, node,
                f"{name}() without a timeout can block the engine forever "
                "on one lost worker",
                hint="wait in bounded ticks, e.g. "
                "wait(pending, timeout=_WAIT_TICK_S)",
            )
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "result"
            and not node.args
            and not has_timeout
        ):
            yield finding(
                RULES["REP503"], ctx.rel, node,
                "Future.result() without a timeout can block forever on a "
                "lost worker",
                hint="call result(timeout=0) on futures already reported "
                "done, or pass an explicit budget",
            )


def _raised_in_handlers(
    func_or_module: ast.AST,
) -> Iterator[ast.Raise]:
    for node in ast.walk(func_or_module):
        if not isinstance(node, ast.ExceptHandler):
            continue
        for inner in ast.walk(node):
            if isinstance(inner, ast.Raise):
                yield inner


def _check_unchained_raise(ctx: SourceFile) -> Iterator[Finding]:
    for node in _raised_in_handlers(ctx.tree):
        if node.exc is None or node.cause is not None:
            continue
        if not isinstance(node.exc, ast.Call):
            continue  # re-raising a bound name keeps its chain
        name = _callable_name(node.exc.func)
        yield finding(
            RULES["REP504"], ctx.rel, node,
            f"raise {name}(...) inside an except handler drops the "
            "explicit cause chain",
            hint="use 'raise ... from err' to chain (the failure ledger "
            "records the chain) or 'from None' to suppress on purpose",
        )


def _callable_name(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return "<exception>"


#: The shared-memory factory REP505 tracks (resolved through imports).
_SHM_FACTORY = "multiprocessing.shared_memory.SharedMemory"

#: Attribute calls in a ``finally`` that count as reclaiming a segment.
_SHM_FINALIZERS = {"close", "unlink"}


def _own_scope_nodes(body) -> Iterator[ast.AST]:
    """Every node of a scope's own body, not descending into nested defs."""
    stack = [
        node
        for node in body
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
    ]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            stack.append(child)


def _scope_bodies(tree: ast.Module) -> Iterator[list]:
    """The module body plus every function/method body in the file."""
    yield tree.body
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.body


def _scope_reclaims(own_nodes) -> bool:
    """Whether any ``finally`` in the scope calls ``close``/``unlink``."""
    for node in own_nodes:
        if not isinstance(node, ast.Try) or not node.finalbody:
            continue
        for final in node.finalbody:
            for inner in ast.walk(final):
                if (
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Attribute)
                    and inner.func.attr in _SHM_FINALIZERS
                ):
                    return True
    return False


def _check_leaked_sharedmem(ctx: SourceFile) -> Iterator[Finding]:
    from repro.checks.lifetime import analyze_scope

    aliases = import_aliases(ctx.tree)
    for body in _scope_bodies(ctx.tree):
        own = list(_own_scope_nodes(body))
        segments = [
            node
            for node in own
            if isinstance(node, ast.Call)
            and resolve_call(node.func, aliases) == _SHM_FACTORY
        ]
        if not segments:
            continue
        managed = set()
        for node in own:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    for inner in ast.walk(item.context_expr):
                        managed.add(id(inner))
        use = analyze_scope(own)
        reclaimed = _scope_reclaims(own)
        for call in segments:
            if id(call) in managed or reclaimed:
                continue
            if id(call) in use.escaped_calls:
                continue  # handed onward: the REP51x family's territory
            names = use.bound_to.get(id(call), [])
            if names and any(n in use.escaped_names for n in names):
                continue
            yield finding(
                RULES["REP505"], ctx.rel, call,
                "SharedMemory segment is never reclaimed: the kernel "
                "object outlives the process unless every path calls "
                "close() (and unlink() on the owner)",
                hint="wrap the segment in try/finally calling "
                "close()/unlink(), or manage it with a context manager",
            )


#: Stream methods whose bare await can park a handler forever.
_UNBOUNDED_STREAM_WAITS = {"drain", "wait_closed"}


def _check_unbounded_stream_waits(ctx: SourceFile) -> Iterator[Finding]:
    if not in_serve_path(ctx):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Await):
            continue
        call = node.value
        if not isinstance(call, ast.Call):
            continue
        if not isinstance(call.func, ast.Attribute):
            continue
        if call.func.attr not in _UNBOUNDED_STREAM_WAITS:
            continue
        yield finding(
            RULES["REP506"], ctx.rel, node,
            f"bare 'await ....{call.func.attr}()' in the serve path can "
            "park the connection handler forever on one stuck peer",
            hint="bound it: await asyncio.wait_for("
            f"x.{call.func.attr}(), _IO_TIMEOUT_S)",
        )


RULES = {
    "REP501": Rule(
        "REP501", "bare-except", Severity.ERROR,
        "bare except handlers that do not re-raise",
        scope="file", file_checker=_check_bare_except,
    ),
    "REP502": Rule(
        "REP502", "swallowed-exception", Severity.ERROR,
        "pooled builders/workers swallowing broad exceptions",
        scope="project", project_checker=_check_swallowed,
    ),
    "REP503": Rule(
        "REP503", "untimed-pool-wait", Severity.WARNING,
        "pool waits and Future.result calls without a timeout",
        scope="file", file_checker=_check_untimed_waits,
    ),
    "REP504": Rule(
        "REP504", "unchained-raise", Severity.WARNING,
        "new exceptions raised in handlers without 'from'",
        scope="file", file_checker=_check_unchained_raise,
    ),
    "REP505": Rule(
        "REP505", "leaked-shared-memory", Severity.ERROR,
        "SharedMemory segments without close()/unlink() in a finally "
        "block or context manager",
        scope="file", file_checker=_check_leaked_sharedmem,
    ),
    "REP506": Rule(
        "REP506", "unbounded-stream-wait", Severity.ERROR,
        "bare await drain()/wait_closed() in the serve path (no "
        "enclosing asyncio.wait_for)",
        scope="file", file_checker=_check_unbounded_stream_waits,
    ),
}
