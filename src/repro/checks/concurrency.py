"""Concurrency-safety rules (REP30x): pooled code must not mutate.

The serve daemon's executor threads run registered builders over one
shared :class:`Study` (and one ``QueryContext``) per seed, and the
ensemble engine ships worker functions to a process pool.  Concurrent
answers equal serial ones only while those functions are pure readers
of shared state.  This family flags the writes that would break it:

* REP301 — ``global`` declarations with writes;
* REP302 — class-attribute writes (``Cls.attr = ...``,
  ``self.__class__.attr = ...``) — shared across every instance;
* REP303 — mutation of module-level state (item/attr stores or
  mutating method calls on module-level names);
* REP304 — instance-state writes from a registered builder (the Study
  is shared by every concurrently running builder);
* REP305 — mutable default arguments (shared across calls *and*
  threads), reported tree-wide as a warning;
* REP306 — an unbounded ``asyncio.Queue()`` in the serve path: with
  no ``maxsize`` the queue absorbs every burst instead of pushing
  back, so overload turns into unbounded memory growth and latency —
  admission control (:mod:`repro.serve.resilience`) requires every
  serve-side queue to carry an explicit bound;
* REP307 — an engine/builder entry point (``execute``,
  ``build_artifact``) called directly in a coroutine's own scope in
  the serve path: seconds of numpy work run on the event loop and
  stall every concurrent request.  Engine calls must be dispatched
  through ``run_in_executor`` or the worker pool
  (:mod:`repro.serve.workers`); calls inside nested *sync* functions
  and lambdas are exempt — those are the offload targets.

Builder discovery is cross-file: builder names come from the literal
``ArtifactSpec``/``_spec`` calls anywhere in the scanned set and are
matched against methods of any ``Study`` class in the set.  Worker
discovery is per-module: in a module that imports a pool executor,
any top-level function referenced by name (rather than called) is
treated as pool-dispatched.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from repro.checks.astutil import (
    import_aliases,
    local_bindings,
    module_level_classes,
    module_level_names,
    resolve_call,
    root_name,
)
from repro.checks.model import (
    Finding,
    Project,
    Rule,
    Severity,
    SourceFile,
    finding,
)
from repro.checks.registry_rules import extract_spec_literals

#: Method names that mutate their receiver in place.
_MUTATORS = {
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "add", "discard", "update", "setdefault", "sort", "reverse",
    "appendleft", "extendleft", "popleft",
}

_POOL_NAMES = {"ThreadPoolExecutor", "ProcessPoolExecutor", "Pool"}


def _builder_names(project: Project) -> Set[str]:
    names: Set[str] = set()
    for ctx in project.files:
        for spec in extract_spec_literals(ctx.tree):
            builder = spec.builder
            if isinstance(builder, ast.Constant) and isinstance(builder.value, str):
                names.add(builder.value)
            elif isinstance(builder, ast.Name):
                names.add(builder.id)
    return names


def _imports_pool(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if any(item.name in _POOL_NAMES for item in node.names):
                return True
        elif isinstance(node, ast.Import):
            if any(
                item.name.startswith(("concurrent.futures", "multiprocessing"))
                for item in node.names
            ):
                return True
    return False


def _referenced_functions(tree: ast.Module) -> Set[str]:
    """Top-level functions passed around by name (pool-dispatched)."""
    defined = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    referenced: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        for value in list(node.args) + [k.value for k in node.keywords]:
            if isinstance(value, ast.Name) and value.id in defined:
                referenced.add(value.id)
    return referenced


def _pooled_functions(
    project: Project,
) -> Iterator[Tuple[SourceFile, ast.AST, str]]:
    """(file, function node, kind) for every pooled execution context."""
    builders = _builder_names(project)
    for ctx in project.files:
        for node in ctx.tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "Study":
                for item in node.body:
                    if (
                        isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and item.name in builders
                    ):
                        yield ctx, item, "builder"
        if _imports_pool(ctx.tree):
            workers = _referenced_functions(ctx.tree)
            for node in ctx.tree.body:
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name in workers
                ):
                    yield ctx, node, "worker"


def _scan_writes(
    ctx: SourceFile, func: ast.AST, kind: str
) -> Iterator[Finding]:
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    module_names = module_level_names(ctx.tree)
    module_classes = module_level_classes(ctx.tree)
    locals_ = local_bindings(func)
    global_decls: Set[str] = set()
    label = f"{kind} {func.name!r}"

    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            global_decls.update(node.names)

    stored_names = {
        node.id
        for node in ast.walk(func)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            written = [name for name in node.names if name in stored_names]
            if written:
                yield finding(
                    RULES["REP301"], ctx.rel, node,
                    f"{label} writes module global(s) {written} under a "
                    "pooled executor",
                    hint="return the value instead; pooled code must not "
                    "mutate shared module state",
                )

    for node in ast.walk(func):
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            yield from _classify_store(
                ctx, node, target, label, kind,
                module_names, module_classes, locals_, global_decls,
            )
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATORS:
                receiver = node.func.value
                root = root_name(receiver)
                if root is None:
                    continue
                if root == "self" and kind == "builder":
                    yield finding(
                        RULES["REP304"], ctx.rel, node,
                        f"{label} mutates shared Study state via "
                        f"self...{node.func.attr}()",
                        hint="builders run concurrently over one Study; "
                        "memoize through a locked helper instead",
                    )
                elif root in module_names and root not in locals_:
                    yield finding(
                        RULES["REP303"], ctx.rel, node,
                        f"{label} mutates module-level {root!r} via "
                        f".{node.func.attr}()",
                        hint="pooled code must not mutate module state; "
                        "build and return a new value",
                    )


def _classify_store(
    ctx: SourceFile,
    stmt: ast.AST,
    target: ast.AST,
    label: str,
    kind: str,
    module_names: Set[str],
    module_classes: Set[str],
    locals_: Set[str],
    global_decls: Set[str],
) -> Iterator[Finding]:
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _classify_store(
                ctx, stmt, element, label, kind,
                module_names, module_classes, locals_, global_decls,
            )
        return
    if isinstance(target, ast.Name):
        return  # plain name stores are locals (REP301 covers globals)
    root = root_name(target)
    if root is None:
        return
    if root == "self":
        if _is_dunder_class_write(target):
            yield finding(
                RULES["REP302"], ctx.rel, stmt,
                f"{label} writes a class attribute via self.__class__",
                hint="class attributes are shared across every instance "
                "and thread",
            )
        elif kind == "builder":
            yield finding(
                RULES["REP304"], ctx.rel, stmt,
                f"{label} writes instance state on the shared Study",
                hint="builders run concurrently over one Study; only the "
                "locked _sweep-style helpers may memoize onto it",
            )
        return
    if root in locals_ and root not in global_decls:
        return
    if root in module_classes:
        yield finding(
            RULES["REP302"], ctx.rel, stmt,
            f"{label} writes attribute of module-level class {root!r}",
            hint="class attributes are shared across every instance and "
            "thread",
        )
    elif root in module_names:
        yield finding(
            RULES["REP303"], ctx.rel, stmt,
            f"{label} writes into module-level {root!r}",
            hint="pooled code must not mutate module state; build and "
            "return a new value",
        )


def _is_dunder_class_write(target: ast.AST) -> bool:
    node = target
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute) and node.attr == "__class__":
            return True
        node = node.value
    return False


def _concurrency_project_check(project: Project) -> Iterator[Finding]:
    for ctx, func, kind in _pooled_functions(project):
        yield from _scan_writes(ctx, func, kind)


def _check_mutable_defaults(ctx: SourceFile) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set))
            if isinstance(default, ast.Call) and isinstance(default.func, ast.Name):
                mutable = default.func.id in ("list", "dict", "set")
            if mutable:
                yield finding(
                    RULES["REP305"], ctx.rel, default,
                    f"function {node.name!r} has a mutable default argument",
                    hint="shared across calls and threads; use None plus an "
                    "in-body default",
                )


#: asyncio queue factories that accept a ``maxsize`` bound.
_ASYNC_QUEUES = {"asyncio.Queue", "asyncio.LifoQueue", "asyncio.PriorityQueue"}


def in_serve_path(ctx: SourceFile) -> bool:
    """Whether this file belongs to a serving layer (module or path)."""
    if "serve" in ctx.module.split("."):
        return True
    normalized = ctx.rel.replace("\\", "/")
    return any(part == "serve" for part in normalized.split("/"))


def _queue_is_unbounded(node: ast.Call) -> bool:
    """No maxsize, or an explicit literal 0 (asyncio's 'infinite')."""
    bound = None
    if node.args:
        bound = node.args[0]
    for keyword in node.keywords:
        if keyword.arg == "maxsize":
            bound = keyword.value
    if bound is None:
        return True
    return isinstance(bound, ast.Constant) and bound.value == 0


def _check_unbounded_queues(ctx: SourceFile) -> Iterator[Finding]:
    if not in_serve_path(ctx):
        return
    aliases = import_aliases(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        path = resolve_call(node.func, aliases)
        if path in _ASYNC_QUEUES and _queue_is_unbounded(node):
            name = path.rsplit(".", 1)[-1]
            yield finding(
                RULES["REP306"], ctx.rel, node,
                f"asyncio.{name}() without a maxsize in the serve path "
                "absorbs bursts instead of pushing back",
                hint="give every serve-side queue an explicit bound "
                "(maxsize=N) so overload sheds instead of growing memory",
            )


#: Engine/builder entry points that block the event loop when called
#: from a coroutine (each runs seconds of columnar numpy work).
_ENGINE_CALLS = {
    "repro.api.execute",
    "repro.api.dispatch.execute",
    "repro.api.build_artifact",
    "repro.api.dispatch.build_artifact",
}


def _coroutine_scope_calls(func: ast.AsyncFunctionDef) -> Iterator[ast.Call]:
    """Call nodes executed in the coroutine's own scope.

    Nested sync functions, lambdas and nested coroutines are skipped:
    the sync ones are the ``run_in_executor`` offload targets (where a
    direct engine call is exactly right), and nested coroutines get
    their own scan.
    """
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _check_loop_blocking_engine(ctx: SourceFile) -> Iterator[Finding]:
    if not in_serve_path(ctx):
        return
    aliases = import_aliases(ctx.tree)
    for func in ast.walk(ctx.tree):
        if not isinstance(func, ast.AsyncFunctionDef):
            continue
        for node in _coroutine_scope_calls(func):
            path = resolve_call(node.func, aliases)
            if path in _ENGINE_CALLS:
                name = path.rsplit(".", 1)[-1]
                yield finding(
                    RULES["REP307"], ctx.rel, node,
                    f"coroutine {func.name!r} calls {name}() directly on "
                    "the event loop; the engine blocks every concurrent "
                    "request while it runs",
                    hint="dispatch engine work through run_in_executor or "
                    "the serve worker pool so the loop keeps answering",
                )


RULES = {
    "REP301": Rule(
        "REP301", "global-write", Severity.ERROR,
        "pooled code writing module globals",
        scope="project", project_checker=_concurrency_project_check,
    ),
    "REP302": Rule(
        "REP302", "class-attribute-write", Severity.ERROR,
        "pooled code writing class attributes",
        scope="project", project_checker=None,
    ),
    "REP303": Rule(
        "REP303", "module-state-mutation", Severity.ERROR,
        "pooled code mutating module-level state",
        scope="project", project_checker=None,
    ),
    "REP304": Rule(
        "REP304", "shared-study-write", Severity.ERROR,
        "builders writing instance state on the shared Study",
        scope="project", project_checker=None,
    ),
    "REP305": Rule(
        "REP305", "mutable-default", Severity.WARNING,
        "mutable default arguments",
        scope="file", file_checker=_check_mutable_defaults,
    ),
    "REP306": Rule(
        "REP306", "unbounded-serve-queue", Severity.ERROR,
        "unbounded asyncio queues in the serve path",
        scope="file", file_checker=_check_unbounded_queues,
    ),
    "REP307": Rule(
        "REP307", "loop-blocking-engine-call", Severity.ERROR,
        "engine calls awaited directly on the serve event loop",
        scope="file", file_checker=_check_loop_blocking_engine,
    ),
}

#: The single project checker that emits REP301-REP304.
PROJECT_RULES = ("REP301",)
