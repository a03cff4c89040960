"""Hot-path performance lints (REP6xx): keep batch kernels batch.

The columnar and sharded tiers earn their day-replay/out-of-core
headlines by never iterating an ndarray at Python level.  These rules
leave loops over plain Python lists alone, and a list walk is the
faster form only while it stays small: the columnar engine walks its
assigned rows over answers kept as lists at construction, which beats
the numpy masks it replaced up to ~12,000 assigned rows and is about
2x slower at ~36,000.  So a per-query list walk belongs in a hot
kernel only where the rows it visits stay under that size.  A single accidental ``for row in arr:`` or ``float(arr[i])`` inside
one of those kernels is bit-identical and test-invisible — it only
shows up as a 100x wall slowdown at fleet scale.  This family makes
the discipline mechanical, scoped so the rest of the tree keeps its
freedom:

* a function is **hot** when its module is one of the batch/sharded
  kernels (``batch_placement``, ``batch_trace``, ``fleet_arrays``,
  ``sharded``) or when it carries a ``# hot`` marker on or just above
  its ``def`` line;
* array-ness comes from the dataflow lattice, including cross-module
  "returns an ndarray" summaries through the call graph, so a loop
  over ``helper()`` in another file is still caught.

Rules (deliberate scalar fallbacks — the bit-identity take-loops —
stay, excused by an inline ``# repro-checks: ignore[REP60x]`` or a
def-line suppression that documents why):

* REP601 — ``for``/``while`` iterating an ndarray (including
  ``range(len(arr))`` counting loops) runs the interpreter per
  element;
* REP602 — ``.item()``/``.tolist()``/``float()``/``int()`` applied
  per element inside a loop boxes every scalar;
* REP603 — a Python scalar accumulator folded over array elements
  upcasts through Python floats and serializes the reduction
  (warning: the parity folds do this on purpose);
* REP604 — ``np.append`` anywhere, or concatenation inside a loop,
  reallocates the array per iteration;
* REP605 — ``.copy()`` on a freshly materialized temporary copies
  memory nobody else references (warning).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.checks.astutil import has_marker, import_aliases, resolve_call
from repro.checks.dataflow import (
    ArrayEvaluator,
    array_summaries,
    iter_scoped_functions,
    loops_in,
    name_roots,
    nodes_under,
)
from repro.checks.model import (
    Finding,
    Project,
    Rule,
    Severity,
    SourceFile,
    finding,
)

#: Module leaves whose every function is hot (the batch/sharded tiers).
HOT_MODULE_LEAVES = {
    "batch_placement", "batch_trace", "fleet_arrays", "sharded",
}

#: ``# hot`` (optionally ``# hot: why``) on/above a def marks it hot.
HOT_MARKER_RE = re.compile(r"#\s*hot\b")

#: numpy growth calls: append is quadratic anywhere, the rest in loops.
_GROWTH_ANYWHERE = {"numpy.append"}
_GROWTH_IN_LOOP = {
    "numpy.concatenate", "numpy.vstack", "numpy.hstack",
    "numpy.column_stack", "numpy.stack", "numpy.row_stack",
}


def hot_functions(
    project: Project,
) -> Iterator[Tuple[SourceFile, ast.AST]]:
    """Every function in hot scope: hot modules plus ``# hot`` marks."""
    for ctx in project.files:
        module_hot = ctx.module.rsplit(".", 1)[-1] in HOT_MODULE_LEAVES
        for func, _inherited in iter_scoped_functions(ctx.tree):
            if module_hot or has_marker(
                ctx.lines, func.lineno, HOT_MARKER_RE
            ):
                yield ctx, func


def _evaluator(
    func: ast.AST, ctx: SourceFile, project: Project
) -> ArrayEvaluator:
    summaries, local_calls = array_summaries(project)
    return ArrayEvaluator(func, ctx, summaries, local_calls)


def _loop_iterates_array(
    loop: ast.AST, arrays: ArrayEvaluator
) -> Optional[str]:
    """A description of the array iteration, or None when clean."""
    if isinstance(loop, (ast.For, ast.AsyncFor)):
        iterator = loop.iter
        if arrays.is_array(iterator):
            return "iterates an ndarray element by element"
        if (
            isinstance(iterator, ast.Call)
            and isinstance(iterator.func, ast.Name)
            and iterator.func.id == "range"
            and len(iterator.args) == 1
        ):
            inner = iterator.args[0]
            if (
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Name)
                and inner.func.id == "len"
                and len(inner.args) == 1
                and arrays.is_array(inner.args[0])
            ):
                return "counts over range(len(<ndarray>))"
        return None
    test = getattr(loop, "test", None)
    if test is not None and arrays.is_array(test):
        return "spins on an ndarray condition"
    return None


def _check_loops(
    ctx: SourceFile, func: ast.AST, arrays: ArrayEvaluator
) -> Iterator[Finding]:
    for loop in loops_in(func):
        reason = _loop_iterates_array(loop, arrays)
        if reason is not None:
            yield finding(
                RULES["REP601"], ctx.rel, loop,
                f"hot function {func.name!r}: Python-level loop {reason}",
                hint="vectorize with ufuncs/fancy indexing, or document "
                "the deliberate scalar fallback with "
                "'# repro-checks: ignore[REP601]'",
            )


def _loop_bodies(func: ast.AST) -> Iterator[ast.AST]:
    for loop in loops_in(func):
        yield from nodes_under(loop)


def _check_per_element(
    ctx: SourceFile, func: ast.AST, arrays: ArrayEvaluator
) -> Iterator[Finding]:
    seen: Set[int] = set()
    for loop in loops_in(func):
        targets: Set[str] = set()
        if isinstance(loop, (ast.For, ast.AsyncFor)):
            targets = {
                n.id
                for n in ast.walk(loop.target)
                if isinstance(n, ast.Name)
            }
        for node in nodes_under(loop):
            if not isinstance(node, ast.Call) or id(node) in seen:
                continue
            if isinstance(node.func, ast.Attribute):
                if node.func.attr in ("item", "tolist") and arrays.is_array(
                    node.func.value
                ):
                    seen.add(id(node))
                    yield finding(
                        RULES["REP602"], ctx.rel, node,
                        f"hot function {func.name!r}: per-element "
                        f".{node.func.attr}() inside a loop boxes every "
                        "scalar",
                        hint="convert once outside the loop (.tolist() the "
                        "whole column) or stay in array land",
                    )
            elif (
                isinstance(node.func, ast.Name)
                and node.func.id in ("float", "int")
                and len(node.args) == 1
                and isinstance(node.args[0], ast.Subscript)
                and arrays.is_array(node.args[0])
                # Per element means indexed by the loop variable; a
                # once-per-chunk boxing (index constant or derived
                # inside the body) is the out-of-core idiom, not a
                # lint.
                and bool(name_roots(node.args[0].slice) & targets)
            ):
                seen.add(id(node))
                yield finding(
                    RULES["REP602"], ctx.rel, node,
                    f"hot function {func.name!r}: {node.func.id}(arr[i]) "
                    "inside a loop converts one element per iteration",
                    hint="use arr.astype(...) / .tolist() once outside the "
                    "loop",
                )


def _scalar_locals(func: ast.AST) -> Set[str]:
    """Names assigned a numeric literal somewhere in the function."""
    scalars: Set[str] = set()
    for node in nodes_under(func):
        if isinstance(node, ast.Assign) and isinstance(
            node.value, ast.Constant
        ):
            if isinstance(node.value.value, (int, float)):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        scalars.add(target.id)
    return scalars


def _reads_array_element(expr: ast.AST, arrays: ArrayEvaluator) -> bool:
    return any(
        isinstance(node, ast.Subscript) and arrays.is_array(node.value)
        for node in ast.walk(expr)
    )


def _check_scalar_reduction(
    ctx: SourceFile, func: ast.AST, arrays: ArrayEvaluator
) -> Iterator[Finding]:
    scalars = _scalar_locals(func)
    for node in _loop_bodies(func):
        target: Optional[ast.AST] = None
        value: Optional[ast.AST] = None
        if isinstance(node, ast.AugAssign):
            target, value = node.target, node.value
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if (
                isinstance(target, ast.Name)
                and isinstance(node.value, ast.BinOp)
                and any(
                    isinstance(n, ast.Name) and n.id == target.id
                    for n in ast.walk(node.value)
                )
            ):
                value = node.value
        if (
            target is not None
            and value is not None
            and isinstance(target, ast.Name)
            and target.id in scalars
            and _reads_array_element(value, arrays)
        ):
            yield finding(
                RULES["REP603"], ctx.rel, node,
                f"hot function {func.name!r}: Python scalar "
                f"{target.id!r} accumulates ndarray elements one at a "
                "time (upcasts through Python floats, serializes the "
                "reduction)",
                hint="use np.sum/np.add.reduce, or mark the deliberate "
                "bit-identity fold with '# repro-checks: ignore[REP603]'",
            )


def _check_growth(
    ctx: SourceFile, func: ast.AST
) -> Iterator[Finding]:
    aliases = import_aliases(ctx.tree)
    in_loop = {id(node) for node in _loop_bodies(func)}
    for node in nodes_under(func):
        if not isinstance(node, ast.Call):
            continue
        path = resolve_call(node.func, aliases)
        if path in _GROWTH_ANYWHERE:
            yield finding(
                RULES["REP604"], ctx.rel, node,
                f"hot function {func.name!r}: np.append reallocates the "
                "whole array per call",
                hint="collect into a list and concatenate once, or "
                "preallocate with np.empty",
            )
        elif path in _GROWTH_IN_LOOP and id(node) in in_loop:
            leaf = path.rsplit(".", 1)[-1]
            yield finding(
                RULES["REP604"], ctx.rel, node,
                f"hot function {func.name!r}: np.{leaf} inside a loop "
                "grows the array quadratically",
                hint="append parts to a list in the loop and "
                f"np.{leaf} once after it",
            )


def _check_redundant_copy(
    ctx: SourceFile, func: ast.AST, arrays: ArrayEvaluator
) -> Iterator[Finding]:
    for node in nodes_under(func):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "copy"
            and not node.args
            and not node.keywords
        ):
            continue
        receiver = node.func.value
        fresh = isinstance(receiver, (ast.BinOp, ast.UnaryOp)) or (
            isinstance(receiver, ast.Call)
        )
        if fresh and arrays.is_array(receiver):
            yield finding(
                RULES["REP605"], ctx.rel, node,
                f"hot function {func.name!r}: .copy() of a freshly "
                "materialized temporary duplicates memory nobody else "
                "references",
                hint="drop the .copy(); the expression already owns its "
                "buffer",
            )


def _hotpath_project_check(project: Project) -> Iterator[Finding]:
    for ctx, func in hot_functions(project):
        arrays = _evaluator(func, ctx, project)
        yield from _check_loops(ctx, func, arrays)
        yield from _check_per_element(ctx, func, arrays)
        yield from _check_scalar_reduction(ctx, func, arrays)
        yield from _check_growth(ctx, func)
        yield from _check_redundant_copy(ctx, func, arrays)


RULES = {
    "REP601": Rule(
        "REP601", "ndarray-python-loop", Severity.ERROR,
        "Python for/while loops iterating ndarrays in hot functions",
        scope="project", project_checker=_hotpath_project_check,
    ),
    "REP602": Rule(
        "REP602", "per-element-conversion", Severity.ERROR,
        "per-element item()/tolist()/float() conversions in hot loops",
        scope="project", project_checker=None,
    ),
    "REP603": Rule(
        "REP603", "python-scalar-reduction", Severity.WARNING,
        "Python scalar accumulators folding ndarray elements in hot "
        "loops",
        scope="project", project_checker=None,
    ),
    "REP604": Rule(
        "REP604", "array-growth-in-loop", Severity.ERROR,
        "np.append / concatenate-in-loop array growth in hot functions",
        scope="project", project_checker=None,
    ),
    "REP605": Rule(
        "REP605", "redundant-temporary-copy", Severity.WARNING,
        ".copy() on freshly materialized array temporaries in hot "
        "functions",
        scope="project", project_checker=None,
    ),
}
