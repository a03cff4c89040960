"""Registry-consistency rules (REP20x).

The declarative registry (:mod:`repro.core.registry`) is the spine of
the artifact engine: the executor trusts that every
``ArtifactSpec.depends`` id resolves, that the dependency graph is
acyclic, and that every builder matches the engine's calling
convention (a zero-argument bound method after ``spec.bind(study)``).
A typo there fails at run time, deep inside a build — these rules
fail it at lint time instead.

Two complementary passes share the rule ids:

* the **AST pass** runs on any scanned file that constructs specs
  (``_spec(...)`` / ``ArtifactSpec(...)`` calls with literal ids), so
  fixtures and future registries are checked without importing them;
* the **import pass** runs only when ``repro.core.registry`` itself is
  in the scanned set, and cross-checks what the AST cannot see: that
  builder strings resolve to real ``Study`` methods, that ``sweep:N``
  resources name real Table II servers, and that the exported
  ``FIGURE_IDS`` tuple is in sync.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set

from repro.checks.model import (
    Finding,
    Project,
    Rule,
    Severity,
    SourceFile,
    finding,
)

#: The tag vocabulary of the registry; anything else is a typo.
ALLOWED_TAGS = {"figure", "table", "scalar", "extension", "cluster", "testbed"}

#: Names that construct an ArtifactSpec with literal arguments.
_SPEC_CALLEES = {"ArtifactSpec", "_spec"}


@dataclass
class SpecLiteral:
    """One ``ArtifactSpec``/``_spec`` call recovered from the AST."""

    artifact_id: str
    node: ast.Call
    builder: Optional[ast.AST] = None
    depends: List[ast.AST] = field(default_factory=list)
    depends_literal: bool = False
    tags: List[ast.AST] = field(default_factory=list)
    tags_literal: bool = False


def _callee_name(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def extract_spec_literals(tree: ast.Module) -> List[SpecLiteral]:
    """Every spec-constructing call with a literal artifact id."""
    specs: List[SpecLiteral] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if _callee_name(node.func) not in _SPEC_CALLEES:
            continue
        positional = list(node.args)
        if not positional or not isinstance(positional[0], ast.Constant):
            continue
        artifact_id = positional[0].value
        if not isinstance(artifact_id, str):
            continue
        spec = SpecLiteral(artifact_id=artifact_id, node=node)
        if len(positional) > 1:
            spec.builder = positional[1]
        sequenced = {3: "depends", 4: "tags"}
        for index, name in sequenced.items():
            if len(positional) > index:
                _fill_sequence(spec, name, positional[index])
        for keyword in node.keywords:
            if keyword.arg in ("depends", "tags"):
                _fill_sequence(spec, keyword.arg, keyword.value)
            elif keyword.arg == "builder":
                spec.builder = keyword.value
        specs.append(spec)
    return specs


def _fill_sequence(spec: SpecLiteral, name: str, node: ast.AST) -> None:
    literal = isinstance(node, (ast.Tuple, ast.List))
    elements = list(node.elts) if isinstance(node, (ast.Tuple, ast.List)) else []
    if name == "depends":
        spec.depends, spec.depends_literal = elements, literal
    else:
        spec.tags, spec.tags_literal = elements, literal


def _depend_key(element: ast.AST) -> Optional[str]:
    """The resolvable string form of one depends entry, if static."""
    if isinstance(element, ast.Constant) and isinstance(element.value, str):
        return element.value
    if isinstance(element, ast.Name) and element.id == "CORPUS":
        return "corpus"
    if isinstance(element, ast.Call):
        callee = _callee_name(element.func)
        if callee == "sweep_resource" and element.args:
            arg = element.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, int):
                return f"sweep:{arg.value}"
    return None


def _resolvable(key: str, artifact_ids: Set[str]) -> bool:
    if key == "corpus":
        return True
    if key.startswith("sweep:"):
        suffix = key.split(":", 1)[1]
        return suffix.isdigit()
    return key in artifact_ids


def _check_depends_ast(ctx: SourceFile) -> Iterator[Finding]:
    specs = extract_spec_literals(ctx.tree)
    ids = {spec.artifact_id for spec in specs}
    for spec in specs:
        for element in spec.depends:
            key = _depend_key(element)
            if key is None:
                yield finding(
                    RULES["REP201"], ctx.rel, element,
                    f"artifact {spec.artifact_id!r}: dependency is not a "
                    "resolvable resource literal",
                    hint="use CORPUS, sweep_resource(N), or another "
                    "artifact id string",
                )
            elif not _resolvable(key, ids):
                yield finding(
                    RULES["REP201"], ctx.rel, element,
                    f"artifact {spec.artifact_id!r}: dependency {key!r} "
                    "resolves to no known resource or artifact",
                    hint="known resources are 'corpus' and 'sweep:<N>'; "
                    "anything else must be a registered artifact id",
                )


def _check_cycles_ast(ctx: SourceFile) -> Iterator[Finding]:
    specs = extract_spec_literals(ctx.tree)
    ids = {spec.artifact_id for spec in specs}
    edges: Dict[str, List[str]] = {}
    for spec in specs:
        edges[spec.artifact_id] = [
            key
            for key in (_depend_key(e) for e in spec.depends)
            if key in ids
        ]
    state: Dict[str, int] = {}
    stack: List[str] = []

    def visit(node: str) -> Optional[List[str]]:
        state[node] = 1
        stack.append(node)
        for successor in edges.get(node, ()):
            if state.get(successor) == 1:
                return stack[stack.index(successor):] + [successor]
            if state.get(successor, 0) == 0:
                cycle = visit(successor)
                if cycle is not None:
                    return cycle
        stack.pop()
        state[node] = 2
        return None

    for spec in specs:
        if state.get(spec.artifact_id, 0) == 0:
            cycle = visit(spec.artifact_id)
            if cycle is not None:
                yield finding(
                    RULES["REP202"], ctx.rel, spec.node,
                    "artifact dependency cycle: " + " -> ".join(cycle),
                    hint="the executor topologically sorts builds; a cycle "
                    "deadlocks the schedule",
                )
                return  # one cycle report per file is enough


def _check_builders_ast(ctx: SourceFile) -> Iterator[Finding]:
    study_methods = _study_methods(ctx.tree)
    if study_methods is None:
        return  # cross-file resolution is the import pass's job
    for spec in extract_spec_literals(ctx.tree):
        builder = spec.builder
        if isinstance(builder, ast.Constant) and isinstance(builder.value, str):
            if builder.value not in study_methods:
                yield finding(
                    RULES["REP203"], ctx.rel, builder,
                    f"artifact {spec.artifact_id!r}: builder "
                    f"{builder.value!r} is not a Study method",
                    hint="the executor calls REGISTRY[id].bind(study)(); a "
                    "missing method fails mid-run inside the pool",
                )


def _study_methods(tree: ast.Module) -> Optional[Set[str]]:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "Study":
            return {
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
    return None


def _check_tags_ast(ctx: SourceFile) -> Iterator[Finding]:
    for spec in extract_spec_literals(ctx.tree):
        if spec.tags_literal and not spec.tags:
            yield finding(
                RULES["REP204"], ctx.rel, spec.node,
                f"artifact {spec.artifact_id!r}: empty tags tuple",
                hint=f"classify with at least one of {sorted(ALLOWED_TAGS)}",
            )
        for element in spec.tags:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                if element.value not in ALLOWED_TAGS:
                    yield finding(
                        RULES["REP204"], ctx.rel, element,
                        f"artifact {spec.artifact_id!r}: unknown tag "
                        f"{element.value!r}",
                        hint=f"allowed tags: {sorted(ALLOWED_TAGS)}",
                    )


def _check_duplicates_ast(ctx: SourceFile) -> Iterator[Finding]:
    seen: Dict[str, ast.Call] = {}
    for spec in extract_spec_literals(ctx.tree):
        if spec.artifact_id in seen:
            yield finding(
                RULES["REP205"], ctx.rel, spec.node,
                f"duplicate artifact id {spec.artifact_id!r}",
                hint="a dict-comprehension registry silently keeps only the "
                "last spec; the earlier one becomes dead code",
            )
        else:
            seen[spec.artifact_id] = spec.node


# -- import pass ---------------------------------------------------------------


def _registry_import_check(project: Project) -> Iterator[Finding]:
    ctx = project.module("repro.core.registry")
    if ctx is None:
        return
    from repro.core.registry import FIGURE_IDS, REGISTRY
    from repro.core.study import Study
    from repro.hwexp.testbed import TESTBED

    for artifact_id, spec in REGISTRY.items():
        where = ctx.line_of(f'"{artifact_id}"')
        if spec.artifact_id != artifact_id:
            yield Finding(
                "REP206", RULES["REP206"].severity, ctx.rel, where, 0,
                f"registry key {artifact_id!r} disagrees with "
                f"spec.artifact_id {spec.artifact_id!r}",
            )
        for dependency in spec.depends:
            if dependency == "corpus" or dependency in REGISTRY:
                continue
            if dependency.startswith("sweep:"):
                suffix = dependency.split(":", 1)[1]
                if suffix.isdigit() and int(suffix) in TESTBED:
                    continue
                yield Finding(
                    "REP201", RULES["REP201"].severity, ctx.rel, where, 0,
                    f"artifact {artifact_id!r}: {dependency!r} names no "
                    f"Table II server (have {sorted(TESTBED)})",
                )
                continue
            yield Finding(
                "REP201", RULES["REP201"].severity, ctx.rel, where, 0,
                f"artifact {artifact_id!r}: dependency {dependency!r} "
                "resolves to no resource or registered artifact",
            )
        yield from _check_builder_runtime(ctx, artifact_id, spec, Study, where)
        if not spec.description:
            yield Finding(
                "REP206", RULES["REP206"].severity, ctx.rel, where, 0,
                f"artifact {artifact_id!r} has an empty description",
            )
    if tuple(REGISTRY) != FIGURE_IDS:
        yield Finding(
            "REP206", RULES["REP206"].severity, ctx.rel,
            ctx.line_of("FIGURE_IDS"), 0,
            "FIGURE_IDS is out of sync with the REGISTRY keys",
        )


def _check_builder_runtime(
    ctx: SourceFile,
    artifact_id: str,
    spec: object,
    study_cls: type,
    where: int,
) -> Iterator[Finding]:
    import inspect

    builder = getattr(spec, "builder", None)
    if isinstance(builder, str):
        method = getattr(study_cls, builder, None)
        if method is None or not callable(method):
            yield Finding(
                "REP203", RULES["REP203"].severity, ctx.rel, where, 0,
                f"artifact {artifact_id!r}: builder {builder!r} is not a "
                "Study method",
            )
            return
        parameters = list(inspect.signature(method).parameters.values())
        extra = [
            p for p in parameters[1:]
            if p.default is inspect.Parameter.empty
            and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]
        if extra:
            yield Finding(
                "REP203", RULES["REP203"].severity, ctx.rel, where, 0,
                f"artifact {artifact_id!r}: builder {builder!r} requires "
                f"arguments {[p.name for p in extra]} the executor never "
                "passes",
            )
    elif callable(builder):
        parameters = [
            p for p in inspect.signature(builder).parameters.values()
            if p.default is inspect.Parameter.empty
            and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]
        if len(parameters) != 1:
            yield Finding(
                "REP203", RULES["REP203"].severity, ctx.rel, where, 0,
                f"artifact {artifact_id!r}: callable builder must take "
                "exactly one required argument (the Study)",
            )


RULES = {
    "REP201": Rule(
        "REP201", "dangling-dependency", Severity.ERROR,
        "ArtifactSpec.depends ids must resolve to known resources",
        scope="file", file_checker=_check_depends_ast,
    ),
    "REP202": Rule(
        "REP202", "dependency-cycle", Severity.ERROR,
        "the artifact dependency graph must stay acyclic",
        scope="file", file_checker=_check_cycles_ast,
    ),
    "REP203": Rule(
        "REP203", "unresolved-builder", Severity.ERROR,
        "builders must match the executor's calling convention",
        scope="file", file_checker=_check_builders_ast,
    ),
    "REP204": Rule(
        "REP204", "unknown-tag", Severity.ERROR,
        "artifact tags must come from the known vocabulary",
        scope="file", file_checker=_check_tags_ast,
    ),
    "REP205": Rule(
        "REP205", "duplicate-artifact-id", Severity.ERROR,
        "artifact ids must be unique",
        scope="file", file_checker=_check_duplicates_ast,
    ),
    "REP206": Rule(
        "REP206", "registry-drift", Severity.ERROR,
        "the imported REGISTRY must agree with its exported views",
        scope="project", project_checker=_registry_import_check,
    ),
}

#: Import-pass checks piggyback on REP201/REP203 ids; register the one
#: project checker once under REP206.
PROJECT_RULES = ("REP206",)
