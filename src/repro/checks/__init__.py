"""Domain-aware static analysis for the reproduction's invariants.

The repo's correctness rests on discipline no general-purpose linter
knows about: every random draw flows through explicitly seeded
``numpy.random.Generator`` substreams, the declarative artifact
registry stays resolvable and acyclic, builders stay pure over the
``Study`` that the serve daemon's threads share, and the vectorized
kernels stay paired with their scalar reference twins.  This package
enforces all four as lint rules::

    python -m repro checks src              # scan, exit 1 on findings
    python -m repro checks --list-rules     # the invariant catalog
    python -m repro checks --format json    # editor/CI integration

Library use::

    from repro.checks import run_checks
    findings = run_checks(["src"], select=["REP1"])

Rule families: REP1xx determinism, REP2xx registry consistency,
REP3xx concurrency safety, REP4xx reference parity.  See DESIGN.md
for the invariant catalog.
"""

from repro.checks.baseline import apply_baseline, load_baseline, write_baseline
from repro.checks.engine import RULES, exit_code, run_checks
from repro.checks.model import Finding, Rule, Severity

__all__ = [
    "Finding",
    "Rule",
    "RULES",
    "Severity",
    "apply_baseline",
    "exit_code",
    "load_baseline",
    "run_checks",
    "write_baseline",
]
