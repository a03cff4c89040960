"""CI smoke check for the fault-tolerant execution layer.

Runs the full study under a canned fault plan — one transient cache
fault plus one builder that fails on its first attempt — with
``on_error="isolate"`` and ``RetryPolicy(attempts=2)``, then asserts
the resilience contract:

* retries mask every transient: the failure ledger is empty and every
  artifact is byte-identical to a fault-free reference run;
* a permanent builder fault quarantines exactly that artifact (and
  nothing else), while all remaining artifacts still match the
  reference;
* the same plan and seed produce the same ledger signature twice.

Exits non-zero on any violation.  Usage::

    PYTHONPATH=src python scripts/fault_smoke.py [cache_dir]
"""

from __future__ import annotations

import sys
import tempfile

import numpy as np

from repro.core.cache import ArtifactCache
from repro.core.faults import FaultPlan, FaultSpec
from repro.core.registry import FIGURE_IDS
from repro.core.resilience import RetryPolicy
from repro.core.study import Study

TRANSIENT_PLAN = {
    "seed": 0,
    "faults": [
        {"site": "cache.read", "mode": "fail-once", "error": "cache"},
        {"site": "builder.fig5", "mode": "fail-once", "error": "transient"},
    ],
}


def values_equal(a, b) -> bool:
    """Recursive equality tolerant of numpy arrays nested in payloads."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a), np.asarray(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            values_equal(a[key], b[key]) for key in a
        )
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            values_equal(x, y) for x, y in zip(a, b)
        )
    return bool(np.all(a == b))


def main(argv) -> int:
    """Run the smoke check; returns a process exit code."""
    cache_dir = argv[0] if argv else tempfile.mkdtemp(prefix="repro_fault_")
    study = Study()
    retry = RetryPolicy(attempts=2, base_delay_s=0.0)
    failures = []

    reference = study.run_all()

    # Transient faults + retries: no quarantine, identical artifacts.
    cache = ArtifactCache(cache_dir)
    study.run_all(cache=cache)  # warm the cache for cache.read
    masked = study.run_all(
        cache=cache,
        report=True,
        on_error="isolate",
        retry=retry,
        faults=FaultPlan.from_dict(TRANSIENT_PLAN),
    )
    if masked.failures:
        failures.append(
            f"retries left a non-empty ledger: {masked.failures.render()}"
        )
    for figure_id in FIGURE_IDS:
        result = masked[figure_id]
        baseline = reference[figure_id]
        if result.text != baseline.text or not values_equal(
            result.series, baseline.series
        ):
            failures.append(f"faulty run diverged for {figure_id}")

    # Permanent fault: exactly one artifact quarantined, rest identical.
    permanent = FaultPlan(
        [FaultSpec(site="builder.fig5", mode="fail", error="build")]
    )
    broken = study.run_all(
        report=True, on_error="isolate", retry=retry, faults=permanent
    )
    if broken.failures.failed_ids != ("fig5",):
        failures.append(
            f"expected only fig5 quarantined, got {broken.failures.failed_ids}"
        )
    for figure_id in FIGURE_IDS:
        if figure_id == "fig5":
            continue
        if broken[figure_id].text != reference[figure_id].text:
            failures.append(f"isolated run diverged for {figure_id}")

    # Determinism: same plan + seed, same ledger signature.
    rerun = study.run_all(
        report=True,
        on_error="isolate",
        retry=retry,
        faults=FaultPlan(
            [FaultSpec(site="builder.fig5", mode="fail", error="build")]
        ),
    )
    if rerun.failures.signature() != broken.failures.signature():
        failures.append("ledger signature changed between identical runs")

    if failures:
        for failure in failures:
            print(f"SMOKE FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        "smoke ok: transients masked by retry, permanent fault quarantined "
        "fig5 only, ledger deterministic"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
