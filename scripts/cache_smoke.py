"""CI smoke check for the artifact engine.

Runs a cold ``run_all()`` (filling the cache) and a warm one (served
from the cache), then asserts the engine contract:

* the warm run hits the cache for every artifact and is >= 5x faster
  than the cold run;
* cached results equal built results artifact-by-artifact.

It also prints the cold run's slowest builds, so a log shows where cold
time goes.

Exits non-zero on any violation.  Usage::

    PYTHONPATH=src python scripts/cache_smoke.py [cache_dir]
"""

from __future__ import annotations

import sys
import tempfile

import numpy as np

from repro.core.cache import ArtifactCache
from repro.core.registry import FIGURE_IDS
from repro.core.study import Study


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
    cache_dir = argv[0] if argv else tempfile.mkdtemp(prefix="repro_smoke_")
    study = Study()
    cache = ArtifactCache(cache_dir)

    cold = study.run_all(cache=cache, report=True)
    warm = study.run_all(cache=cache, report=True)

    print(warm.render())
    slowest = sorted(cold.metrics.values(), key=lambda metric: -metric.seconds)
    print(
        "slowest cold builds: "
        + ", ".join(
            f"{metric.artifact_id} {metric.seconds * 1000.0:.1f} ms"
            for metric in slowest[:5]
        )
    )
    print(
        f"cold {cold.total_seconds * 1000.0:.1f} ms "
        f"({cold.built} built) / warm {warm.total_seconds * 1000.0:.1f} ms "
        f"({warm.cache_hits} cached)"
    )

    failures = []
    if cold.cache_hits != 0:
        failures.append(f"cold run hit the cache {cold.cache_hits}x")
    if warm.cache_hits != len(FIGURE_IDS):
        failures.append(
            f"warm run only hit {warm.cache_hits}/{len(FIGURE_IDS)} artifacts"
        )
    speedup = cold.total_seconds / max(warm.total_seconds, 1e-9)
    if speedup < 5.0:
        failures.append(f"warm speedup only {speedup:.1f}x (need >= 5x)")
    for figure_id in FIGURE_IDS:
        if warm[figure_id].text != cold[figure_id].text or not values_equal(
            warm[figure_id].series, cold[figure_id].series
        ):
            failures.append(f"cached != built for {figure_id}")

    if failures:
        for failure in failures:
            print(f"SMOKE FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"smoke ok: warm speedup {speedup:.0f}x, all artifacts identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
