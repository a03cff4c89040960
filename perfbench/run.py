"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve_compute --seed 1 --seconds 30 --trace 0

Run from the repository root (any directory works: paths are resolved
from this file).  ``--trace 0`` prints every end-to-end metric;
``--trace 1`` runs an untraced pass and then a traced pass of the same
length, and prints every per-layer metric plus the tracing overhead.  The last line
of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Exit code 2 means the repository sources are missing; 1 means the run
itself could not be measured (nothing is printed as a result then).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys
import traceback
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: (name, unit, better) of every end-to-end metric; BENCHMARK.json
#: lists the same names with their regression bounds.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("capacity_qps", "1/s", "higher"),
    ("p50_ms", "ms", "lower"),
    ("p99_ms", "ms", "lower"),
    ("ok_ratio", "ratio", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("build_cold_s", "s", "lower"),
    ("build_warm_s", "s", "lower"),
    ("replay_s", "s", "lower"),
)

WORKLOADS = ("serve_compute", "offline_build")

#: Open-loop generator lateness (p99) past which a run is invalid.
LATE_LIMIT_MS = 50.0


class InvalidRun(RuntimeError):
    """The run measured nothing trustworthy; no result is printed."""


def _pass(workload: str, seed: int, seconds: float, scratch: Path,
          traced: bool) -> Dict[str, Any]:
    from perfbench import offline, serve

    if workload == "offline_build":
        return offline.run_pass(seed, seconds, ROOT, scratch, traced)
    result = serve.run_pass(seed, seconds, ROOT, scratch, traced)
    if result["late_p99_ms"] > LATE_LIMIT_MS:
        raise InvalidRun(f"load generator ran {result['late_p99_ms']:.1f} ms late "
                         f"at p99 (limit {LATE_LIMIT_MS:g} ms)")
    return result


def measure(workload: str, seed: int, seconds: float, traced: bool,
            scratch: Path) -> Tuple[Dict[str, Any], List[str]]:
    """The result object the last output line carries, plus report lines."""
    from perfbench import layers

    lines: List[str] = []
    if not traced:
        result = _pass(workload, seed, seconds, scratch / "e2e", False)
        metrics = {name: {"value": result["metrics"][name], "unit": unit}
                   for name, unit, _better in END_TO_END}
        attempted, failed = result["attempted"], result["failed"]
        lines += result["notes"]
    else:
        base = _pass(workload, seed, seconds, scratch / "base", False)
        traced_pass = _pass(workload, seed, seconds, scratch / "traced", True)
        better = {name: b for name, _unit, b in END_TO_END}
        values = dict(traced_pass["layers"])
        values.update(layers.overhead(traced_pass["metrics"], base["metrics"], better))
        values = layers.complete(values)
        metrics = {name: {"value": value, "unit": layers.unit_of(name)}
                   for name, value in values.items()}
        attempted = base["attempted"] + traced_pass["attempted"]
        failed = base["failed"] + traced_pass["failed"]
        lines += [f"untraced base pass: {note}" for note in base["notes"]]
        lines += traced_pass["notes"]
        lines += [f"traced end-to-end {name}: {traced_pass['metrics'][name]:.6g}"
                  for name, _unit, _b in END_TO_END]
    document = {"correct": failed == 0, "attempted": int(attempted),
                "failed": int(failed), "metrics": metrics}
    return document, lines


def environment(workload: str, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    import numpy

    from perfbench import loadgen, procs, serve

    env: Dict[str, Any] = {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "workload": workload, "seed": seed,
        "seconds": seconds, "trace": int(traced),
    }
    if workload == "serve_compute":
        env.update({"workers": procs.WORKERS, "open_loop_rate_per_s": serve.RATE_PER_S,
                    "connections": loadgen.CONNECTIONS})
    return env


def _finite(value: float) -> float:
    # +inf (a failed request at the percentile) is not valid JSON
    return value if math.isfinite(value) else sys.float_info.max


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description="perfbench: one workload, one run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    # anything that reaches for a temp or spill directory stays in the checkout
    os.environ["TMPDIR"] = str(scratch)
    os.environ["REPRO_SPILL_DIR"] = str(scratch / "spill")
    try:
        document, lines = measure(args.workload, args.seed, args.seconds,
                                  bool(args.trace), scratch)
    except Exception:  # report, print no result, fail the run
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"env: {json.dumps(environment(args.workload, args.seed, args.seconds, bool(args.trace)))}")
    for line in lines:
        print(f"  {line}")
    for name, metric in document["metrics"].items():
        metric["value"] = _finite(metric["value"])
        print(f"{name:40s} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
