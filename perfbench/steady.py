"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/steady.py --workload serve_compute --seeds 1 2 3 4 5

Spread is the interquartile distance over the seeds' values as a share
of their median (``statistics.quantiles(values, n=4)``), the figure a
regression bound in ``BENCHMARK.json`` has to exceed.  Keep every
spread below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import median, spread  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: Dict[str, List[float]] = {}
    for seed in args.seeds:
        completed = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
            cwd=str(ROOT), stdout=subprocess.PIPE, text=True, check=False)
        if completed.returncode != 0:
            print(f"seed {seed}: exit {completed.returncode}")
            return 1
        document = json.loads(completed.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={document['correct']} "
              f"attempted={document['attempted']} failed={document['failed']}",
              flush=True)
        # the run's report lines: sample counts, unscaled figures, slowdowns
        print("\n".join(line for line in completed.stdout.splitlines()
                        if line.startswith("  ")), flush=True)
        for name, metric in document["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        share = spread(series) if len(series) >= 2 else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and share > bound / 3:
            flag = "  <-- spread above a third of the bound"
        print(f"{name:40s} median {median(series):12.6g}  spread {share:.3f}"
              f"  bound {bound}{flag}")
        print("    by seed: " + "  ".join(f"{value:.6g}" for value in series))
    return 0


if __name__ == "__main__":
    sys.exit(main())
