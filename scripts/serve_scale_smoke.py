#!/usr/bin/env python
"""Worker-tier smoke: byte identity and scaling over real HTTP.

Starts the serve daemon three times -- ``--workers 0`` (in-thread
fallback), ``--workers 1`` and ``--workers 4`` -- and proves the
process-pool tier is invisible to clients:

* every servable query family answers 200 from every pool size, and
  the response bodies are byte-identical once the two volatile
  provenance fields (``worker``, ``wall_time_ms``) are normalized;
* the 4-worker daemon stamps ``w<N>`` into provenance and exposes
  per-worker ``inflight`` / ``served`` / ``restarts`` counters under
  ``/stats``;
* an all-distinct compute workload (one engine build per query, no
  memo/coalescer/batch collapse) scales >= 2x over the ``--workers 0``
  baseline -- asserted only on machines with >= 4 CPUs (the pool
  cannot beat the baseline without cores to run on; smaller boxes
  print the measured ratio, report the floor as unverified, and end
  on ``OK (scaling unverified)`` rather than a plain ``OK``).

CI runs this as the ``serve-scale`` job::

    PYTHONPATH=src python scripts/serve_scale_smoke.py
"""

from __future__ import annotations

import json
import os
import queue
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

MIN_SCALING = 2.0
SCALING_CPUS = 4
COMPUTE_QUERIES = 24
COMPUTE_CLIENTS = 8


def normalized(document):
    """A response document minus its two volatile provenance fields."""
    clone = json.loads(json.dumps(document, sort_keys=True))
    clone.get("provenance", {}).pop("worker", None)
    clone.get("provenance", {}).pop("wall_time_ms", None)
    return json.dumps(clone, sort_keys=True)


def family_sweep(workers):
    """(family -> normalized body, worker stamps, stats doc) for one pool."""
    from repro.serve import ServeApp, ServeClient, start_daemon_thread
    from repro.serve.client import mixed_query_payloads

    app = ServeApp(workers=workers)
    handle = start_daemon_thread(app)
    bodies = {}
    stamps = {}
    try:
        client = ServeClient(port=handle.port, timeout_s=120)
        try:
            for payload in mixed_query_payloads(servers=30, steps=8):
                status, document = client.query(dict(payload))
                if status != 200:
                    raise SystemExit(
                        f"workers={workers}: {payload['family']} -> "
                        f"{status}: {document}"
                    )
                bodies[payload["family"]] = normalized(document)
                stamps[payload["family"]] = document["provenance"]["worker"]
            stats = client.stats()
        finally:
            client.close()
    finally:
        handle.stop()
    return bodies, stamps, stats


def compute_qps(workers):
    """All-distinct placement throughput against one daemon."""
    from repro.serve import ServeApp, ServeClient, start_daemon_thread

    payloads = [
        {
            "family": "placement",
            "servers": 1600 + 7 * index,
            "demand_fraction": round(0.25 + 0.5 * index / COMPUTE_QUERIES, 4),
            "policy": "ep-aware",
        }
        for index in range(COMPUTE_QUERIES)
    ]
    app = ServeApp(workers=workers)
    handle = start_daemon_thread(app)
    try:
        jobs = queue.Queue()
        for payload in payloads:
            jobs.put(payload)
        failures = []

        def drain():
            client = ServeClient(port=handle.port, timeout_s=300)
            try:
                while True:
                    try:
                        payload = jobs.get_nowait()
                    except queue.Empty:
                        return
                    status, document = client.query(dict(payload))
                    if status != 200:
                        failures.append((status, document))
            finally:
                client.close()

        threads = [threading.Thread(target=drain) for _ in range(COMPUTE_CLIENTS)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
        elapsed = time.perf_counter() - started
        if failures:
            raise SystemExit(f"compute workload failed: {failures[:3]}")
    finally:
        handle.stop()
    return COMPUTE_QUERIES / elapsed


def main() -> int:
    print("sweeping every query family across pool sizes ...", flush=True)
    sweeps = {workers: family_sweep(workers) for workers in (0, 1, 4)}

    baseline_bodies, baseline_stamps, _stats = sweeps[0]
    for family, stamp in baseline_stamps.items():
        assert stamp == "-", f"in-thread {family} stamped {stamp!r}"
    for workers in (1, 4):
        bodies, _stamps, _stats = sweeps[workers]
        for family, body in baseline_bodies.items():
            assert bodies[family] == body, (
                f"workers={workers}: {family} response differs from "
                f"--workers 0"
            )
    print(f"  {len(baseline_bodies)} families byte-identical across "
          "workers 0|1|4")

    _bodies, stamps, stats = sweeps[4]
    computed = {
        family: stamp for family, stamp in stamps.items() if stamp != "-"
    }
    assert computed, "no pooled query carried a worker stamp"
    assert all(stamp.startswith("w") for stamp in computed.values())
    workers_doc = stats["workers"]
    assert [entry["index"] for entry in workers_doc] == [0, 1, 2, 3]
    for entry in workers_doc:
        assert set(entry) >= {"inflight", "served", "restarts"}
    assert sum(entry["served"] for entry in workers_doc) >= len(computed)
    assert stats["stats"]["worker_restarts"] == 0
    print(f"  worker stamps: {sorted(set(computed.values()))}; "
          f"served={[entry['served'] for entry in workers_doc]}")

    print("measuring compute scaling (workers 0 vs 4) ...", flush=True)
    base = compute_qps(0)
    pooled = compute_qps(4)
    ratio = pooled / base
    cpus = os.cpu_count() or 1
    print(f"  base {base:.1f} q/s, pool {pooled:.1f} q/s, "
          f"ratio {ratio:.2f}x on {cpus} cpus")
    if cpus >= SCALING_CPUS:
        assert ratio >= MIN_SCALING, (
            f"compute scaling {ratio:.2f}x < required {MIN_SCALING:.1f}x "
            f"on {cpus} cpus"
        )
        print(f"  scaling >= {MIN_SCALING:.1f}x: OK")
        print("serve-scale smoke: OK")
    else:
        print(f"  scaling >= {MIN_SCALING:.1f}x: unverified "
              f"({cpus} cpus < {SCALING_CPUS})")
        print("serve-scale smoke: OK (scaling unverified)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
