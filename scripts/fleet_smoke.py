#!/usr/bin/env python
"""CI smoke check for the sharded mega-fleet tier.

Tiles the 2016 cohort to ~100k servers as a lazy ``TiledFleetView``,
then asserts the tier's two load-bearing contracts:

* **byte-identity** -- every sharded placement summary (both policies,
  idle and power-off accounting, a demand sweep, the power-cap search)
  and a trace replay equal the columnar engine's reductions
  float for float, int for int;
* **routing** -- ``fleet_engine`` sends a view this large to the
  sharded engine, and the lazy view itself stays O(base) (no
  million-clone materialization on the sharded side).

Exits non-zero on any divergence.  Usage::

    PYTHONPATH=src python scripts/fleet_smoke.py [n_servers]
"""

from __future__ import annotations

import sys

from repro.cluster.batch_placement import BatchPlacementEngine
from repro.cluster.batch_trace import BatchTraceReplay
from repro.cluster.engines import fleet_engine
from repro.cluster.fleet_arrays import tile_fleet
from repro.cluster.sharded import ShardedFleetEngine, ShardedTraceReplay
from repro.cluster.trace import diurnal_trace
from repro.dataset.synthesis import generate_corpus

DEFAULT_SERVERS = 100_000

FRACTIONS = (0.0, 0.1, 0.35, 0.6, 0.85, 1.0, 1.15)


def summary_key(outcome):
    """Every observable scalar of a placement outcome, types included."""
    return (
        outcome.policy,
        outcome.demand_ops,
        outcome.placed_ops,
        type(outcome.placed_ops).__name__,
        outcome.total_power_w,
        type(outcome.total_power_w).__name__,
        outcome.unused_idle_power_w,
        type(outcome.unused_idle_power_w).__name__,
        outcome.servers_used,
        outcome.fleet_efficiency,
        outcome.satisfied(),
    )


def main(argv) -> int:
    """Run the smoke check; returns a process exit code."""
    n_servers = int(argv[0]) if argv else DEFAULT_SERVERS
    failures = []

    corpus = generate_corpus(2016)
    view = tile_fleet(corpus.by_hw_year(2016).results(), n_servers)

    routed = fleet_engine(view)
    if not isinstance(routed, ShardedFleetEngine):
        failures.append(
            f"fleet_engine sent a {n_servers}-server view to "
            f"{type(routed).__name__}, expected ShardedFleetEngine"
        )
        routed = ShardedFleetEngine(view)
    print(
        f"fleet: {n_servers} servers over {len(view.base)} base records, "
        f"{-(-len(routed) // routed.shard_size)} shards of "
        f"{routed.shard_size}",
        flush=True,
    )

    columnar = BatchPlacementEngine(list(view))
    capacity = float(sum(columnar.arrays.full_capacity.tolist()))

    # Placement sweep: both policies, both idle accountings.
    for fraction in FRACTIONS:
        demand = fraction * capacity
        for policy in ("pack-to-full", "ep-aware"):
            for power_off in (False, True):
                ours = summary_key(routed.place(policy, demand, power_off))
                theirs = summary_key(
                    columnar.place(policy, demand, power_off)
                )
                if ours != theirs:
                    failures.append(
                        f"placement diverged: {policy} at {fraction:.2f} "
                        f"power_off={power_off}: {ours} != {theirs}"
                    )
    print("placement sweep: done", flush=True)

    # Power-cap search.
    for cap_w in (1e6, 8e6):
        for policy in ("pack-to-full", "ep-aware"):
            ours = summary_key(routed.max_throughput_under_cap(cap_w, policy))
            theirs = summary_key(
                columnar.max_throughput_under_cap(cap_w, policy)
            )
            if ours != theirs:
                failures.append(
                    f"cap search diverged: {policy} under {cap_w:.0f} W: "
                    f"{ours} != {theirs}"
                )
    print("cap search: done", flush=True)

    # Sharded replay vs the columnar replay.
    trace = diurnal_trace(steps_per_day=24, noise=0.05, seed=11)
    sharded_replay = ShardedTraceReplay(routed)
    batch_replay = BatchTraceReplay(columnar)
    for policy in ("pack-to-full", "ep-aware"):
        ours = sharded_replay.replay(trace, policy)
        theirs = batch_replay.replay(trace, policy)
        if ours != theirs:
            failures.append(
                f"replay diverged for {policy}: {ours} != {theirs}"
            )
    print("replay: done", flush=True)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"fleet smoke passed: sharded == columnar at {n_servers} servers"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
