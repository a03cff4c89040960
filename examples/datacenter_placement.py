#!/usr/bin/env python3
"""Datacenter placement: EP-aware load placement vs. consolidation.

Run with::

    python examples/datacenter_placement.py

Implements Section V.C on a heterogeneous fleet drawn from the corpus:
compare pack-to-full consolidation against EP-aware placement at a
range of demand levels and under a fixed power cap.
"""

from repro import Study
from repro.cluster import (
    ep_aware_placement,
    max_throughput_under_cap,
    pack_to_full_placement,
)
from repro.viz.tables import format_table


def main() -> None:
    study = Study()
    fleet = list(study.corpus.by_hw_year_range(2013, 2016))
    print(f"fleet: {len(fleet)} servers (hardware years 2013-2016)")

    # 1. Placement policies across demand levels.
    capacity = sum(
        level.ssj_ops
        for server in fleet
        for level in server.levels
        if level.target_load == 1.0
    )
    rows = []
    for share in (0.3, 0.5, 0.7):
        demand = share * capacity
        packed = pack_to_full_placement(fleet, demand)
        aware = ep_aware_placement(fleet, demand)
        saving = 1.0 - aware.total_power_w / packed.total_power_w
        rows.append([
            f"{share:.0%}",
            packed.servers_used,
            f"{packed.total_power_w:.0f}",
            aware.servers_used,
            f"{aware.total_power_w:.0f}",
            f"{saving:+.1%}",
        ])
    print("\n" + format_table(
        ["demand", "packed srv", "packed W", "aware srv", "aware W", "saving"],
        rows,
        title="pack-to-full vs. EP-aware placement",
    ))

    # 2. Throughput under a power cap.
    cap = 0.5 * pack_to_full_placement(fleet, capacity).total_power_w
    packed_cap = max_throughput_under_cap(fleet, cap, policy="pack-to-full")
    aware_cap = max_throughput_under_cap(fleet, cap, policy="ep-aware")
    gain = aware_cap.placed_ops / packed_cap.placed_ops - 1.0
    print(f"\nunder a {cap:.0f} W cap: pack-to-full places "
          f"{packed_cap.placed_ops:.3g} ops/s, EP-aware places "
          f"{aware_cap.placed_ops:.3g} ops/s ({gain:+.1%})")


if __name__ == "__main__":
    main()
