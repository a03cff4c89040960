#!/usr/bin/env python3
"""Fleet analysis: slice the corpus the way a capacity planner would.

Run with::

    python examples/fleet_analysis.py

Walks through the corpus query API: filtering by era, vendor family,
and configuration; ranking by proportionality; and exporting a figure's
data series to CSV for external plotting.
"""

import csv
import io

from repro import Study
from repro.analysis.grouping import codename_ep_table
from repro.analysis.temporal import yearly_trend
from repro.power.microarch import Family
from repro.viz.tables import format_table


def main() -> None:
    study = Study()
    corpus = study.corpus

    # 1. Which microarchitectures are the most proportional?
    print("Top codenames by average EP (10+ servers):")
    for stat in codename_ep_table(corpus):
        if stat.count >= 10:
            print(f"  {stat.label:<16} n={stat.count:<4} avg EP {stat.ep.mean:.2f}")

    # 2. The modern fleet: 2-chip, 2013+, Intel.
    modern = (
        corpus.by_hw_year_range(2013, 2016)
        .single_node()
        .by_chips(2)
        .filter(lambda r: r.family in (Family.HASWELL, Family.SKYLAKE))
    )
    print(f"\nmodern 2-chip Intel fleet: {len(modern)} servers")
    rows = [
        [r.model, r.hw_year, r.ep, r.overall_score, f"{r.primary_peak_spot:.0%}"]
        for r in sorted(modern, key=lambda r: -r.ep)[:8]
    ]
    print(format_table(["model", "year", "EP", "score", "peak spot"], rows))

    # 3. Export the EP trend for external tooling.
    trend = yearly_trend(corpus, "ep", "hw")
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["series", "x", "y"])
    for name, column in (("avg_ep", "avg"), ("median_ep", "median")):
        for year, value in zip(trend.years(), trend.series(column)):
            writer.writerow([name, year, repr(float(value))])
    csv_text = buffer.getvalue()
    print(f"\nCSV export of the EP trend ({len(csv_text.splitlines()) - 1} rows):")
    print("\n".join(csv_text.splitlines()[:5]) + "\n...")


if __name__ == "__main__":
    main()
