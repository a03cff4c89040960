"""The paper's claims table and the paper-vs-measured report.

:data:`CLAIMS` is the one place a published number of the paper lives.
Each :class:`Claim` row names the artifact it is measured on, the
paper's value as printed, an extractor over that artifact's
``series``, and the :class:`Bound` the measured value must keep
(``None`` for a row reported but not gated).  The tier-1 suite gates
every bound on the default-seed corpus, :func:`run_ensemble` measures
the same rows on each seed of an ensemble, and
``build_experiments_report`` renders both; ``python -m
repro.core.pipeline`` writes the result to ``EXPERIMENTS.md``.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Any, Callable, List, Optional, Tuple

from repro.core.ensemble import run_ensemble
from repro.core.registry import REGISTRY
from repro.core.study import Study

#: The seeds whose spread the report prints next to the default seed.
RANGE_SEEDS: Tuple[int, ...] = tuple(range(2016, 2032))

#: A paper value as printed: a signed decimal, then ``%`` or
#: ``/<denominator>`` or nothing, then an optional unit (" chips", "x").
_PAPER_NUMBER = re.compile(r"([+-]?\d+(?:\.(\d+))?)(%|/\d+)?(.*)")


@dataclass(frozen=True)
class Bound:
    """The measured values a row accepts, given the paper's value.

    ``abs``/``rel``: ``pytest.approx``'s ``|paper - measured| <= value``
    (times ``|paper|`` for ``rel``); ``>``, ``<`` and ``in`` (between
    ``value`` and ``high``) are strict; ``exact`` is ``==``.
    """

    kind: str
    value: float = 0.0
    high: float = 0.0

    def accepts(self, measured: float, paper: float) -> bool:
        """Whether ``measured`` is acceptable against ``paper``."""
        if self.kind == "abs":
            return abs(paper - measured) <= self.value
        if self.kind == "rel":
            return abs(paper - measured) <= self.value * abs(paper)
        if self.kind == ">":
            return measured > self.value
        if self.kind == "<":
            return measured < self.value
        if self.kind == "in":
            return self.value < measured < self.high
        return measured == paper

    def __str__(self) -> str:
        return {
            "abs": f"±{self.value:g}",
            "rel": f"rel ±{self.value:g}",
            ">": f"> {self.value:g}",
            "<": f"< {self.value:g}",
            "in": f"in ({self.value:g}, {self.high:g})",
        }.get(self.kind, "exact")


EXACT = Bound("exact")

#: ``pytest.approx``'s default tolerance, for the best-ratio rows.
APPROX = Bound("rel", 1e-6)


@dataclass(frozen=True)
class Claim:
    """One published number: where it is measured and how close it must be."""

    artifact: str
    claim: str
    paper: str
    extract: Callable[[Any], Any]
    bound: Optional[Bound]
    #: Decimal places to print, when the paper's own are too few.
    places: Optional[int] = None

    @property
    def name(self) -> str:
        return f"{self.artifact}: {self.claim}"

    def _parts(self) -> Tuple[str, ...]:
        """The paper string's number, decimals, ``%``/``/n`` scale and unit."""
        return _PAPER_NUMBER.fullmatch(self.paper).groups("")

    @property
    def paper_value(self) -> float:
        """The paper string as a number (``"+48.65%"`` is 0.4865)."""
        number, _, scale, _ = self._parts()
        if scale == "%":
            return float(Decimal(number) / 100)
        if scale:
            return int(number) / int(scale[1:])
        return float(number)

    def holds(self, measured: float) -> bool:
        """Whether ``measured`` keeps this row's bound (an ungated row always does)."""
        return self.bound is None or self.bound.accepts(measured, self.paper_value)

    def render(self, value: float) -> str:
        """``value`` printed the way the paper prints this row."""
        number, decimals, scale, unit = self._parts()
        sign = "+" if number.startswith("+") else ""
        places = len(decimals) if self.places is None else self.places
        if scale == "%":
            return f"{value:{sign}.{places}%}{unit}"
        if scale:
            return f"{value * int(scale[1:]):.0f}{scale}{unit}"
        return f"{value:{sign}.{places}f}{unit}"


def _year(column: str, year: int) -> Callable[[Any], Any]:
    return lambda s: dict(zip(s["years"], s[column]))[year]


def _selected_ep(key: str) -> float:
    return float(key.split(":")[1])


def _high_ep_crossing(index: int) -> Callable[[Any], Any]:
    """The latest crossing among the selected servers with EP > 1."""
    return lambda s: max(
        crossing[index]
        for key, crossing in s["crossings"].items()
        if _selected_ep(key) > 1.0
    )


def _top_ee_change(frequency: float, base: float, memory: float):
    """The EE change from ``base`` to ``memory`` GB/core at ``frequency``."""

    def extract(s):
        ee = {k[0]: v["ee"] for k, v in s["cells"].items() if k[1] == frequency}
        return ee[memory] / ee[base] - 1.0

    return extract


CLAIMS: Tuple[Claim, ...] = (
    Claim("fig1", "exemplar 2016 server EP", "1.02",
          lambda s: s["ep"], Bound("abs", 0.01)),
    Claim("fig1", "exemplar 2016 server overall score", "12212",
          lambda s: s["score"], Bound("rel", 0.01)),
    *(
        Claim("fig3", f"average EP in {year}", paper,
              _year("avg", year), Bound("abs", 0.035))
        for year, paper in ((2005, "0.30"), (2012, "0.82"), (2016, "0.84"))
    ),
    Claim("fig3", "minimum EP (2008)", "0.18",
          lambda s: min(s["min"]), Bound("abs", 0.01)),
    Claim("fig3", "maximum EP (2012)", "1.05", lambda s: max(s["max"]), None),
    Claim("fig3", "avg EP step 2008->2009", "+48.65%",
          lambda s: s["step_changes"]["avg_2008_2009"], Bound("abs", 0.12)),
    Claim("fig3", "avg EP step 2011->2012", "+24.24%",
          lambda s: s["step_changes"]["avg_2011_2012"], Bound("abs", 0.07)),
    Claim("fig4", "minimum EE in 2014 (the tower outlier)", "1469",
          _year("min_ee", 2014), Bound("rel", 0.02)),
    *(
        Claim("fig5", f"EP share {band}", paper,
              lambda s, k=key: s["landmarks"][k], Bound("abs", tolerance))
        for band, paper, key, tolerance in (
            ("in [0.6, 0.7)", "25.21%", "share_06_07", 0.05),
            ("in [0.8, 0.9)", "17.44%", "share_08_09", 0.05),
            ("below 1.0", "99.58%", "share_below_1", 0.003),
        )
    ),
    *(
        Claim("fig6", f"{family}-family servers", paper,
              lambda s, f=family: s[f]["count"], EXACT)
        for family, paper in (
            ("Nehalem", "152"), ("Sandy Bridge", "137"),
            ("Netburst", "3"), ("Skylake", "3"),
        )
    ),
    *(
        Claim("fig7", f"{codename} average EP", paper,
              lambda s, c=codename: s["codenames"][c]["avg_ep"], Bound("abs", 0.08))
        for codename, paper in (
            ("Sandy Bridge EN", "0.90"), ("Broadwell", "0.87"), ("Haswell", "0.81"),
            ("Sandy Bridge", "0.75"), ("Ivy Bridge", "0.71"),
            ("Westmere-EP", "0.65"), ("Netburst", "0.29"),
        )
    ),
    *(
        Claim("fig8", f"{codename} servers in {year}", paper,
              lambda s, y=year, c=codename: s[y][c], EXACT)
        for year, codename, paper in (
            (2012, "Sandy Bridge EP", "50"), (2012, "Sandy Bridge EN", "22"),
            (2016, "Haswell", "10"),
        )
    ),
    Claim("fig9", "pencil-head upper-envelope EP", "0.18",
          lambda s: s["upper_ep"], Bound("abs", 0.01)),
    Claim("fig9", "pencil-head lower-envelope EP", "1.05",
          lambda s: s["lower_ep"], Bound("abs", 0.01)),
    Claim("fig10", "lowest selected EP", "0.18",
          lambda s: min(map(_selected_ep, s["curves"])), Bound("abs", 0.01)),
    Claim("fig10", "highest selected EP", "1.05",
          lambda s: max(map(_selected_ep, s["curves"])), Bound("abs", 0.01)),
    Claim("fig12", "EP > 1 servers reach 0.8x full-load EE by", "30%",
          _high_ep_crossing(0), Bound("<", 0.30)),
    Claim("fig12", "EP > 1 servers reach 1.0x full-load EE by", "40%",
          _high_ep_crossing(1), Bound("<", 0.40)),
    Claim("fig14", "single-node class with best avg EE", "2 chips",
          lambda s: max(s, key=lambda k: s[k]["avg_ee"]), EXACT),
    Claim("fig14", "1-chip median EP", "0.67", lambda s: s[1]["median_ep"], None),
    Claim("fig14", "2-chip median EP", "0.66", lambda s: s[2]["median_ep"], None),
    Claim("fig15", "2-chip avg EP gain vs all", "+2.94%",
          lambda s: s["avg_ep_gain"], Bound("abs", 0.025)),
    Claim("fig15", "2-chip avg EE gain vs all", "+4.13%",
          lambda s: s["avg_ee_gain"], Bound("abs", 0.05)),
    Claim("fig15", "2-chip median EE gain vs all", "+6.26%",
          lambda s: s["median_ee_gain"], Bound(">", 0.0)),
    *(
        Claim("fig16", f"share peaking at {spot:.0%} ({era})", paper,
              lambda s, e=era, p=spot: s["eras"][e][p], Bound("abs", 0.02))
        for era, spot, paper in (
            ("2004-2012", 1.0, "75.71%"), ("2013-2016", 1.0, "23.21%"),
            ("2013-2016", 0.8, "35.71%"), ("2013-2016", 0.7, "26.79%"),
        )
    ),
    *(
        Claim("fig16", f"2016 servers peaking at {spot:.0%}", paper,
              lambda s, p=spot: s["trend"][2016][p], Bound("abs", 0.01))
        for spot, paper in ((1.0, "3/18"), (0.8, "10/18"), (0.7, "5/18"))
    ),
    Claim("fig17", "best GB/core for EP", "1.5", lambda s: s["best"]["ep"], APPROX),
    Claim("fig17", "best GB/core for EE", "1.78", lambda s: s["best"]["ee"], APPROX),
    *(
        Claim(figure, f"server #{server} best GB/core", paper,
              lambda s: s["best_memory_per_core"], APPROX)
        for figure, server, paper in (
            ("fig18", 1, "1.75"), ("fig19", 2, "4"), ("fig20", 4, "2.67"),
        )
    ),
    Claim("fig19", "server #2 EE change, 4 -> 8 GB/core", "-10.6%",
          _top_ee_change(1.8, 4.0, 8.0), Bound("abs", 0.05)),
    Claim("fig20", "server #4 EE change, 2.67 -> 8 GB/core", "-4.6%",
          _top_ee_change(2.4, 2.67, 8.0), Bound("in", -0.10, 0.0)),
    Claim("fig20", "server #4 EE change, 2.67 -> 16 GB/core", "-11.1%",
          _top_ee_change(2.4, 2.67, 16.0), Bound("abs", 0.06)),
    *(
        Claim("table1", f"servers at {mpc} GB/core", paper,
              lambda s, m=mpc: s[m], EXACT)
        for mpc, paper in (
            ("0.67", "15"), ("1", "153"), ("1.33", "32"), ("1.5", "68"),
            ("1.78", "13"), ("2", "123"), ("4", "26"),
        )
    ),
    Claim("eq2", "Eq. 2 amplitude", "1.2969",
          lambda s: s["amplitude"], Bound("abs", 0.12)),
    Claim("eq2", "Eq. 2 rate (recovered)", "-2.06",
          lambda s: s["rate"], Bound("abs", 0.35)),
    Claim("eq2", "Eq. 2 R^2", "0.892", lambda s: s["r_squared"], Bound("abs", 0.06)),
    Claim("eq2", "corr(EP, idle%)", "-0.92",
          lambda s: s["corr_ep_idle"], Bound("abs", 0.04), places=3),
    Claim("eq2", "corr(EP, overall score)", "0.741",
          lambda s: s["corr_ep_score"], Bound("abs", 0.08)),
    Claim("reorg", "published != hw-availability year", "15.5%",
          lambda s: s["mismatch_fraction"], Bound("abs", 0.002)),
    Claim("asynchrony", "top-10% EP from 2012", "91.7%",
          lambda s: s["report"].top_ep_share_2012, Bound(">", 0.6)),
    Claim("asynchrony", "2012 over-representation in the top-10% EP (91.7% / 27.4%)",
          "3.35x", lambda s: s["report"].ep_overrepresentation, Bound(">", 2.0)),
    Claim("asynchrony", "top-10% EE from 2012", "16.7%",
          lambda s: s["report"].top_ee_share_2012, Bound("<", 0.3)),
    Claim("asynchrony", "EP/EE top-decile overlap", "14.6%",
          lambda s: s["report"].overlap_fraction, Bound("<", 0.4)),
    Claim("wong", "share peaking at 100%", "69.25%",
          lambda s: s["share_100"], Bound("abs", 0.02)),
    Claim("wong", "share peaking at 60%", "1.88%",
          lambda s: s["share_60"], Bound("abs", 0.006)),
    Claim("wong", "servers peaking at 60%", "9", lambda s: s["count_60"], EXACT),
    Claim("prior_work", "corr(EP, score) on the <=2014 window", "0.83",
          lambda s: s["correlation_drift"].subset_value, Bound("abs", 0.06),
          places=3),
    Claim("prior_work", "corr(EP, score) on the full record", "0.741",
          lambda s: s["correlation_drift"].full_value, Bound("abs", 0.08)),
    Claim("prior_work", "corr(EP, score) drift, <=2014 -> full (0.741 - 0.83)",
          "-0.089", lambda s: s["correlation_drift"].drift, Bound("<", -0.04)),
    Claim("forecast", "projected EP at 5% idle", "1.17",
          lambda s: s["headroom"].projections[0.05], Bound("abs", 0.08)),
    Claim("forecast", "fitted EP ceiling", "1.297",
          lambda s: s["headroom"].fitted_ceiling, Bound("abs", 0.12)),
)


def measure(study: Study) -> Tuple[float, ...]:
    """Every :data:`CLAIMS` row measured on ``study``'s corpus, in order."""
    series = {
        artifact: study.figure(artifact).series
        for artifact in dict.fromkeys(claim.artifact for claim in CLAIMS)
    }
    return tuple(float(claim.extract(series[claim.artifact])) for claim in CLAIMS)


_HEADER = f"""# EXPERIMENTS -- paper vs. measured

Regenerated by ``python -m repro.core.pipeline`` from the claims table
``repro.core.pipeline.CLAIMS``.  Absolute efficiency magnitudes come from
this reproduction's simulated substrate (DESIGN.md lists the
substitutions), so the targets are the paper's *published statistics
and shapes*, not testbed wattages.  *measured* is the default seed, and
tier-1 (``tests/test_core_pipeline.py``) fails when it leaves its *gate*.
*{len(RANGE_SEEDS)}-seed range* spans seeds {RANGE_SEEDS[0]}-{RANGE_SEEDS[-1]}
(``run_ensemble``).

## Scalar findings
"""


def build_experiments_report(study: Optional[Study] = None) -> str:
    """Render the paper-vs-measured markdown report."""
    if study is None:
        study = Study()
    measured = measure(study)
    ensemble = run_ensemble(RANGE_SEEDS)

    lines: List[str] = [_HEADER]
    seeds = len(RANGE_SEEDS)
    lines.append(f"| artifact | claim | paper | gate | measured | {seeds}-seed range |")
    lines.append("|---|---|---|---|---|---|")
    for claim, value, summary in zip(CLAIMS, measured, ensemble.summaries.values()):
        low, high = min(summary.values), max(summary.values)
        lines.append(
            f"| {claim.artifact} | {claim.claim} | {claim.paper} | "
            f"{claim.bound or 'not gated'} | {claim.render(value)} | "
            f"{claim.render(low)}–{claim.render(high)} |"
        )

    lines.append("\n## Per-artifact index\n")
    lines.append("| artifact | reproduces |")
    lines.append("|---|---|")
    for figure_id, spec in REGISTRY.items():
        lines.append(f"| {figure_id} | {spec.description} |")
    lines.append("")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """Write EXPERIMENTS.md (or the path given as the first argument)."""
    argv = sys.argv[1:] if argv is None else argv
    target = Path(argv[0]) if argv else Path("EXPERIMENTS.md")
    target.write_text(build_experiments_report())
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
