"""The one-call study: every paper artifact from a single corpus.

Typical use::

    from repro import Study

    study = Study()                  # generates the calibrated corpus
    print(study.figure("fig3").text) # EP trend table
    results = study.run_all()        # every artifact

    # cached, with per-artifact run metrics:
    report = study.run_all(cache=ArtifactCache(), report=True)
    print(report.render())

Each :class:`FigureResult` carries the underlying data (``series``, a
plain dict of labeled values or point lists) and a terminal rendering
(``text``), so the benchmark harness and the examples share one code
path with the tests.  ``run_all`` delegates to the execution engine in
:mod:`repro.core.executor`, which walks the builds in topological
order (shared sweep resources are computed once), optionally consults
the content-addressed cache in :mod:`repro.core.cache`, and times
every build.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.analysis.asynchrony import asynchrony_report, year_share_in_top
from repro.analysis.cdf import decile_shares, ep_cdf
from repro.analysis.envelopes import curve_envelope, intersection_ordering, selected_curves
from repro.analysis.grouping import (
    best_memory_per_core,
    codename_ep_table,
    family_table,
    memory_per_core_table,
    mix_by_year,
    stagnation_explanation,
)
from repro.analysis.peak_shift import (
    era_comparison,
    first_diverse_year,
    peak_spot_shares,
    peak_spot_trend,
    total_spots,
    wong_comparison,
)
from repro.analysis.regression_study import ep_score_correlation, idle_regression
from repro.analysis.scale import chip_scaling, node_scaling, two_chip_comparison
from repro.analysis.temporal import (
    delta_range,
    ep_step_changes,
    mismatch_fraction,
    reorganization_deltas,
    yearly_trend,
)
from repro.cluster.placement import ep_aware_placement, pack_to_full_placement
from repro.core.registry import description_of
from repro.dataset.corpus import Corpus
from repro.dataset.synthesis import generate_corpus
from repro.hwexp.sweeps import SweepResult, run_sweep
from repro.hwexp.testbed import TESTBED, testbed_table
from repro.metrics.ep import UTILIZATION_LEVELS
from repro.viz.ascii_chart import line_chart, scatter_chart
from repro.viz.tables import format_table


@dataclass(frozen=True)
class FigureResult:
    """One regenerated paper artifact."""

    figure_id: str
    title: str
    series: Dict[str, object]
    text: str

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"== {self.figure_id}: {self.title} ==\n{self.text}"


class Study:
    """Owns a corpus and regenerates every figure/table of the paper."""

    def __init__(self, corpus: Optional[Corpus] = None, *, seed: int = 2016):
        self.seed = seed
        self._corpus = corpus if corpus is not None else generate_corpus(seed)
        self._sweeps: Dict[int, SweepResult] = {}
        # Two threads can reach _sweep at once: the serve daemon's
        # executor threads share one memoized Study per seed, and a
        # ``resource.sweep:N`` attempt that overran its timeout keeps
        # running in the background while its retry starts.  One lock
        # per sweep keeps each sweep computed once.
        self._sweep_locks: Dict[int, threading.Lock] = {
            number: threading.Lock() for number in TESTBED
        }

    @property
    def corpus(self) -> Corpus:
        return self._corpus

    @property
    def fingerprint(self) -> str:
        """Stable content hash of the owned corpus (cache key input)."""
        return self._corpus.fingerprint()

    # -- dispatch -----------------------------------------------------------------

    def figure(self, figure_id: str) -> FigureResult:
        """Regenerate one artifact by its registry id.

        Delegates to the canonical :func:`repro.api.dispatch.build_artifact`
        path, so the Study, the CLI and the serve daemon all build
        artifacts through the same code.
        """
        from repro.api.dispatch import build_artifact

        return build_artifact(self, figure_id)

    def query(self, request: "QueryRequest") -> "QueryResult":
        """Answer one :class:`repro.api.QueryRequest` against this study.

        The request's ``seed`` is ignored in favor of this study's
        corpus: the study adopts itself into a fresh query context, so
        ``Study(corpus).query(StatsQuery(metric="ep"))`` analyses the
        corpus the study already owns.
        """
        from repro.api.dispatch import QueryContext, execute
        from repro.api.requests import QueryRequest as _QueryRequest

        if not isinstance(request, _QueryRequest):
            raise TypeError(
                f"expected a repro.api.QueryRequest, got {type(request).__name__}"
            )
        if request.seed != self.seed:
            request = dataclasses.replace(request, seed=self.seed)
        context = QueryContext()
        context.adopt_study(self)
        return execute(request, context)

    def run_all(
        self,
        jobs: int = 1,
        cache: Union[bool, "ArtifactCache", None] = None,
        report: bool = False,
        on_error: str = "raise",
        retry: Optional["RetryPolicy"] = None,
        timeout_s: Optional[float] = None,
        faults: Optional["FaultPlan"] = None,
    ) -> Union[Dict[str, FigureResult], "RunReport"]:
        """Regenerate every artifact, in paper order.

        The executor is serial, so ``jobs`` must be 1.  ``cache``
        selects the content-addressed artifact cache: pass an
        :class:`~repro.core.cache.ArtifactCache` to use a specific
        store, ``True`` for the default store, and ``False``/``None``
        to disable caching.  With ``report=True`` the full
        :class:`~repro.core.executor.RunReport` — a mapping of results
        that additionally carries per-artifact wall times and
        cache-hit flags — is returned instead of a plain dict.

        Failure semantics (see :mod:`repro.core.resilience`):
        ``on_error="isolate"`` quarantines a failing artifact plus its
        downstream dependents and returns a *partial* report whose
        ``failures`` ledger records what went wrong, instead of
        raising; ``retry`` bounds deterministic retries of transient
        failures; ``timeout_s`` is a per-artifact wall-clock budget;
        ``faults`` threads a deterministic
        :class:`~repro.core.faults.FaultPlan` through the engine's
        injection sites.  ``on_error="isolate"`` implies
        ``report=True`` (a plain dict cannot carry the ledger).
        """
        from repro.core.executor import ArtifactExecutor

        # ROADMAP item 4's benchmark change deletes jobs with BUILD_JOBS.
        if jobs != 1:
            raise ValueError(
                f"jobs must be 1, got {jobs}: the artifact executor is serial"
            )
        run_report = ArtifactExecutor(
            self,
            cache=cache,
            on_error=on_error,
            retry=retry,
            timeout_s=timeout_s,
            faults=faults,
        ).run()
        if on_error == "isolate":
            return run_report
        return run_report if report else run_report.results

    def ensemble(
        self,
        seeds: Union[int, Sequence[int]] = 5,
        jobs: int = 1,
        structural_effects: bool = True,
        faults: Optional["FaultPlan"] = None,
    ) -> "EnsembleResult":
        """Across-seed spread of the paper's claims rows.

        ``seeds`` is either an ensemble size — that many consecutive
        seeds starting from this study's own seed — or an explicit seed
        sequence; the rest is :func:`repro.core.ensemble.run_ensemble`.
        """
        from repro.core.ensemble import run_ensemble

        return run_ensemble(
            seeds,
            jobs=jobs,
            base_seed=self.seed,
            structural_effects=structural_effects,
            faults=faults,
        )

    def _sweep(self, number: int) -> SweepResult:
        with self._sweep_locks[number]:
            if number not in self._sweeps:
                self._sweeps[number] = run_sweep(TESTBED[number])
        return self._sweeps[number]

    # -- Section II / III exemplar ---------------------------------------------------

    def _fig01(self) -> FigureResult:
        exemplar = max(
            self._corpus.by_hw_year(2016),
            key=lambda result: result.ep,
        )
        loads, powers = exemplar.curve()
        peak = powers[-1]
        normalized = [p / peak for p in powers]
        chart = line_chart(
            {
                "server": list(zip(loads, normalized)),
                "ideal": [(u, u) for u in loads],
            },
            title=f"EP curve, {exemplar.hw_year} server, score "
            f"{exemplar.overall_score:.0f}, EP={exemplar.ep:.2f}",
        )
        return FigureResult(
            figure_id="fig1",
            title=description_of("fig1"),
            series={
                "utilization": loads,
                "normalized_power": normalized,
                "ep": exemplar.ep,
                "score": exemplar.overall_score,
            },
            text=chart,
        )

    def _fig02(self) -> FigureResult:
        points_ep = [(r.hw_year, r.ep) for r in self._corpus]
        points_ee = [(r.hw_year, r.overall_score) for r in self._corpus]
        text = scatter_chart(
            {"EP": points_ep}, title="EP by hardware availability year"
        )
        text += "\n" + scatter_chart(
            {"EE": points_ee}, title="Overall EE score by hardware availability year"
        )
        return FigureResult(
            figure_id="fig2",
            title=description_of("fig2"),
            series={"ep_points": points_ep, "ee_points": points_ee},
            text=text,
        )

    def _trend_result(self, figure_id: str, metric: str) -> FigureResult:
        trend = yearly_trend(self._corpus, metric, "hw")
        years = trend.years()
        rows = [
            [
                year,
                trend.by_year[year].minimum,
                trend.by_year[year].mean,
                trend.by_year[year].median,
                trend.by_year[year].maximum,
                trend.by_year[year].count,
            ]
            for year in years
        ]
        table = format_table(
            ["year", "min", "avg", "median", "max", "n"],
            rows,
            title=f"{metric} statistics by hardware availability year",
        )
        series = {
            "years": years,
            "min": trend.series("min"),
            "avg": trend.series("avg"),
            "median": trend.series("median"),
            "max": trend.series("max"),
        }
        return FigureResult(
            figure_id=figure_id,
            title=description_of(figure_id),
            series=series,
            text=table,
        )

    def _fig03(self) -> FigureResult:
        result = self._trend_result("fig3", "ep")
        steps = ep_step_changes(self._corpus)
        extra = (
            f"\nEP step changes: 2008->2009 avg {steps['avg_2008_2009']:+.1%} "
            f"(paper +48.65%), median {steps['median_2008_2009']:+.1%} (paper +51.35%); "
            f"2011->2012 avg {steps['avg_2011_2012']:+.1%} (paper +24.24%), "
            f"median {steps['median_2011_2012']:+.1%} (paper +26.87%)"
        )
        series = dict(result.series)
        series["step_changes"] = steps
        return FigureResult(
            figure_id="fig3",
            title=result.title,
            series=series,
            text=result.text + extra,
        )

    def _fig04(self) -> FigureResult:
        score = yearly_trend(self._corpus, "score", "hw")
        peak = yearly_trend(self._corpus, "peak_ee", "hw")
        years = score.years()
        rows = [
            [
                year,
                score.by_year[year].mean,
                score.by_year[year].median,
                score.by_year[year].maximum,
                score.by_year[year].minimum,
                peak.by_year[year].mean,
                peak.by_year[year].maximum,
            ]
            for year in years
        ]
        table = format_table(
            ["year", "avg EE", "med EE", "max EE", "min EE", "avg peak EE", "max peak EE"],
            rows,
            title="Energy-efficiency statistics by hardware availability year",
            float_format="{:.0f}",
        )
        return FigureResult(
            figure_id="fig4",
            title=description_of("fig4"),
            series={
                "years": years,
                "avg_ee": score.series("avg"),
                "median_ee": score.series("median"),
                "max_ee": score.series("max"),
                "min_ee": score.series("min"),
                "avg_peak_ee": peak.series("avg"),
                "max_peak_ee": peak.series("max"),
            },
            text=table,
        )

    def _fig05(self) -> FigureResult:
        cdf = ep_cdf(self._corpus)
        xs, ys = cdf.series()
        shares = decile_shares(cdf)
        landmarks = {
            "share_06_07": cdf.share_in(0.6, 0.7),
            "share_08_09": cdf.share_in(0.8, 0.9),
            "share_below_1": cdf(1.0 - 1e-12),
        }
        chart = line_chart(
            {"CDF": list(zip(xs, ys))}, title="CDF of energy proportionality"
        )
        text = chart + (
            f"\nshare in [0.6,0.7): {landmarks['share_06_07']:.2%} (paper 25.21%)"
            f"\nshare in [0.8,0.9): {landmarks['share_08_09']:.2%} (paper 17.44%)"
            f"\nshare below 1.0:    {landmarks['share_below_1']:.2%} (paper 99.58%)"
        )
        return FigureResult(
            figure_id="fig5",
            title=description_of("fig5"),
            series={"x": xs, "F": ys, "landmarks": landmarks, "deciles": shares},
            text=text,
        )

    # -- microarchitecture ---------------------------------------------------------------

    def _fig06(self) -> FigureResult:
        table = family_table(self._corpus)
        rows = [[stat.label, stat.count, stat.ep.mean] for stat in table]
        rendered = format_table(
            ["family", "servers", "avg EP"],
            rows,
            title="Servers by CPU microarchitecture family",
        )
        return FigureResult(
            figure_id="fig6",
            title=description_of("fig6"),
            series={stat.label: {"count": stat.count, "avg_ep": stat.ep.mean} for stat in table},
            text=rendered,
        )

    def _fig07(self) -> FigureResult:
        table = codename_ep_table(self._corpus)
        rows = [[stat.label, stat.count, stat.ep.mean, stat.ep.median] for stat in table]
        rendered = format_table(
            ["codename", "servers", "avg EP", "median EP"],
            rows,
            title="EP by microarchitecture codename",
        )
        explanation = stagnation_explanation(self._corpus)
        text = rendered + (
            f"\n2013-2014 observed avg EP {explanation['observed_2013_2014']:.3f} vs "
            f"{explanation['counterfactual_2012_mix']:.3f} under the 2012 mix; "
            f"2015-2016 recovers to {explanation['observed_2015_2016']:.3f}"
        )
        return FigureResult(
            figure_id="fig7",
            title=description_of("fig7"),
            series={
                "codenames": {
                    stat.label: {"count": stat.count, "avg_ep": stat.ep.mean}
                    for stat in table
                },
                "stagnation": explanation,
            },
            text=text,
        )

    def _fig08(self) -> FigureResult:
        mix = mix_by_year(self._corpus)
        rows = []
        for year, counts in mix.items():
            for codename, count in sorted(counts.items(), key=lambda kv: -kv[1]):
                rows.append([year, codename.value, count])
        rendered = format_table(
            ["year", "codename", "servers"],
            rows,
            title="Microarchitecture mix, 2012-2016",
        )
        from repro.viz.stacked import stacked_bars

        rendered += "\n\n" + stacked_bars(
            {
                year: {codename.value: count for codename, count in counts.items()}
                for year, counts in mix.items()
            },
            title="mix per year (100%-stacked)",
        )
        return FigureResult(
            figure_id="fig8",
            title=description_of("fig8"),
            series={
                year: {codename.value: count for codename, count in counts.items()}
                for year, counts in mix.items()
            },
            text=rendered,
        )

    # -- curve charts ---------------------------------------------------------------------

    def _fig09(self) -> FigureResult:
        env = curve_envelope(self._corpus, "power")
        chart = line_chart(
            {
                "upper (least proportional)": list(zip(env.utilization, env.upper)),
                "lower (most proportional)": list(zip(env.utilization, env.lower)),
                "ideal": [(u, u) for u in env.utilization],
            },
            title="Pencil-head chart envelope (all 477 EP curves lie between)",
        )
        lowest = self._corpus.get(env.upper_id)
        highest = self._corpus.get(env.lower_id)
        text = chart + (
            f"\nupper envelope hugged by {env.upper_id} (EP {lowest.ep:.2f}), "
            f"lower by {env.lower_id} (EP {highest.ep:.2f})"
        )
        return FigureResult(
            figure_id="fig9",
            title=description_of("fig9"),
            series={
                "utilization": list(env.utilization),
                "upper": list(env.upper),
                "lower": list(env.lower),
                "upper_ep": lowest.ep,
                "lower_ep": highest.ep,
            },
            text=text,
        )

    def _fig10(self) -> FigureResult:
        curves = selected_curves(self._corpus)
        chart_series = {
            f"{c.hw_year} EP={c.ep:.2f}": list(
                zip(UTILIZATION_LEVELS, c.power_curve)
            )
            for c in curves[:4]
        }
        chart_series["ideal"] = [(u, u) for u in UTILIZATION_LEVELS]
        ordering = intersection_ordering(curves)
        rows = [
            [
                f"{c.hw_year} EP={c.ep:.2f}",
                len(c.ideal_intersections),
                c.ideal_intersections[0] if c.ideal_intersections else float("nan"),
                c.peak_spot,
            ]
            for c in curves
        ]
        table = format_table(
            ["curve", "ideal crossings", "first crossing", "peak spot"],
            rows,
            title="Selected EP curves (Fig. 10)",
        )
        return FigureResult(
            figure_id="fig10",
            title=description_of("fig10"),
            series={
                "curves": {
                    f"{c.hw_year}:{c.ep:.2f}": list(c.power_curve) for c in curves
                },
                "intersection_ordering": ordering,
            },
            text=line_chart(chart_series, title="Selected EP curves (4 shown)")
            + "\n"
            + table,
        )

    def _fig11(self) -> FigureResult:
        env = curve_envelope(self._corpus, "ee")
        chart = line_chart(
            {
                "upper (most proportional)": list(zip(env.utilization, env.upper)),
                "lower (least proportional)": list(zip(env.utilization, env.lower)),
            },
            title="Almond chart envelope (all relative-EE curves lie between)",
        )
        return FigureResult(
            figure_id="fig11",
            title=description_of("fig11"),
            series={
                "utilization": list(env.utilization),
                "upper": list(env.upper),
                "lower": list(env.lower),
            },
            text=chart,
        )

    def _fig12(self) -> FigureResult:
        curves = selected_curves(self._corpus)
        rows = [
            [
                f"{c.hw_year} EP={c.ep:.2f}",
                c.crossing_08,
                c.crossing_10,
                c.peak_spot,
            ]
            for c in curves
        ]
        table = format_table(
            ["curve", "0.8x crossing", "1.0x crossing", "peak spot"],
            rows,
            title="Relative-EE crossings of the selected curves (Fig. 12)",
        )
        high_ep = [c for c in curves if c.ep > 1.0]
        notes = [
            f"{c.hw_year} EP={c.ep:.2f}: 0.8x at {c.crossing_08:.2f} "
            f"(paper: before 30%), 1.0x at {c.crossing_10:.2f} (paper: before 40%)"
            for c in high_ep
        ]
        return FigureResult(
            figure_id="fig12",
            title=description_of("fig12"),
            series={
                "curves": {
                    f"{c.hw_year}:{c.ep:.2f}": list(c.ee_curve) for c in curves
                },
                "crossings": {
                    f"{c.hw_year}:{c.ep:.2f}": (c.crossing_08, c.crossing_10)
                    for c in curves
                },
            },
            text=table + ("\n" + "\n".join(notes) if notes else ""),
        )

    # -- economies of scale ------------------------------------------------------------------

    def _fig13(self) -> FigureResult:
        stats = node_scaling(self._corpus)
        rows = [
            [stat.key, stat.count, stat.ep.mean, stat.ep.median, stat.score.mean, stat.score.median]
            for stat in stats
        ]
        table = format_table(
            ["nodes", "servers", "avg EP", "med EP", "avg EE", "med EE"],
            rows,
            title="EP/EE vs. server node count (Fig. 13)",
        )
        return FigureResult(
            figure_id="fig13",
            title=description_of("fig13"),
            series={
                stat.key: {
                    "count": stat.count,
                    "avg_ep": stat.ep.mean,
                    "median_ep": stat.ep.median,
                    "avg_ee": stat.score.mean,
                    "median_ee": stat.score.median,
                }
                for stat in stats
            },
            text=table,
        )

    def _fig14(self) -> FigureResult:
        stats = chip_scaling(self._corpus)
        rows = [
            [stat.key, stat.count, stat.ep.mean, stat.ep.median, stat.score.mean, stat.score.median]
            for stat in stats
        ]
        table = format_table(
            ["chips", "servers", "avg EP", "med EP", "avg EE", "med EE"],
            rows,
            title="Single-node EP/EE vs. chip count (Fig. 14)",
        )
        return FigureResult(
            figure_id="fig14",
            title=description_of("fig14"),
            series={
                stat.key: {
                    "count": stat.count,
                    "avg_ep": stat.ep.mean,
                    "median_ep": stat.ep.median,
                    "avg_ee": stat.score.mean,
                    "median_ee": stat.score.median,
                }
                for stat in stats
            },
            text=table,
        )

    def _fig15(self) -> FigureResult:
        comparison = two_chip_comparison(self._corpus)
        rows = [
            ["avg EP", comparison.avg_ep_gain, 0.0294],
            ["avg EE", comparison.avg_ee_gain, 0.0413],
            ["median EP", comparison.median_ep_gain, 0.0118],
            ["median EE", comparison.median_ee_gain, 0.0626],
        ]
        table = format_table(
            ["statistic", "measured gain", "paper gain"],
            rows,
            title="2-chip single-node servers vs. all servers (Fig. 15)",
        )
        return FigureResult(
            figure_id="fig15",
            title=description_of("fig15"),
            series={
                "avg_ep_gain": comparison.avg_ep_gain,
                "avg_ee_gain": comparison.avg_ee_gain,
                "median_ep_gain": comparison.median_ep_gain,
                "median_ee_gain": comparison.median_ee_gain,
            },
            text=table,
        )

    # -- peak shifting ---------------------------------------------------------------------------

    def _fig16(self) -> FigureResult:
        trend = peak_spot_trend(self._corpus)
        shares = peak_spot_shares(self._corpus)
        eras = era_comparison(self._corpus)
        rows = []
        for year, spots in trend.items():
            for spot, share in sorted(spots.items()):
                rows.append([year, f"{spot:.0%}", share])
        table = format_table(
            ["year", "peak spot", "share"],
            rows,
            title="Peak-efficiency utilization spot per year (Fig. 16)",
        )
        era_lines = []
        for era in eras:
            parts = ", ".join(
                f"{spot:.0%}: {share:.1%}" for spot, share in sorted(era.shares.items())
            )
            era_lines.append(f"{era.era[0]}-{era.era[1]} ({era.servers} servers): {parts}")
        from repro.viz.stacked import stacked_bars

        bars = stacked_bars(
            {
                year: {f"{spot:.0%}": share for spot, share in spots.items()}
                for year, spots in trend.items()
            },
            title="peak-EE spot share per year (the Fig. 16 stack)",
            category_order=["100%", "90%", "80%", "70%", "60%"],
        )
        text = table + "\n\n" + bars + "\n" + "\n".join(era_lines) + (
            f"\ntotal spots {total_spots(self._corpus)} for {len(self._corpus)} "
            f"servers (paper: 478 for 477); diversity starts "
            f"{first_diverse_year(self._corpus)} (paper: 2010)"
        )
        return FigureResult(
            figure_id="fig16",
            title=description_of("fig16"),
            series={
                "trend": {year: dict(spots) for year, spots in trend.items()},
                "shares": shares,
                "eras": {f"{e.era[0]}-{e.era[1]}": dict(e.shares) for e in eras},
            },
            text=text,
        )

    def _fig17(self) -> FigureResult:
        table = memory_per_core_table(self._corpus)
        best = best_memory_per_core(self._corpus)
        rows = [
            [stat.label, stat.count, stat.ep.mean, stat.score.mean] for stat in table
        ]
        rendered = format_table(
            ["GB/core", "servers", "avg EP", "avg EE"],
            rows,
            title="EP/EE by memory per core (Fig. 17)",
        )
        text = rendered + (
            f"\nbest GB/core for EP: {best['ep']:g} (paper 1.5); "
            f"for EE: {best['ee']:g} (paper 1.78)"
        )
        return FigureResult(
            figure_id="fig17",
            title=description_of("fig17"),
            series={
                "buckets": {
                    stat.label: {
                        "count": stat.count,
                        "avg_ep": stat.ep.mean,
                        "avg_ee": stat.score.mean,
                    }
                    for stat in table
                },
                "best": best,
            },
            text=text,
        )

    # -- hardware experiments ------------------------------------------------------------------------

    def _sweep_figure(self, figure_id: str, number: int) -> FigureResult:
        sweep = self._sweep(number)
        server = sweep.server
        rows = []
        frequencies: List[object] = list(server.frequencies_ghz) + ["ondemand"]
        for mpc in server.tested_memory_per_core:
            for frequency in frequencies:
                cell = sweep.cell(mpc, frequency)
                rows.append(
                    [
                        f"{mpc:g}",
                        frequency if isinstance(frequency, str) else f"{frequency:g}",
                        cell.overall_efficiency,
                        cell.peak_power_w,
                    ]
                )
        table = format_table(
            ["GB/core", "freq (GHz)", "EE (ops/W)", "peak W"],
            rows,
            title=f"Server #{number} ({server.name}) memory x frequency sweep",
            float_format="{:.1f}",
        )
        from repro.viz.heatmap import sweep_heatmap

        text = table + "\n\n" + sweep_heatmap(sweep) + (
            f"\nbest GB/core: {sweep.best_memory_per_core():g}; ondemand tracks "
            f"top frequency: {sweep.ondemand_tracks_top_frequency()}"
        )
        return FigureResult(
            figure_id=figure_id,
            title=description_of(figure_id),
            series={
                "best_memory_per_core": sweep.best_memory_per_core(),
                "cells": {
                    (cell.memory_per_core_gb, cell.frequency): {
                        "ee": cell.overall_efficiency,
                        "peak_w": cell.peak_power_w,
                    }
                    for cell in sweep.cells
                },
            },
            text=text,
        )

    def _fig18(self) -> FigureResult:
        return self._sweep_figure("fig18", 1)

    def _fig19(self) -> FigureResult:
        return self._sweep_figure("fig19", 2)

    def _fig20(self) -> FigureResult:
        return self._sweep_figure("fig20", 4)

    def _fig21(self) -> FigureResult:
        sweep = self._sweep(4)
        server = sweep.server
        ee_series = {}
        power_series = {}
        for mpc in server.tested_memory_per_core:
            ee = sweep.efficiency_by_frequency(mpc)
            pw = sweep.peak_power_by_frequency(mpc)
            ee_series[f"EE MPC={mpc:g}"] = sorted(ee.items())
            power_series[f"P MPC={mpc:g}"] = sorted(pw.items())
        text = line_chart(ee_series, title="Server #4 EE vs frequency (Fig. 21)")
        text += "\n" + line_chart(
            power_series, title="Server #4 peak power vs frequency (Fig. 21)"
        )
        return FigureResult(
            figure_id="fig21",
            title=description_of("fig21"),
            series={"ee": ee_series, "peak_power": power_series},
            text=text,
        )

    # -- tables ------------------------------------------------------------------------------------------

    def _table1(self) -> FigureResult:
        table = memory_per_core_table(self._corpus)
        rows = [[stat.label, stat.count] for stat in table]
        rendered = format_table(
            ["memory per core (GB/core)", "count"],
            rows,
            title="Table I: memory-per-core statistics",
        )
        return FigureResult(
            figure_id="table1",
            title=description_of("table1"),
            series={stat.label: stat.count for stat in table},
            text=rendered,
        )

    def _table2(self) -> FigureResult:
        rows = testbed_table()
        rendered = format_table(
            ["No", "Name", "Year", "CPU", "Cores", "TDP (W)", "Memory (GB)", "Disk"],
            rows,
            title="Table II: base configuration of the tested 2U servers",
        )
        return FigureResult(
            figure_id="table2",
            title=description_of("table2"),
            series={"rows": rows},
            text=rendered,
        )

    # -- scalar findings -----------------------------------------------------------------------------------

    def _eq2(self) -> FigureResult:
        regression = idle_regression(self._corpus)
        score_corr = ep_score_correlation(self._corpus)
        text = (
            f"EP = {regression.fit.amplitude:.4f} * exp({regression.fit.rate:.3f} * idle)\n"
            f"R^2 = {regression.fit.r_squared:.3f} (paper 0.892)\n"
            f"corr(EP, idle%) = {regression.correlation:.3f} (paper -0.92)\n"
            f"corr(EP, score) = {score_corr:.3f} (paper 0.741)\n"
            f"predicted EP at 5% idle: {regression.predicted_ep(0.05):.3f} (paper 1.17)\n"
            f"EP ceiling (idle -> 0): {regression.ceiling:.3f} (paper 1.297)"
        )
        return FigureResult(
            figure_id="eq2",
            title=description_of("eq2"),
            series={
                "amplitude": regression.fit.amplitude,
                "rate": regression.fit.rate,
                "r_squared": regression.fit.r_squared,
                "corr_ep_idle": regression.correlation,
                "corr_ep_score": score_corr,
            },
            text=text,
        )

    def _reorg(self) -> FigureResult:
        lines = []
        series = {"mismatch_fraction": mismatch_fraction(self._corpus)}
        lines.append(
            f"results with published != hardware year: "
            f"{series['mismatch_fraction']:.1%} (paper 15.5%)"
        )
        for metric, label in (("ep", "EP"), ("score", "EE")):
            for field_name in ("avg", "median"):
                deltas = reorganization_deltas(self._corpus, metric, field_name)
                low, high = delta_range(deltas)
                series[f"{metric}_{field_name}_range"] = (low, high)
                lines.append(
                    f"{field_name} {label} shift across years: "
                    f"{low:+.1%} .. {high:+.1%}"
                )
        lines.append(
            "(paper: avg EP -6.2%..8.7%, median EP -8.6%..13.1%, "
            "avg EE -2.2%..16.6%, median EE -5.0%..20.8%)"
        )
        return FigureResult(
            figure_id="reorg",
            title=description_of("reorg"),
            series=series,
            text="\n".join(lines),
        )

    def _asynchrony(self) -> FigureResult:
        report = asynchrony_report(self._corpus)
        ep_shares = year_share_in_top(self._corpus, "ep")
        ee_shares = year_share_in_top(self._corpus, "score")
        text = (
            f"top-10% EP from 2012: {report.top_ep_share_2012:.1%} (paper 91.7%)\n"
            f"top-10% EE from 2012: {report.top_ee_share_2012:.1%} (paper 16.7%)\n"
            f"2012 population share: {report.population_share_2012:.1%} (paper 27.4%)\n"
            f"EP/EE top-decile overlap: {report.overlap_fraction:.1%} (paper 14.6%)\n"
            f"2015-2016 servers in top-10% EE: {report.recent_in_top_ee}/"
            f"{report.recent_servers} (paper: all)"
        )
        return FigureResult(
            figure_id="asynchrony",
            title=description_of("asynchrony"),
            series={
                "report": report,
                "top_ep_by_year": ep_shares,
                "top_ee_by_year": ee_shares,
            },
            text=text,
        )

    def _placement(self) -> FigureResult:
        fleet = list(self._corpus.by_hw_year_range(2013, 2016))
        capacity = sum(
            level.ssj_ops
            for server in fleet
            for level in server.levels
            if level.target_load == 1.0
        )
        demand = 0.5 * capacity
        packed = pack_to_full_placement(fleet, demand)
        aware = ep_aware_placement(fleet, demand)
        saving = 1.0 - aware.total_power_w / packed.total_power_w
        text = (
            f"fleet: {len(fleet)} servers (2013-2016), demand = 50% of capacity\n"
            f"pack-to-full: {packed.servers_used} servers, "
            f"{packed.total_power_w:.0f} W, {packed.fleet_efficiency:.1f} ops/W\n"
            f"EP-aware:     {aware.servers_used} servers, "
            f"{aware.total_power_w:.0f} W, {aware.fleet_efficiency:.1f} ops/W\n"
            f"power saving from EP-aware placement: {saving:.1%}"
        )
        return FigureResult(
            figure_id="placement",
            title=description_of("placement"),
            series={
                "demand_ops": demand,
                "pack_power_w": packed.total_power_w,
                "aware_power_w": aware.total_power_w,
                "saving": saving,
            },
            text=text,
        )

    # -- extensions -----------------------------------------------------------------------------

    def _gap(self) -> FigureResult:
        from repro.analysis.gap import gap_trend, low_band_lag

        trend = gap_trend(self._corpus)
        lag = low_band_lag(self._corpus)
        rows = [
            [year, mean, low]
            for year, mean, low in zip(
                trend.years, trend.mean_gap, trend.low_band_gap
            )
        ]
        table = format_table(
            ["year", "mean gap", "gap @10-30%"],
            rows,
            title="Proportionality gap by hardware availability year",
        )
        text = table + (
            f"\nmodern cohort (2013-2016): avg EP {lag['modern_avg_ep']:.2f}, "
            f"yet the 10-30% band still gaps {lag['low_band_gap']:.3f} above "
            f"ideal ({lag['low_minus_mid']:+.3f} vs the 50-80% band)"
        )
        return FigureResult(
            figure_id="gap",
            title=description_of("gap"),
            series={"trend": trend, "lag": lag},
            text=text,
        )

    def _metric_family(self) -> FigureResult:
        from repro.analysis.metric_comparison import (
            METRIC_FAMILY,
            equal_ep_different_ld,
            rank_correlation_matrix,
        )

        matrix = rank_correlation_matrix(self._corpus)
        rows = [
            [a] + [matrix[(a, b)] for b in METRIC_FAMILY] for a in METRIC_FAMILY
        ]
        table = format_table(
            ["metric"] + list(METRIC_FAMILY),
            rows,
            title="Spearman correlations of the proportionality-metric family",
        )
        pairs = equal_ep_different_ld(self._corpus)
        text = table + (
            f"\nequal-EP pairs with clearly different LD: {len(pairs)} "
            f"(the scalar conceals curve shape)"
        )
        return FigureResult(
            figure_id="metric_family",
            title=description_of("metric_family"),
            series={"matrix": matrix, "equal_ep_pairs": pairs},
            text=text,
        )

    def _forecast(self) -> FigureResult:
        from repro.analysis.forecast import ep_headroom, spot_drift_forecast

        headroom = ep_headroom(self._corpus)
        drift = spot_drift_forecast(self._corpus)
        lines = [
            f"fleet today: mean EP {headroom.current_mean_ep:.2f} at mean idle "
            f"{headroom.current_mean_idle:.0%} "
            f"({headroom.banked_fraction:.0%} of the Eq. 2 ceiling "
            f"{headroom.fitted_ceiling:.3f})",
        ]
        for idle, ep in sorted(headroom.projections.items(), reverse=True):
            lines.append(f"  at {idle:.0%} idle -> projected EP {ep:.2f}")
        lines.append(
            f"peak-spot drift since 2010: {drift.slope_per_year:+.3f}/year; "
            f"mean spot reaches 50% utilization ~{drift.year_reaching(0.5)} "
            f"(paper: '50% or even 40% in the near future')"
        )
        return FigureResult(
            figure_id="forecast",
            title=description_of("forecast"),
            series={"headroom": headroom, "drift": drift},
            text="\n".join(lines),
        )

    def _workloads(self) -> FigureResult:
        from repro.hwexp.workloads import compare_workloads, ep_spread
        from repro.ssj.variants import VARIANTS

        results = compare_workloads(TESTBED[4], list(VARIANTS.values()))
        rows = [
            [name, outcome.ep, outcome.overall_ee, outcome.power_w[-1]]
            for name, outcome in sorted(
                results.items(), key=lambda kv: -kv[1].ep
            )
        ]
        table = format_table(
            ["workload", "EP", "EE (ops/W)", "peak W"],
            rows,
            title="Server #4 under four workload personalities",
        )
        spread = ep_spread(results)
        return FigureResult(
            figure_id="workloads",
            title=description_of("workloads"),
            series={"results": results, "ep_spread": spread},
            text=table + f"\nEP spread across workloads: {spread:.3f}",
        )

    def _trace(self) -> FigureResult:
        from repro.cluster.trace import compare_policies, daily_saving, diurnal_trace

        fleet = list(self._corpus.by_hw_year_range(2014, 2016))
        trace = diurnal_trace(steps_per_day=24, noise=0.0)
        outcomes = compare_policies(fleet, trace)
        saving = daily_saving(outcomes)
        rows = [
            [
                outcome.policy,
                outcome.energy_kwh,
                outcome.served_gops,
                outcome.energy_per_gop * 1000.0,
            ]
            for outcome in outcomes.values()
        ]
        table = format_table(
            ["policy", "energy (kWh/day)", "served (Gops)", "Wh per Gop"],
            rows,
            title=f"One diurnal day over {len(fleet)} servers (2014-2016)",
        )
        return FigureResult(
            figure_id="trace",
            title=description_of("trace"),
            series={"outcomes": outcomes, "saving": saving},
            text=table + f"\nEP-aware daily energy saving: {saving:.1%}",
        )

    def _jobs(self) -> FigureResult:
        from repro.cluster.jobs import compare_schedulers, synthesize_jobs

        fleet = list(self._corpus.by_hw_year_range(2014, 2016))
        jobs = synthesize_jobs(fleet, demand_fraction=0.5, seed=4)
        schedules = compare_schedulers(fleet, jobs)
        rows = [
            [
                schedule.policy,
                schedule.servers_loaded,
                schedule.total_power_w,
                len(schedule.unplaced),
            ]
            for schedule in schedules.values()
        ]
        table = format_table(
            ["scheduler", "servers loaded", "fleet W", "unplaced jobs"],
            rows,
            title=f"{len(jobs)} jobs at 50% of fleet capacity",
        )
        ffd = schedules["first-fit-decreasing"].total_power_w
        spot = schedules["peak-spot-aware"].total_power_w
        saving = 1.0 - spot / ffd
        return FigureResult(
            figure_id="jobs",
            title=description_of("jobs"),
            series={"schedules": schedules, "saving": saving, "jobs": len(jobs)},
            text=table + f"\npeak-spot-aware power saving: {saving:+.1%}",
        )

    def _procurement(self) -> FigureResult:
        from repro.cluster.procurement import (
            build_controlled_candidates,
            plan_procurement,
        )
        from repro.cluster.trace import diurnal_trace

        # The controlled pair isolates the Section I caution: identical
        # platforms except that one trades proportionality for a higher
        # headline (peak) efficiency.
        controlled = plan_procurement(
            build_controlled_candidates(), 5e5, trace=diurnal_trace(noise=0.0)
        )
        # Context: a realistic shortlist of the best 2016 corpus models.
        shortlist = plan_procurement(
            sorted(
                self._corpus.by_hw_year(2016),
                key=lambda result: -result.overall_score,
            )[:6],
            5e6,
            trace=diurnal_trace(noise=0.0),
        )
        rows = [
            [
                evaluation.candidate.model,
                evaluation.ep,
                evaluation.peak_ee,
                evaluation.servers_needed,
                evaluation.daily_energy_kwh,
            ]
            for evaluation in controlled.evaluations
        ]
        table = format_table(
            ["candidate", "EP", "peak EE", "servers", "kWh/day"],
            rows,
            title="Controlled pair: throughput champion vs proportional design",
        )
        corpus_rows = [
            [
                evaluation.candidate.result_id,
                evaluation.ep,
                evaluation.peak_ee,
                evaluation.daily_energy_kwh,
            ]
            for evaluation in shortlist.evaluations
        ]
        corpus_table = format_table(
            ["2016 model", "EP", "peak EE", "kWh/day"],
            corpus_rows,
            title="Context: the six highest-scoring 2016 corpus models",
        )
        text = table + (
            f"\nbuying by peak EE picks the throughput champion and costs "
            f"{controlled.naive_penalty:+.1%} daily energy\n\n"
        ) + corpus_table
        return FigureResult(
            figure_id="procurement",
            title=description_of("procurement"),
            series={
                "controlled": controlled,
                "shortlist": shortlist,
                "naive_penalty": controlled.naive_penalty,
                "naive_matches": controlled.naive_choice_matches,
            },
            text=text,
        )

    def _prior_work(self) -> FigureResult:
        from repro.analysis.prior_subsets import (
            ep_score_correlation_drift,
            high_ep_peak_spot_comparison,
            mean_ep_drift,
        )

        correlation = ep_score_correlation_drift(self._corpus)
        mean_ep = mean_ep_drift(self._corpus)
        wong = high_ep_peak_spot_comparison(self._corpus)
        text = (
            f"Hsu & Poole window (published <= 2014, {correlation.subset_size} "
            f"results): corr(EP, score) = {correlation.subset_value:.3f} "
            f"(they reported 0.83)\n"
            f"full record ({len(self._corpus)} results): "
            f"{correlation.full_value:.3f} (paper: 0.741)\n"
            f"Wong MICRO'12 window ({mean_ep.subset_size} results): mean EP "
            f"{mean_ep.subset_value:.2f}; full record {mean_ep.full_value:.2f}\n"
            f"Wong ISCA'16 dispute: {wong['high_ep_low_spot_share_full']:.0%} "
            f"of high-EP servers do peak at <=70% utilization, but only "
            f"{wong['share_60_full']:.1%} of the population peaks at 60%"
        )
        return FigureResult(
            figure_id="prior_work",
            title=description_of("prior_work"),
            series={
                "correlation_drift": correlation,
                "mean_ep_drift": mean_ep,
                "wong": wong,
            },
            text=text,
        )

    def _wong(self) -> FigureResult:
        comparison = wong_comparison(self._corpus)
        text = (
            f"servers peaking at 100%: {comparison['share_100']:.2%} (paper 69.25%)\n"
            f"servers peaking at 60%:  {comparison['share_60']:.2%} (paper 1.88%)\n"
            f"60%-peakers: {comparison['count_60']:.0f} servers, average peak EE "
            f"{comparison['avg_peak_ee_60']:.0f} ops/W"
        )
        return FigureResult(
            figure_id="wong",
            title=description_of("wong"),
            series=comparison,
            text=text,
        )
