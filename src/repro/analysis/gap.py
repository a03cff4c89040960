"""Corpus-level proportionality-gap analysis (related-work extension).

Wong & Annavaram (refs. [17]/[48] of the paper) tracked the per-level
proportionality gap across the published results and found that the
low-utilization region lags: overall EP improved, yet servers at
10-30% utilization still burn far more than proportional power.  This
module reproduces that view on the corpus so the related-work claim
can be checked alongside the paper's own Fig. 3 trend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.dataset.corpus import Corpus
from repro.metrics.ep import UTILIZATION_LEVELS


@dataclass(frozen=True)
class GapTrend:
    """Per-year mean proportionality gap, overall and low-utilization."""

    years: Tuple[int, ...]
    mean_gap: Tuple[float, ...]         # mean over all levels
    low_band_gap: Tuple[float, ...]     # mean over 10-30% utilization
    peak_gap_location: Tuple[float, ...]  # utilization of the largest gap


def gap_trend(corpus: Corpus) -> GapTrend:
    """The yearly proportionality-gap trend.

    Each year averages its members' rows of the corpus-wide array pass
    (:meth:`repro.dataset.columns.CorpusColumns.curve_metrics`),
    selected by a mask over the ``hw_year`` column.
    """
    columns = corpus.columns()
    metrics = columns.curve_metrics()
    hw_year = columns.array("hw_year")
    years = corpus.hw_years()
    mean_gaps: List[float] = []
    low_gaps: List[float] = []
    peak_locations: List[float] = []
    for year in years:
        members = hw_year == year
        mean_gaps.append(float(np.mean(metrics.gap_mean[members])))
        low_gaps.append(float(np.mean(metrics.pg_low[members])))
        peak_locations.append(float(np.mean(metrics.peak_gap_at[members])))
    return GapTrend(
        years=tuple(years),
        mean_gap=tuple(mean_gaps),
        low_band_gap=tuple(low_gaps),
        peak_gap_location=tuple(peak_locations),
    )


def mean_gap_profile(corpus: Corpus) -> Dict[float, float]:
    """Corpus-mean PG per measurement level (the Wong profile chart)."""
    gap = corpus.columns().curve_metrics().gap
    if gap is None:
        raise ValueError("records differ in level count; no shared gap profile")
    mean = gap.mean(axis=0)
    return {
        float(level): float(value)
        for level, value in zip(UTILIZATION_LEVELS, mean)
    }


def low_band_lag(corpus: Corpus) -> Dict[str, float]:
    """Quantify the related-work claim on the modern cohort.

    Returns the modern (2013-2016) cohort's scalar EP alongside its
    low-band gap, plus the ratio of low-band gap to mid-band gap; a
    ratio well above 1 is exactly "the low-utilization region is not
    well energy proportional" even on servers with good EP.
    """
    columns = corpus.columns()
    metrics = columns.curve_metrics()
    hw_year = columns.array("hw_year")
    modern = (hw_year >= 2013) & (hw_year <= 2016)
    low_mean = float(np.mean(metrics.pg_low[modern]))
    mid_mean = float(np.mean(metrics.pg_mid[modern]))
    return {
        "modern_avg_ep": float(np.mean(metrics.ep[modern])),
        "low_band_gap": low_mean,
        "mid_band_gap": mid_mean,
        "low_minus_mid": low_mean - mid_mean,
        "low_over_mid": low_mean / max(mid_mean, 1e-9),
    }
