"""The paper's analyses, computed from a :class:`~repro.dataset.corpus.Corpus`.

One module per analysis axis:

* :mod:`repro.analysis.stats` -- summary-statistic primitives;
* :mod:`repro.analysis.temporal` -- trends by hardware-availability
  year vs. published year (Figs. 2-4, the reorganization deltas);
* :mod:`repro.analysis.cdf` -- the EP distribution (Fig. 5);
* :mod:`repro.analysis.grouping` -- microarchitecture and
  memory-per-core breakdowns (Figs. 6-8, 17, Table I);
* :mod:`repro.analysis.envelopes` -- the pencil-head and almond charts
  and the selected-curve studies (Figs. 9-12);
* :mod:`repro.analysis.scale` -- economies of scale in nodes and chips
  (Figs. 13-15);
* :mod:`repro.analysis.peak_shift` -- peak-efficiency utilization
  shifting (Fig. 16) and the comparison with Wong's ISCA'16 claim;
* :mod:`repro.analysis.asynchrony` -- EP/EE top-decile divergence
  (Section IV.B);
* :mod:`repro.analysis.regression_study` -- Eq. 2 and the headline
  correlations (Sections I and III.D).
"""

from repro.analysis.asynchrony import asynchrony_report
from repro.analysis.forecast import ep_headroom, spot_drift_forecast
from repro.analysis.gap import gap_trend, low_band_lag, mean_gap_profile
from repro.analysis.metric_comparison import metric_table, rank_correlation_matrix
from repro.analysis.prior_subsets import (
    ep_score_correlation_drift,
    hsu_poole_subset,
    wong_2011_subset,
    wong_2015_subset,
)
from repro.analysis.cdf import ep_cdf
from repro.analysis.envelopes import curve_envelope, selected_curves
from repro.analysis.grouping import (
    codename_ep_table,
    family_counts,
    memory_per_core_table,
    mix_by_year,
)
from repro.analysis.peak_shift import peak_spot_shares, peak_spot_trend
from repro.analysis.regression_study import idle_regression
from repro.analysis.scale import chip_scaling, node_scaling, two_chip_comparison
from repro.analysis.stats import Summary, summarize
from repro.analysis.temporal import reorganization_deltas, yearly_trend

__all__ = [
    "Summary",
    "asynchrony_report",
    "chip_scaling",
    "codename_ep_table",
    "curve_envelope",
    "ep_cdf",
    "ep_headroom",
    "ep_score_correlation_drift",
    "hsu_poole_subset",
    "spot_drift_forecast",
    "gap_trend",
    "family_counts",
    "idle_regression",
    "memory_per_core_table",
    "metric_table",
    "low_band_lag",
    "mean_gap_profile",
    "mix_by_year",
    "node_scaling",
    "peak_spot_shares",
    "peak_spot_trend",
    "reorganization_deltas",
    "rank_correlation_matrix",
    "selected_curves",
    "summarize",
    "two_chip_comparison",
    "wong_2011_subset",
    "wong_2015_subset",
    "yearly_trend",
]
