"""The EP distribution (Fig. 5).

The paper reads three landmarks off the CDF: 25.21% of servers fall in
[0.6, 0.7), 17.44% in [0.8, 0.9), and 99.58% score below 1.0 (only two
servers ever exceeded ideal proportionality).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple

import numpy as np

from repro.dataset.corpus import Corpus


@dataclass(frozen=True)
class EmpiricalCdf:
    """An empirical CDF over a finite sample."""

    sorted_values: Tuple[float, ...]

    @cached_property
    def _array(self) -> np.ndarray:
        """The sample as a numpy array, built once per instance."""
        arr = np.asarray(self.sorted_values)
        arr.setflags(write=False)
        return arr

    def __call__(self, x: float) -> float:
        """P(value <= x)."""
        arr = self._array
        return float(np.searchsorted(arr, x, side="right")) / len(arr)

    def share_in(self, low: float, high: float) -> float:
        """P(low <= value < high)."""
        arr = self._array
        below_high = float(np.searchsorted(arr, high, side="left"))
        below_low = float(np.searchsorted(arr, low, side="left"))
        return (below_high - below_low) / len(arr)

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` of the sample."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must lie in [0, 1]")
        return float(np.quantile(self._array, q))

    def series(self) -> Tuple[List[float], List[float]]:
        """(x, F(x)) pairs for plotting."""
        arr = list(self.sorted_values)
        n = len(arr)
        return arr, [(i + 1) / n for i in range(n)]


def empirical_cdf(values: Sequence[float]) -> EmpiricalCdf:
    """Build an empirical CDF from a finite sample."""
    ordered = tuple(sorted(float(v) for v in values))
    if not ordered:
        raise ValueError("cannot build a CDF from an empty sample")
    return EmpiricalCdf(sorted_values=ordered)


def ep_cdf(corpus: Corpus) -> EmpiricalCdf:
    """The Fig. 5 CDF: energy proportionality over the whole corpus.

    Pulls the EP column from the corpus' cached column store and sorts
    it in one vectorized pass; same tuple as sorting the per-record
    comprehension.
    """
    values = corpus.columns().array("ep")
    if values.size == 0:
        raise ValueError("cannot build a CDF from an empty sample")
    return EmpiricalCdf(sorted_values=tuple(np.sort(values).tolist()))


def decile_shares(cdf: EmpiricalCdf) -> dict:
    """Share of the population in each 0.1-wide EP band."""
    bands = {}
    for i in range(0, 12):
        low = round(0.1 * i, 1)
        high = round(0.1 * (i + 1), 1)
        share = cdf.share_in(low, high)
        if share > 0.0:
            bands[(low, high)] = share
    return bands


#: The quantiles a CDF query reports, labelled ``p10`` .. ``p99``.
LANDMARK_QUANTILES = (0.10, 0.25, 0.50, 0.75, 0.90, 0.99)


@dataclass(frozen=True)
class CdfLandmarks:
    """A sorted CDF and the landmarks read off it, all immutable.

    Everything here depends only on the sample, so a long-lived query
    context builds it once per (corpus slice, metric) and each answer
    copies the tuples into its own dicts and lists.
    """

    cdf: EmpiricalCdf
    #: ``(label, value)`` for each of :data:`LANDMARK_QUANTILES`.
    quantiles: Tuple[Tuple[str, float], ...]
    #: ``(lo, hi, share)`` for each non-empty band of :func:`decile_shares`.
    deciles: Tuple[Tuple[float, float, float], ...]


def cdf_landmarks(values: Sequence[float]) -> CdfLandmarks:
    """Sort ``values`` once and read the quantile and decile landmarks."""
    cdf = empirical_cdf(values)
    return CdfLandmarks(
        cdf=cdf,
        quantiles=tuple(
            (f"p{int(q * 100)}", cdf.quantile(q)) for q in LANDMARK_QUANTILES
        ),
        deciles=tuple(
            (lo, hi, share) for (lo, hi), share in decile_shares(cdf).items()
        ),
    )
