"""The pencil-head and almond charts and the selected-curve studies.

Fig. 9 overlays all 477 normalized power curves ("pencil head"): every
curve lies between the curve of the least proportional server (EP 0.18,
the upper envelope) and the most proportional one (EP 1.05, the lower
envelope).  Fig. 11 does the same for relative efficiency ("almond"),
with the envelope roles swapped.  Figs. 10 and 12 pull out eleven
representative servers and study where their curves intersect the
ideal line and how early they reach 0.8x / 1.0x of their full-load
efficiency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dataset.corpus import Corpus
from repro.dataset.schema import SpecPowerResult
from repro.metrics.curves import ee_relative_curve, envelope
from repro.metrics.ep import UTILIZATION_LEVELS


@dataclass(frozen=True)
class CurveEnvelope:
    """Pointwise envelope of a family of aligned curves."""

    utilization: Tuple[float, ...]
    lower: Tuple[float, ...]
    upper: Tuple[float, ...]
    lower_id: str  # id of the server tracing most of the lower edge
    upper_id: str

    def contains(self, curve) -> bool:
        """True when the aligned curve lies inside the envelope."""
        arr = np.asarray(curve, dtype=float)
        return bool(
            np.all(arr >= np.asarray(self.lower) - 1e-9)
            and np.all(arr <= np.asarray(self.upper) + 1e-9)
        )


def _aligned_row(result: SpecPowerResult, kind: str) -> List[float]:
    """One server's normalized power (or relative-EE) curve."""
    loads, powers = result.curve()
    if kind == "power":
        peak = powers[-1]
        return [p / peak for p in powers]
    return list(ee_relative_curve(loads, powers))


def _aligned_curves(corpus: Corpus, kind: str) -> Tuple[np.ndarray, List[str]]:
    """(matrix, ids): each row is one server's normalized curve.

    A corpus on one grid normalizes :meth:`~repro.dataset.corpus.Corpus.columns`'
    power matrix in one array operation, with :func:`ee_relative_curve`'s
    own elementwise arithmetic, so every entry equals :func:`_aligned_row`'s.
    A corpus on mixed grids (or an empty one) builds the rows per record.
    """
    if kind not in ("power", "ee"):
        raise ValueError("kind must be 'power' or 'ee'")
    ids = [result.result_id for result in corpus]
    columns = corpus.columns()
    try:
        grid, power = columns.load_grid(), columns.power_matrix()
    except ValueError:
        return np.asarray([_aligned_row(result, kind) for result in corpus]), ids
    norm = power / power[:, -1:]
    if kind == "power":
        return norm, ids
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(norm > 0.0, grid / norm, 0.0), ids


def curve_envelope(corpus: Corpus, kind: str = "power") -> CurveEnvelope:
    """The Fig. 9 (power) or Fig. 11 (efficiency) envelope."""
    matrix, ids = _aligned_curves(corpus, kind)
    lower, upper = envelope(matrix)
    # Attribute each edge to the server hugging it most often.
    lower_hits = (np.abs(matrix - lower[None, :]) < 1e-9).sum(axis=1)
    upper_hits = (np.abs(matrix - upper[None, :]) < 1e-9).sum(axis=1)
    return CurveEnvelope(
        utilization=tuple(UTILIZATION_LEVELS),
        lower=tuple(float(v) for v in lower),
        upper=tuple(float(v) for v in upper),
        lower_id=ids[int(np.argmax(lower_hits))],
        upper_id=ids[int(np.argmax(upper_hits))],
    )


@dataclass(frozen=True)
class SelectedCurve:
    """One representative server's curve-shape facts (Figs. 10 / 12)."""

    result_id: str
    hw_year: int
    ep: float
    power_curve: Tuple[float, ...]
    ee_curve: Tuple[float, ...]
    ideal_intersections: Tuple[float, ...]
    crossing_08: float  # earliest utilization reaching 0.8x EE(100%)
    crossing_10: float  # earliest utilization reaching 1.0x EE(100%)
    peak_spot: float


def _selected_curve(result: SpecPowerResult) -> SelectedCurve:
    loads, powers = result.curve()
    peak = powers[-1]
    return SelectedCurve(
        result_id=result.result_id,
        hw_year=result.hw_year,
        ep=result.ep,
        power_curve=tuple(p / peak for p in powers),
        ee_curve=tuple(float(v) for v in ee_relative_curve(loads, powers)),
        ideal_intersections=tuple(result.ideal_intersections()),
        crossing_08=result.ee_crossing(0.8),
        crossing_10=result.ee_crossing(1.0),
        peak_spot=result.primary_peak_spot,
    )


def selected_curves(
    corpus: Corpus, targets: Optional[Dict[str, float]] = None
) -> List[SelectedCurve]:
    """The eleven representative servers of Figs. 10/12.

    ``targets`` maps a label to an EP value; for each (year, EP) pair
    the closest corpus member is selected.  The default reproduces the
    paper's selection.
    """
    if targets is None:
        targets = {
            "2008": 0.18,
            "2005": 0.30,
            "2009": 0.61,
            "2011": 0.75,
            "2016a": 0.75,
            "2016b": 0.82,
            "2014": 0.86,
            "2016c": 0.87,
            "2016d": 0.96,
            "2016e": 1.02,
            "2012": 1.05,
        }
    chosen: List[SelectedCurve] = []
    used = set()
    for label, ep_target in targets.items():
        year = int(label[:4])
        members = [
            result
            for result in corpus.by_hw_year(year)
            if result.result_id not in used
        ]
        if not members:
            raise ValueError(f"no corpus members in year {year}")
        best = min(members, key=lambda result: abs(result.ep - ep_target))
        used.add(best.result_id)
        chosen.append(_selected_curve(best))
    chosen.sort(key=lambda curve: curve.ep)
    return chosen


def intersection_ordering(curves: List[SelectedCurve]) -> List[Tuple[float, float]]:
    """(EP, first-intersection) pairs for curves that cross the ideal line.

    Section III.C: among curves that intersect the ideal EP curve, the
    higher the EP, the farther the intersection sits from 100%
    utilization (i.e. the smaller the crossing utilization).
    """
    pairs = [
        (curve.ep, curve.ideal_intersections[0])
        for curve in curves
        if curve.ideal_intersections
    ]
    pairs.sort()
    return pairs
