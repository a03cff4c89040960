"""Columnar store over a corpus: named numpy arrays, built lazily.

The per-record comprehensions in :mod:`repro.analysis` and the fleet
engines in :mod:`repro.cluster` repeatedly walk the same records and
pull the same attributes.  :class:`CorpusColumns` materializes those
attributes once, as named arrays in corpus order:

* scalar metric columns (``ep``, ``score``, ``peak_ee``, ...) gathered
  from each record's cached derived metrics -- bit-identical to the
  per-record properties, never re-derived;
* configuration columns (``hw_year``, ``nodes``, ``memory_gb``, ...);
* object columns (``result_id``, ``codename``, ``family``);
* the ragged ``peak_ee_spots`` lists in CSR form
  (:meth:`~CorpusColumns.peak_spot_values` plus
  :meth:`~CorpusColumns.peak_spot_offsets`);
* the fleet curve matrices (:meth:`~CorpusColumns.load_grid`,
  :meth:`~CorpusColumns.power_matrix`,
  :meth:`~CorpusColumns.ops_matrix`) consumed by
  :class:`repro.cluster.fleet_arrays.FleetArrays`;
* the proportionality-metric family and gap profile of every record
  (:meth:`~CorpusColumns.curve_metrics`), one array pass over those
  matrices, read by :mod:`repro.analysis.metric_comparison` and
  :mod:`repro.analysis.gap`.

Every array is memoized on first access and write-protected.  The
store is keyed on the owning corpus' content fingerprint --
:meth:`repro.dataset.corpus.Corpus.columns` rebuilds it whenever the
stored fingerprint no longer matches the corpus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence

import numpy as np

from repro.metrics.ep import _as_curve, energy_proportionality
from repro.metrics.gap import low_utilization_gap, peak_gap, proportionality_gap
from repro.metrics.linearity import energy_ratio, idle_to_peak_ratio, linear_deviation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dataset.schema import SpecPowerResult

#: name -> (dtype, attribute getter) for the per-record columns.
_COLUMN_SPECS = {
    "ep": (np.float64, lambda r: r.ep),
    "score": (np.float64, lambda r: r.overall_score),
    "idle_fraction": (np.float64, lambda r: r.idle_fraction),
    "peak_ee": (np.float64, lambda r: r.peak_ee),
    "primary_peak_spot": (np.float64, lambda r: r.primary_peak_spot),
    "memory_per_core_gb": (np.float64, lambda r: r.memory_per_core_gb),
    "memory_gb": (np.float64, lambda r: r.memory_gb),
    "hw_year": (np.int64, lambda r: r.hw_year),
    "published_year": (np.int64, lambda r: r.published_year),
    "nodes": (np.int64, lambda r: r.nodes),
    "chips_per_node": (np.int64, lambda r: r.chips_per_node),
    "cores_per_chip": (np.int64, lambda r: r.cores_per_chip),
    "result_id": (object, lambda r: r.result_id),
    "codename": (object, lambda r: r.codename),
    "family": (object, lambda r: r.family),
}


#: Utilization bands the gap analysis averages PG over: Wong &
#: Annavaram's low band, and the mid band it is compared with.
LOW_BAND = (0.1, 0.3)
MID_BAND = (0.5, 0.8)


@dataclass(frozen=True)
class CurveMetrics:
    """Every record's proportionality metrics, corpus order.

    Each vector holds, per record, exactly the float the per-curve
    function in :mod:`repro.metrics` returns for that record's curve.
    """

    ep: np.ndarray  # energy_proportionality
    er: np.ndarray  # energy_ratio
    ipr: np.ndarray  # idle_to_peak_ratio
    ld: np.ndarray  # linear_deviation
    pg_low: np.ndarray  # low_utilization_gap over LOW_BAND
    pg_mid: np.ndarray  # low_utilization_gap over MID_BAND
    gap_mean: np.ndarray  # proportionality_gap(...).mean()
    peak_gap_at: np.ndarray  # peak_gap(...)[0]
    #: ``(N, K)`` proportionality_gap rows; None when level counts differ.
    gap: Optional[np.ndarray]


def _band_mask(grid: np.ndarray, band) -> np.ndarray:
    """The grid levels :func:`low_utilization_gap` averages over."""
    low, high = band
    inside = (grid >= low - 1e-12) & (grid <= high + 1e-12)
    if not np.any(inside):
        raise ValueError("no measured levels inside the band")
    return inside


def _matrix_metrics(grid: np.ndarray, power: np.ndarray) -> CurveMetrics:
    """The metric family over a shared ascending grid, one array pass.

    Every step is the per-curve function's own elementwise arithmetic
    on whole rows, and every reduction runs along a C-ordered row, which
    adds exactly what the one-curve reduction adds, so each float equals
    the per-curve function's.
    """
    # Every record shares the grid, so the first record's check raises
    # whatever the per-record route would raise first; after it, the
    # other records can only fail on power.
    _as_curve(grid, power[0])
    if np.any(power < 0.0):
        raise ValueError("power values must be non-negative")
    norm = power / power[:, -1:]
    area_grid, area_norm = grid, norm
    if grid[-1] < 1.0:  # proportionality_area holds the peak out to u = 1
        area_grid = np.append(grid, 1.0)
        area_norm = np.concatenate((norm, norm[:, -1:]), axis=1)
    area = np.trapezoid(area_norm, area_grid, axis=1)
    idle = norm[:, :1]
    chord = idle + (1.0 - idle) * grid
    gap = norm - grid
    return CurveMetrics(
        ep=2.0 - 2.0 * area,
        er=0.5 / area,
        ipr=power[:, 0] / power[:, -1],
        ld=np.trapezoid(norm - chord, grid, axis=1),
        pg_low=gap[:, _band_mask(grid, LOW_BAND)].mean(axis=1),
        pg_mid=gap[:, _band_mask(grid, MID_BAND)].mean(axis=1),
        gap_mean=gap.mean(axis=1),
        peak_gap_at=grid[np.argmax(gap, axis=1)],
        gap=gap,
    )


def _record_metrics(results: Sequence[SpecPowerResult]) -> CurveMetrics:
    """The metric family through the per-curve functions, record by record."""
    curves = [result.curve() for result in results]

    def column(metric, **kwargs) -> np.ndarray:
        return np.array([metric(*curve, **kwargs) for curve in curves], dtype=float)

    gaps = [proportionality_gap(*curve) for curve in curves]
    return CurveMetrics(
        ep=column(energy_proportionality),
        er=column(energy_ratio),
        ipr=column(idle_to_peak_ratio),
        ld=column(linear_deviation),
        pg_low=column(low_utilization_gap, band=LOW_BAND),
        pg_mid=column(low_utilization_gap, band=MID_BAND),
        gap_mean=np.array([float(row.mean()) for row in gaps]),
        peak_gap_at=np.array([peak_gap(*curve)[0] for curve in curves]),
        gap=np.array(gaps) if len({len(row) for row in gaps}) == 1 else None,
    )


class CorpusColumns:
    """Named column arrays over one frozen snapshot of records.

    Columns are built on first request and cached; the scalar metric
    columns gather the records' *cached* derived properties, so every
    float is exactly the one the per-record code paths see.
    """

    def __init__(self, results: Sequence[SpecPowerResult], fingerprint: str):
        self._results = tuple(results)
        self._fingerprint = fingerprint
        self._arrays: Dict[str, np.ndarray] = {}
        self._curve_metrics: Optional[CurveMetrics] = None

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the records this store was built from."""
        return self._fingerprint

    def __len__(self) -> int:
        return len(self._results)

    def array(self, name: str) -> np.ndarray:
        """The named column, corpus order, memoized and write-protected."""
        if name not in _COLUMN_SPECS:
            raise KeyError(
                f"unknown column {name!r}; choose from {sorted(_COLUMN_SPECS)}"
            )
        if name not in self._arrays:
            dtype, getter = _COLUMN_SPECS[name]
            values = [getter(result) for result in self._results]
            if dtype is object:
                column = np.empty(len(values), dtype=object)
                column[:] = values
            else:
                column = np.array(values, dtype=dtype)
            column.setflags(write=False)
            self._arrays[name] = column
        return self._arrays[name]

    # -- ragged peak-spot lists, CSR form ----------------------------------------

    def peak_spot_values(self) -> np.ndarray:
        """All ``peak_ee_spots`` concatenated, corpus order."""
        return self._csr()[0]

    def peak_spot_offsets(self) -> np.ndarray:
        """``(N + 1,)`` offsets: record ``i`` owns ``values[o[i]:o[i+1]]``."""
        return self._csr()[1]

    def _csr(self):
        if "peak_spot_values" not in self._arrays:
            counts = np.zeros(len(self._results) + 1, dtype=np.int64)
            flat = []
            for position, result in enumerate(self._results):
                spots = result.peak_ee_spots
                counts[position + 1] = len(spots)
                flat.extend(spots)
            values = np.array(flat, dtype=np.float64)
            offsets = np.cumsum(counts, dtype=np.int64)
            values.setflags(write=False)
            offsets.setflags(write=False)
            self._arrays["peak_spot_values"] = values
            self._arrays["peak_spot_offsets"] = offsets
        return (
            self._arrays["peak_spot_values"],
            self._arrays["peak_spot_offsets"],
        )

    # -- fleet curve matrices ----------------------------------------------------

    def load_grid(self) -> np.ndarray:
        """The shared measurement grid, ``[0.0] + target loads``.

        Raises ``ValueError`` when the corpus is empty or the records
        do not share one grid (the columnar fleet path needs both).
        """
        return self._matrices()[0]

    def power_matrix(self) -> np.ndarray:
        """``(N, K)`` wall power over the grid (idle in column 0)."""
        return self._matrices()[1]

    def ops_matrix(self) -> np.ndarray:
        """``(N, K)`` throughput over the grid (0 at idle)."""
        return self._matrices()[2]

    def _matrices(self):
        if "load_grid" not in self._arrays:
            if not self._results:
                raise ValueError(
                    "cannot build curve matrices from an empty corpus"
                )
            grids = [
                tuple(level.target_load for level in r.sorted_levels())
                for r in self._results
            ]
            if any(grid != grids[0] for grid in grids[1:]):
                raise ValueError(
                    "heterogeneous measurement grids; the columnar path "
                    "needs every record on the same target loads"
                )
            load_grid = np.array([0.0] + list(grids[0]))
            power = np.array(
                [
                    [r.active_idle_power_w]
                    + [level.average_power_w for level in r.sorted_levels()]
                    for r in self._results
                ]
            )
            ops = np.array(
                [
                    [0.0] + [level.ssj_ops for level in r.sorted_levels()]
                    for r in self._results
                ]
            )
            for array in (load_grid, power, ops):
                array.setflags(write=False)
            self._arrays["load_grid"] = load_grid
            self._arrays["power_matrix"] = power
            self._arrays["ops_matrix"] = ops
        return (
            self._arrays["load_grid"],
            self._arrays["power_matrix"],
            self._arrays["ops_matrix"],
        )

    # -- proportionality metrics ---------------------------------------------------

    def curve_metrics(self) -> CurveMetrics:
        """EP, ER, IPR, LD and the PG profile of every record (memoized).

        One array pass over :meth:`load_grid` and :meth:`power_matrix`,
        validated once, raising the same ``ValueError`` the per-curve
        functions raise.  An empty corpus, or records on different grids
        (mixed level counts among them), derive each record's metrics
        through the per-curve functions instead.  The vectors are
        write-protected.
        """
        if self._curve_metrics is None:
            try:
                grid, power = self.load_grid(), self.power_matrix()
            except ValueError:
                metrics = _record_metrics(self._results)
            else:
                metrics = _matrix_metrics(grid, power)
            for array in vars(metrics).values():
                if array is not None:
                    array.setflags(write=False)
            self._curve_metrics = metrics
        return self._curve_metrics

