"""A solvable power-curve family for corpus synthesis.

Every synthetic server's normalized power--utilization curve is a
mixture of power-law terms:

    P(u) = idle + (1 - idle) * sum_k w_k * u**e_k,    sum_k w_k = 1

with idle fraction ``idle`` in (0, 1), non-negative weights ``w_k``,
and positive exponents ``e_k``.  Three shapes cover everything the
paper's pencil-head chart (Fig. 9) exhibits:

* *linear* -- a single ``u`` term: EP = 1 - idle (grid-exact);
* *bowed* -- a ``(u, u**p)`` mix: ``p < 1`` spends power early (concave,
  EP below linear, efficiency peaks at 100% -- the pre-2010 signature)
  while ``p > 1`` defers power (convex, EP above linear, efficiency can
  peak before 100%);
* *S-shaped* -- a ``(u**a, u**q)`` mix with ``a < 1 < q``: power rises
  quickly at low load, flattens through the mid range, and spikes near
  full load.  This is the only family member that can combine a *low*
  idle fraction with a peak-efficiency spot as early as 70% -- the
  signature of the 2012+ servers in Section IV.A.

Two facts make the family solvable in closed form plus one bisection:

1. the *grid* EP (the trapezoid Eq. 1 over the eleven SPECpower
   points -- the exact estimator the paper uses) is **linear in the
   mixing weight** once the exponent pair is fixed;
2. the relative efficiency u/P(u) of any two-term member has at most
   one interior maximum, located where ``g(u) = P(u) - u P'(u)``
   crosses zero, and the curve crosses the ideal line before 100%
   utilization exactly when that maximum is interior -- reproducing the
   paper's observation that servers whose efficiency peaks early also
   intersect the ideal curve farther from 100%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.metrics.ep import UTILIZATION_LEVELS

_GRID = np.array(UTILIZATION_LEVELS)

#: Trapezoid quadrature weights on the eleven-point grid: area = W . P.
_TRAPZ_W = np.full(len(_GRID), 0.1)
_TRAPZ_W[0] = _TRAPZ_W[-1] = 0.05

#: Fine grid for locating interior efficiency maxima.
_FINE = np.linspace(1e-4, 1.0, 2001)


class CurveSolveError(ValueError):
    """Raised when no family member satisfies the requested targets."""


@dataclass(frozen=True)
class PowerCurve:
    """One member of the family, normalized to P(1) = 1."""

    idle: float
    exponents: Tuple[float, ...]
    weights: Tuple[float, ...]

    def __post_init__(self):
        if not 0.0 < self.idle < 1.0:
            raise ValueError("idle fraction must lie in (0, 1)")
        if len(self.exponents) != len(self.weights) or not self.exponents:
            raise ValueError("exponents and weights must align and be non-empty")
        if any(e <= 0.0 for e in self.exponents):
            raise ValueError("exponents must be positive")
        if any(w < -1e-12 for w in self.weights):
            raise ValueError("weights must be non-negative")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")

    @classmethod
    def mix(cls, idle: float, s: float, p: float) -> "PowerCurve":
        """The two-term (u, u**p) member with mixing weight ``s``."""
        if not 0.0 <= s <= 1.0:
            raise ValueError("mixing weight must lie in [0, 1]")
        return cls(idle=idle, exponents=(1.0, p), weights=(1.0 - s, s))

    def power(self, utilization) -> np.ndarray:
        """Normalized power at any utilization in [0, 1]."""
        u = np.asarray(utilization, dtype=float)
        # The measurement grid is validated by construction; skipping
        # its range check keeps the synthesis hot path lean.
        if u is not _GRID and (np.any(u < 0.0) or np.any(u > 1.0)):
            raise ValueError("utilization must lie in [0, 1]")
        shape = np.zeros_like(u)
        for exponent, weight in zip(self.exponents, self.weights):
            shape = shape + weight * np.power(u, exponent)
        return self.idle + (1.0 - self.idle) * shape

    def grid_power(self) -> np.ndarray:
        """Power at the eleven SPECpower measurement points."""
        return self.power(_GRID)

    def grid_area(self) -> float:
        """Trapezoid area under the grid curve (the Eq. 1 estimator)."""
        return float(_TRAPZ_W @ self.grid_power())

    def ep(self) -> float:
        """Grid EP, exactly as the paper computes it."""
        return 2.0 - 2.0 * self.grid_area()

    def ee_relative(self, utilization) -> np.ndarray:
        """Efficiency relative to 100% utilization: u / P(u)."""
        u = np.asarray(utilization, dtype=float)
        return np.where(u > 0.0, u / self.power(u), 0.0)

    def _stationarity(self, u: np.ndarray) -> np.ndarray:
        """g(u) = P(u) - u P'(u); EE rises where positive."""
        g = np.full_like(u, self.idle)
        for exponent, weight in zip(self.exponents, self.weights):
            g = g + (1.0 - self.idle) * weight * (1.0 - exponent) * np.power(
                u, exponent
            )
        return g

    def interior_peak(self) -> Optional[float]:
        """Utilization of the continuous efficiency maximum, if interior.

        ``None`` means efficiency increases all the way to 100%.
        """
        g = self._stationarity(_FINE)
        if g[-1] >= 0.0:
            return None
        # Last sign change: EE rises until it, falls after.
        sign_change = np.nonzero((g[:-1] >= 0.0) & (g[1:] < 0.0))[0]
        if sign_change.size == 0:
            return None
        i = int(sign_change[-1])
        left, right = _FINE[i], _FINE[i + 1]
        g_left, g_right = g[i], g[i + 1]
        if g_left == g_right:
            return float(left)
        t = g_left / (g_left - g_right)
        return float(left + t * (right - left))

    def grid_peak_spots(self, rtol: float = 1e-9) -> List[float]:
        """Measurement level(s) with the highest relative efficiency."""
        levels = _GRID[1:]
        rel = self.ee_relative(levels)
        best = rel.max()
        return [float(u) for u, r in zip(levels, rel) if r >= best * (1.0 - rtol)]

    def crosses_ideal(self) -> bool:
        """True when the curve dips below the ideal line before 100%."""
        u = _FINE[:-1]
        return bool(np.any(self.power(u) < u - 1e-12))


# -- solving -----------------------------------------------------------------------


def _grid_curves(exponents) -> np.ndarray:
    """``u**e`` rows over the eleven-point grid, one row per exponent.

    The solver scans fixed exponent ladders for every corpus; these rows
    (and the areas/coarse-grid powers derived from them below) depend
    only on the exponents, so they are built once at import with the
    exact :func:`numpy.power`/``@`` expressions of the original per-call
    solvers (:mod:`repro.dataset.reference`), keeping every downstream
    float bit-identical to them.
    """
    exps = np.asarray(exponents, dtype=float)
    return np.power(_GRID[None, :], exps[:, None])


def _row_dots(points: np.ndarray) -> np.ndarray:
    """``_TRAPZ_W @ row`` for every row of ``points`` (any leading shape).

    A stacked ``(1, 11) @ (11, 1)`` product runs numpy's one-dimensional
    dot kernel once per row -- the kernel ``_TRAPZ_W @ row`` itself
    runs -- so each area equals the one-row form bit for bit.  A 2-D
    ``points @ _TRAPZ_W`` (one matrix-vector BLAS call) or
    ``(points * _TRAPZ_W).sum(-1)`` sums in another order and differs in
    the last bit on a large share of rows.
    """
    return (_TRAPZ_W @ points[..., None])[..., 0]


def ep_of_linear_curve(idle: float) -> float:
    """Grid EP of the straight-line member (weight fully on u)."""
    return PowerCurve.mix(idle=idle, s=0.0, p=2.0).ep()


def _candidate(idle: float, low: float, high: float, t: float) -> PowerCurve:
    return PowerCurve(idle=idle, exponents=(low, high), weights=(1.0 - t, t))


#: How far the continuous efficiency maximum may sit from the requested
#: spot; half a grid step keeps the grid argmax on the requested level.
_SPOT_TOLERANCE = 0.035

#: Runner-up separation the requested grid level must win by, so the
#: measurement noise added later cannot move the spot.
_MIN_MARGIN = 0.004

#: Why a row has no curve, by failure code (``CurveRows.failure``; 0
#: means solved).  Each row fails with the text its one-row call raises.
_FAILURES = (
    "",
    "idle fraction {idle} out of range",
    "EP {ep} out of range",
    "EP {ep:.3f} unreachable with idle {idle:.3f}",
    "EP {ep:.3f} too low for idle {idle:.3f}",
    "EP {ep:.3f} with peak at 100% unreachable at idle {idle:.3f}; "
    "the efficiency peak must move to an interior utilization",
    "knee curves are for interior peak spots",
    "idle {idle:.3f} too high for a knee at {spot:.0%}",
    "no knee curve for EP {ep:.3f}, idle {idle:.3f}, spot {spot:.0%}",
)
(
    _IDLE_RANGE, _EP_RANGE, _UNREACHABLE, _TOO_LOW, _NEEDS_INTERIOR,
    _NOT_INTERIOR, _KNEE_IDLE, _NO_KNEE,
) = range(1, len(_FAILURES))


def _failure(code: int, ep: float, idle: float, spot: float) -> CurveSolveError:
    return CurveSolveError(_FAILURES[code].format(ep=ep, idle=idle, spot=spot))


def _guard_failures(ep: np.ndarray, idle: np.ndarray) -> np.ndarray:
    """:func:`solve_curve`'s input guards: 0, or the first guard broken.

    Idle and EP must be in range and the EP reachable: the area under
    any monotone curve with P(0) = idle is at least idle, so
    EP = 2 - 2*area cannot exceed 2*(1 - idle).
    """
    return np.select(
        [
            ~((0.0 < idle) & (idle < 1.0)),
            ~((0.0 < ep) & (ep < 2.0)),
            ~(idle < 1.0 - ep / 2.0 - 1e-9),
        ],
        [_IDLE_RANGE, _EP_RANGE, _UNREACHABLE],
        0,
    ).astype(np.int8)


@dataclass(frozen=True)
class CurveRows:
    """:func:`solve_curve_rows`' answer, one entry per requested row.

    ``failure`` is 0 where the row solved, else the code of the error
    its :func:`solve_curve` call raises.  ``points`` holds each solved
    row's grid powers; ``low``/``high``/``t`` hold a power-term member's
    exponents and weight and are NaN on knee rows.
    """

    idle: np.ndarray
    low: np.ndarray
    high: np.ndarray
    t: np.ndarray
    points: np.ndarray
    failure: np.ndarray

    def curve(self, r: int) -> Optional[Union[PowerCurve, GridCurve]]:
        """Row ``r`` as a curve object; ``None`` where it failed."""
        if self.failure[r]:
            return None
        if np.isnan(self.low[r]):
            return GridCurve(points=tuple(self.points[r]))
        return _candidate(
            float(self.idle[r]), float(self.low[r]), float(self.high[r]), float(self.t[r])
        )


def solve_curve(ep: float, idle: float, peak_spot: float = 1.0) -> PowerCurve:
    """Find a family member with the requested EP, idle, and peak spot.

    Parameters
    ----------
    ep:
        Target grid EP (Eq. 1 value the paper would compute).
    idle:
        Idle power fraction (power at active idle / power at 100%).
    peak_spot:
        Target utilization of the peak-efficiency measurement level
        (1.0, 0.9, 0.8, 0.7, or 0.6 in the corpus).

    Raises
    ------
    CurveSolveError
        When the combination is outside the family's reach (e.g. a
        peak at 70% utilization with a very low idle fraction and a
        moderate EP -- physically those curves do not exist either).
    """
    rows = solve_curve_rows([ep], [idle], [peak_spot])
    if rows.failure[0]:
        raise _failure(rows.failure[0], ep, idle, peak_spot)
    return rows.curve(0)


def solve_curve_rows(
    ep: Sequence[float],
    idle: Sequence[float],
    peak_spot: Sequence[float],
) -> CurveRows:
    """:func:`solve_curve` for many rows at once, as columns.

    Each stage runs once over every row that reaches it, in the branch
    order of the one-row solver: the input guards; the peak-at-100%
    rows on the fixed curvature ladders; the interior rows' S-branch
    search, whose candidate keeps its row only when it wins the
    requested grid level by :data:`_MIN_MARGIN`; and the knee
    construction for the remaining interior rows.  Every stage is
    elementwise per row, so a row's answer never depends on its batch
    mates.
    """
    ep, idle, spot = (
        np.atleast_1d(np.asarray(column, dtype=float)) for column in (ep, idle, peak_spot)
    )
    n = len(ep)
    target_area = 1.0 - ep / 2.0
    failure = _guard_failures(ep, idle)
    low, high, t = np.full(n, np.nan), np.full(n, np.nan), np.full(n, np.nan)
    points = np.full((n, len(_GRID)), np.nan)

    full = np.flatnonzero((failure == 0) & (spot >= 1.0 - 1e-9))
    high[full], t[full], failure[full] = _peak_at_full_batch(idle[full], target_area[full])
    low[full] = 1.0

    interior = np.flatnonzero((failure == 0) & (spot < 1.0 - 1e-9))
    s_low, s_high, s_t, error = _interior_peak_batch(
        idle[interior], target_area[interior], spot[interior]
    )
    found = error <= _SPOT_TOLERANCE
    s_rows = interior[found]
    low[s_rows], high[s_rows], t[s_rows] = s_low[found], s_high[found], s_t[found]

    mix = np.flatnonzero((failure == 0) & ~np.isnan(low))
    points[mix] = _mix_points(idle[mix], low[mix], high[mix], t[mix])
    # An S candidate without the margin falls to the knee construction.
    lost = s_rows[~_peak_margin_ok(points[s_rows], spot[s_rows], _MIN_MARGIN)]
    low[lost] = high[lost] = t[lost] = np.nan

    knee = np.flatnonzero((failure == 0) & np.isnan(low))
    points[knee], failure[knee] = _knee_batch(ep[knee], idle[knee], spot[knee], _MIN_MARGIN)
    return CurveRows(idle, low, high, t, points, failure)


def _mix_points(
    idle: np.ndarray, low: np.ndarray, high: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """Grid powers of the ``(u**low, u**high)`` members, one row each.

    :meth:`PowerCurve.grid_power` elementwise, with weights
    ``(1 - t, t)`` (its zero start adds nothing to the non-negative
    first term).
    """
    low_terms = np.power(_GRID, low[:, None])
    high_terms = np.power(_GRID, high[:, None])
    shape = (1.0 - t)[:, None] * low_terms + t[:, None] * high_terms
    return idle[:, None] + (1.0 - idle)[:, None] * shape


def _peak_margin_ok(points: np.ndarray, spot: np.ndarray, min_margin: float) -> np.ndarray:
    """Rows whose grid efficiency peaks at ``spot`` by ``min_margin``.

    The margin is the best level's efficiency over the runner-up's.  A
    tie at the top has margin 0, so which tied level ``argmax`` names
    never matters for a positive ``min_margin``.
    """
    rel = _GRID[1:] / points[:, 1:]
    ranked = np.sort(rel, axis=1)
    margin = ranked[:, -1] / ranked[:, -2] - 1.0
    level = _GRID[1:][np.argmax(rel, axis=1)]
    return (np.abs(level - spot) < 1e-9) & (margin >= min_margin)


#: Curvature ladders of the peak-at-100% branches (fixed, so their
#: grid areas are precomputed below next to the S-branch tables).
_CONCAVE_CURVATURES = np.linspace(0.85, 0.08, 60)
_CONVEX_CURVATURES = np.linspace(1.05, 30.0, 240)


def _peak_at_full_batch(
    idle: np.ndarray, target_area: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Peak efficiency at 100% for every row: (high, t, failure) columns.

    The member is ``(u, u**high)`` with weight ``t`` on ``u**high``: the
    straight line (``high`` 2, ``t`` 0) when the target area is the
    line's, else the first concave curvature (EP below the line) or the
    smallest convex one (EP above it) whose weight from the linear area
    constraint is feasible.  The convex branch also keeps the continuous
    efficiency maximum at or beyond 100% utilization
    (``u* >= 1  <=>  (1-idle) * t * (p-1) <= idle``).
    """
    n = len(idle)
    scale = 1.0 - idle
    delta = target_area - _row_dots(idle[:, None] + scale[:, None] * _GRID)
    base = idle + scale * _LINEAR_AREA
    high, t = np.full(n, 2.0), np.zeros(n)
    failure = np.zeros(n, dtype=np.int8)
    linear = np.abs(delta) < 1e-9
    for code, rows, curvatures, gains in (
        (_TOO_LOW, np.flatnonzero(~linear & (delta > 0.0)),
         _CONCAVE_CURVATURES, _CONCAVE_GAIN_AREAS),
        (_NEEDS_INTERIOR, np.flatnonzero(~linear & ~(delta > 0.0)),
         _CONVEX_CURVATURES, _CONVEX_GAIN_AREAS),
    ):
        gain = scale[rows, None] * gains
        with np.errstate(divide="ignore"):
            t_values = np.where(
                np.abs(gain) > 1e-15, (target_area - base)[rows, None] / gain, np.inf
            )
        if code == _TOO_LOW:
            feasible = (t_values >= 0.0) & (t_values <= 1.0)
        else:
            feasible = (
                (t_values > 0.0)
                & (t_values <= 1.0)
                & (scale[rows, None] * t_values * (curvatures - 1.0) <= idle[rows, None] + 1e-12)
            )
        pick = np.argmax(feasible, axis=1)  # first (smallest) feasible curvature
        at = (np.arange(len(rows)), pick)
        high[rows], t[rows] = curvatures[pick], t_values[at]
        failure[rows[~feasible[at]]] = code
    return high, t, failure


#: Low-exponent candidates for the S-branch (how fast power rises at
#: low load) and high-exponent candidates (how late the spike lands).
_S_LOW_EXPONENTS = (1.0, 0.7, 0.5, 0.35, 0.22, 0.12)
_S_HIGH_EXPONENTS = np.concatenate(
    [np.linspace(1.3, 12.0, 100), np.linspace(12.5, 40.0, 40)]
)


#: Coarse grid on which the interior-peak search locates each
#: candidate's efficiency maximum.
_COARSE = np.linspace(1e-3, 1.0, 241)

#: Import-time tables over the fixed exponent ladders (see
#: :func:`_grid_curves`): grid areas drive the (linear-in-weight) area
#: constraint, coarse-grid powers drive the peak search.  Gain areas are
#: computed as ``(high_curves - low_curves) @ W`` — the exact float
#: expression of the original per-call solvers — not as an area
#: difference.
_ONE_CURVE = _grid_curves((1.0,))
_LINEAR_AREA = (_ONE_CURVE @ _TRAPZ_W)[0]
_CONCAVE_GAIN_AREAS = (_grid_curves(_CONCAVE_CURVATURES) - _ONE_CURVE) @ _TRAPZ_W
_CONVEX_GAIN_AREAS = (_grid_curves(_CONVEX_CURVATURES) - _ONE_CURVE) @ _TRAPZ_W
_S_HIGH_CURVES = _grid_curves(_S_HIGH_EXPONENTS)
_S_LOW_AREAS = {
    low: (_grid_curves((low,)) @ _TRAPZ_W)[0] for low in _S_LOW_EXPONENTS
}
_S_GAIN_AREAS = {
    low: (_S_HIGH_CURVES - _grid_curves((low,))) @ _TRAPZ_W
    for low in _S_LOW_EXPONENTS
}
_S_LOW_COARSE = {
    low: np.power(_COARSE[None, :], low)[0] for low in _S_LOW_EXPONENTS
}
_S_HIGH_COARSE = np.power(
    _COARSE[None, :], np.asarray(_S_HIGH_EXPONENTS, dtype=float)[:, None]
)


def _coarse_peaks(
    c1: np.ndarray, u_low: np.ndarray, c2: np.ndarray,
    scale: np.ndarray, idle: np.ndarray,
) -> np.ndarray:
    """Coarse efficiency-peak location of every (row, high exponent).

    ``g(u) = (c1 u**low + c2 u**high)(1 - idle) + idle`` is ``P - u P'``
    with ``c1 = (1-t)(1-low) >= 0`` and ``c2 = t(1-high) < 0``: it starts
    at ``idle > 0``, rises (unless ``low = 1``) and then falls, so once
    negative it stays negative.  Its coarse signs therefore read
    ``+...+-...-`` and eight halvings over the 241 columns find the
    first negative one without building the dense table.  The peak is
    the column before it, the dense scan's ``+ -> -`` transition (1.0
    when there is none).  ``g`` keeps that scan's operation order
    elementwise, so the answers match it bit for bit.
    """
    columns = len(_COARSE)
    high_at = np.arange(c1.shape[1]) * columns
    first_negative = np.zeros(c1.shape, dtype=np.intp)
    for step in (128, 64, 32, 16, 8, 4, 2, 1):
        probe = first_negative + step
        col = np.minimum(probe, columns) - 1
        g = (
            c1 * u_low[col] + c2 * _S_HIGH_COARSE.ravel()[high_at + col]
        ) * scale[:, None] + idle[:, None]
        first_negative = np.where((probe <= columns) & (g >= 0.0), probe, first_negative)
    inside = (first_negative > 0) & (first_negative < columns)
    return np.where(inside, _COARSE[first_negative - 1], 1.0)


def _interior_peak_batch(
    idle: np.ndarray, target_area: np.ndarray, peak_spot: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Best S-branch member per row: (low, high, t, error) columns.

    Replays the sequential search across all rows at once: for each low
    exponent in ladder order the weight ``t`` of every high exponent
    follows from the (linear) grid-area constraint, the first feasible
    high whose coarse peak lands closest to the spot is that low's
    candidate, it replaces the row's best only when strictly closer, and
    a row drops out once its best lands within 2e-3 (under half a coarse
    step, so no later low can be closer).  ``error`` is ``inf`` where no
    candidate is feasible.
    """
    n = len(idle)
    scale = 1.0 - idle
    best_error = np.full(n, np.inf)
    best_low, best_high, best_t = np.zeros(n), np.zeros(n), np.zeros(n)
    rows = np.arange(n)
    for low in _S_LOW_EXPONENTS:
        if not rows.size:
            break
        base = idle[rows] + scale[rows] * _S_LOW_AREAS[low]
        gain = scale[rows, None] * _S_GAIN_AREAS[low]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(
                np.abs(gain) > 1e-15, (target_area[rows, None] - base[:, None]) / gain, np.nan
            )
        feasible = (t > 1e-9) & (t <= 1.0)
        # Infeasible slots get t = 0 (g > 0 throughout) and are masked.
        t_used = np.where(feasible, t, 0.0)
        peaks = _coarse_peaks(
            (1.0 - t_used) * (1.0 - low), _S_LOW_COARSE[low],
            t_used * (1.0 - _S_HIGH_EXPONENTS), scale[rows], idle[rows],
        )
        errors = np.where(feasible, np.abs(peaks - peak_spot[rows, None]), np.inf)
        pick = np.argmin(errors, axis=1)
        closest = errors[np.arange(len(rows)), pick]
        better = closest < best_error[rows]
        won = rows[better]
        best_error[won], best_low[won] = closest[better], low
        best_high[won] = _S_HIGH_EXPONENTS[pick[better]]
        best_t[won] = t[better, pick[better]]
        rows = rows[best_error[rows] >= 2e-3]
    return best_low, best_high, best_t, best_error


@dataclass(frozen=True)
class GridCurve:
    """A normalized power curve defined directly at the eleven points.

    Interior peak spots at moderate EP values require a *knee* shape --
    power climbs to a sub-ideal knee at the peak-efficiency spot, then
    rises steeply (near-linearly) to full power -- which no smooth
    power-term mixture reproduces.  A grid-level curve is exactly as
    expressive as the paper's data (SPECpower measures only these
    eleven points), so the knee solver emits one directly.
    """

    points: Tuple[float, ...]

    def __post_init__(self):
        if len(self.points) != len(_GRID):
            raise ValueError("a grid curve needs exactly eleven points")
        arr = np.asarray(self.points)
        if arr[0] <= 0.0 or abs(arr[-1] - 1.0) > 1e-9:
            raise ValueError("grid curve must start positive and end at 1")
        if np.any(np.diff(arr) < -1e-12):
            raise ValueError("grid curve must be non-decreasing")

    @property
    def idle(self) -> float:
        return float(self.points[0])

    def grid_power(self) -> np.ndarray:
        """Power at the eleven SPECpower measurement points."""
        return np.asarray(self.points, dtype=float)

    def grid_area(self) -> float:
        """Trapezoid area under the grid curve (the Eq. 1 estimator)."""
        return float(_TRAPZ_W @ self.grid_power())

    def ep(self) -> float:
        """Grid EP, exactly as the paper computes it."""
        return 2.0 - 2.0 * self.grid_area()

    def ee_relative(self, utilization=None) -> np.ndarray:
        """Efficiency relative to 100% utilization (grid-interpolated)."""
        u = _GRID if utilization is None else np.asarray(utilization, dtype=float)
        p = np.interp(u, _GRID, self.grid_power())
        return np.where(u > 0.0, u / p, 0.0)

    def grid_peak_spots(self, rtol: float = 1e-9) -> List[float]:
        """Measurement level(s) with the highest relative efficiency."""
        levels = _GRID[1:]
        rel = levels / self.grid_power()[1:]
        best = rel.max()
        return [float(u) for u, r in zip(levels, rel) if r >= best * (1.0 - rtol)]

    def crosses_ideal(self) -> bool:
        """True when the curve dips below the ideal line before 100%."""
        p = self.grid_power()[1:-1]
        return bool(np.any(p < _GRID[1:-1] - 1e-12))


#: Rise-shape exponents tried by the knee solver, gentlest first.
_KNEE_RISE_LADDER = (0.05, 0.12, 0.25, 0.45, 0.7, 1.0, 1.5, 2.2, 3.2)


def _knee_shape(idle: np.ndarray, spot: np.ndarray, rise: np.ndarray):
    """``k -> grid points`` of one knee curve per row.

    Power rises concavely (exponent ``rise``) from ``idle`` to the knee
    power ``k*spot`` at the spot, then linearly to 1.  The ramp and the
    post-knee offsets do not depend on the knee depth ``k``, so they are
    built once; every expression keeps the one-row construction's
    operation order, so the points match it bit for bit.
    """
    pre = _GRID <= spot[:, None] + 1e-12
    with np.errstate(divide="ignore"):
        ramp = np.power(np.where(_GRID > 0, _GRID / spot[:, None], 0.0), rise[:, None])
    post_diff = _GRID - spot[:, None]
    one_minus_spot = (1.0 - spot)[:, None]

    def points(k: np.ndarray) -> np.ndarray:
        knee_power = (k * spot)[:, None]
        out = np.where(
            pre,
            idle[:, None] + (knee_power - idle[:, None]) * ramp,
            knee_power + (1.0 - knee_power) * post_diff / one_minus_spot,
        )
        out[:, 0] = idle
        out[:, -1] = 1.0
        return out

    return points


def _knee_batch(
    ep: np.ndarray, idle: np.ndarray, spot: np.ndarray, min_margin: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Knee curves for every row: (points, failure) columns.

    For each rise exponent in ladder order the knee depth ``k`` is
    bisected (60 halvings) against the grid-area target, and the first
    rise whose curve wins ``spot`` by ``min_margin`` is the row's
    answer.  All (row, rise) pairs whose bracket holds the target halve
    in lockstep.  The area is linear in ``k`` only in exact arithmetic,
    so every halving compares the area as the one-row solver computes
    it: :func:`_row_dots` of the same points.
    """
    points = np.full((len(ep), len(_GRID)), np.nan)
    target_area = 1.0 - ep / 2.0
    k_ceiling = 1.0 / (1.0 + min_margin) - 1e-6
    with np.errstate(divide="ignore", invalid="ignore"):
        k_floor = idle / spot + 1e-6
    failure = np.select(
        [
            ~((0.1 <= spot) & (spot <= 0.9 + 1e-9)),
            idle >= target_area - 1e-9,
            k_floor >= k_ceiling,
        ],
        [_NOT_INTERIOR, _UNREACHABLE, _KNEE_IDLE],
        0,
    ).astype(np.int8)
    rows = np.flatnonzero(failure == 0)
    if not rows.size:
        return points, failure
    owner = np.repeat(rows, len(_KNEE_RISE_LADDER))
    rise = np.tile(_KNEE_RISE_LADDER, len(rows))
    low, high = k_floor[owner], np.full(len(owner), k_ceiling)
    target = target_area[owner]
    shape = _knee_shape(idle[owner], spot[owner], rise)
    bracketed = np.flatnonzero(
        (_row_dots(shape(low)) <= target) & (target <= _row_dots(shape(high)))
    )
    owner, low, high, target = owner[bracketed], low[bracketed], high[bracketed], target[bracketed]
    shape = _knee_shape(idle[owner], spot[owner], rise[bracketed])
    for _ in range(60):
        mid = 0.5 * (low + high)
        below = _row_dots(shape(mid)) < target
        low, high = np.where(below, mid, low), np.where(below, high, mid)
    curves = shape(0.5 * (low + high))
    won = np.flatnonzero(_peak_margin_ok(curves, spot[owner], min_margin))
    # Pairs run in (row, ladder) order: a row's first winner is its rise.
    winners, first = np.unique(owner[won], return_index=True)
    points[winners] = curves[won[first]]
    failure[np.setdiff1d(rows, winners)] = _NO_KNEE
    return points, failure


def solve_knee_curve(
    ep: float,
    idle: float,
    peak_spot: float,
    min_margin: float = _MIN_MARGIN,
) -> GridCurve:
    """Solve a knee curve with the requested EP, idle, and peak spot.

    One row of :func:`_knee_batch`: the knee depth ``k`` (knee power as
    a fraction of the ideal power at the spot; k < 1 puts the
    efficiency peak there) is bisected against the grid-area target for
    each rise exponent in turn.  The returned curve's grid efficiency
    peaks at ``peak_spot`` with at least ``min_margin`` relative
    separation from the runner-up level, so the measurement noise added
    later cannot move the spot.
    """
    points, failure = _knee_batch(
        np.array([ep], dtype=float), np.array([idle], dtype=float),
        np.array([peak_spot], dtype=float), min_margin,
    )
    if failure[0]:
        raise _failure(failure[0], ep, idle, peak_spot)
    return GridCurve(points=tuple(points[0]))


def minimum_idle_for_spot(
    ep: float, peak_spot: float, idle_floor: float = 0.02
) -> float:
    """Smallest idle fraction that supports (EP, interior peak spot).

    An early peak-efficiency spot requires enough idle power for the
    relative-efficiency curve to climb above 1 and turn over; this
    bisects the feasibility frontier so the generator can lift an
    infeasible idle draw by the minimum amount.
    """
    if peak_spot >= 1.0 - 1e-9:
        raise ValueError("only interior peak spots have an idle frontier")

    def feasible(idle: float) -> bool:
        try:
            solve_curve(ep, idle, peak_spot)
            return True
        except CurveSolveError:
            return False

    # Feasibility is not monotone in idle (too much idle power caps the
    # reachable EP), so scan upward for the first feasible band, then
    # refine its lower edge.
    high = min(0.93, 1.0 - ep / 2.0 - 0.02)
    if high <= idle_floor:
        raise CurveSolveError(
            f"no idle fraction supports EP {ep:.3f} with peak at {peak_spot:.0%}"
        )
    if feasible(idle_floor):
        return idle_floor
    step = (high - idle_floor) / 48.0
    first_feasible = None
    probe = idle_floor + step
    while probe <= high + 1e-12:
        if feasible(probe):
            first_feasible = probe
            break
        probe += step
    if first_feasible is None:
        raise CurveSolveError(
            f"no idle fraction supports EP {ep:.3f} with peak at {peak_spot:.0%}"
        )
    low, edge = first_feasible - step, first_feasible
    for _ in range(25):
        mid = 0.5 * (low + edge)
        if feasible(mid):
            edge = mid
        else:
            low = mid
    return edge


def solve_curve_with_fallback(
    ep: float,
    idle: float,
    peak_spot: float,
) -> PowerCurve:
    """Solve, relaxing the idle fraction (then the spot) when needed.

    The generator derives idle fractions from EP through the Eq. 2
    relationship plus noise; for interior peak spots the draw can fall
    below the feasibility frontier, in which case the idle fraction is
    lifted to the frontier (the minimal physical concession).  Only if
    that also fails is the spot conceded to the nearest feasible level.
    """
    try:
        return solve_curve(ep, idle, peak_spot)
    except CurveSolveError:
        pass
    if peak_spot < 1.0 - 1e-9:
        try:
            frontier = minimum_idle_for_spot(ep, peak_spot)
            lifted = min(max(idle, frontier * 1.02), 1.0 - ep / 2.0 - 0.05)
            return solve_curve(ep, lifted, peak_spot)
        except CurveSolveError:
            pass
    else:
        # Peak at 100% with a high idle draw can escape the two-term
        # family (the feasible shape is flat-then-ideal, which the
        # family cannot trace); shaving the idle fraction keeps the
        # spot -- the property every corpus statistic depends on.
        for scale in (0.93, 0.87, 0.8, 0.72, 0.63, 0.52, 0.4):
            try:
                return solve_curve(ep, max(0.02, idle * scale), peak_spot)
            except CurveSolveError:
                continue
    for spot in _fallback_spots(peak_spot):
        for scale in (1.0, 0.85, 1.2, 0.65, 0.45):
            adjusted = min(0.92, max(0.02, idle * scale))
            try:
                return solve_curve(ep, adjusted, spot)
            except CurveSolveError:
                continue
    raise CurveSolveError(
        f"no curve found near EP {ep:.3f}, idle {idle:.3f}, spot {peak_spot:.0%}"
    )


def _fallback_spots(peak_spot: float) -> Sequence[float]:
    ladder = [1.0, 0.9, 0.8, 0.7, 0.6]
    others = [spot for spot in ladder if abs(spot - peak_spot) > 1e-9]
    others.sort(key=lambda spot: abs(spot - peak_spot))
    return others
