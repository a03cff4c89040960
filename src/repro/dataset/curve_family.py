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


def _pair_area_terms(idle: float, low_exp, high_exp):
    """Grid area of an (u**low, u**high) pair: base + t * gain.

    ``low_exp`` may be scalar or array; ``high_exp`` likewise (they
    broadcast).  ``t`` is the weight of the high-exponent term.
    """
    low = np.atleast_1d(np.asarray(low_exp, dtype=float))
    high = np.atleast_1d(np.asarray(high_exp, dtype=float))
    low_curves = np.power(_GRID[None, :], low[:, None])
    high_curves = np.power(_GRID[None, :], high[:, None])
    base = idle + (1.0 - idle) * (low_curves @ _TRAPZ_W)
    gain = (1.0 - idle) * ((high_curves - low_curves) @ _TRAPZ_W)
    return base, gain


def _grid_curves(exponents) -> np.ndarray:
    """``u**e`` rows over the eleven-point grid, one row per exponent.

    The solver scans fixed exponent ladders thousands of times per
    corpus; these rows (and the areas/coarse-grid powers derived from
    them below) depend only on the exponents, so they are built once at
    import with the exact :func:`numpy.power`/``@`` expressions of
    :func:`_pair_area_terms`, keeping every downstream float
    bit-identical to the per-call path.
    """
    exps = np.asarray(exponents, dtype=float)
    return np.power(_GRID[None, :], exps[:, None])


def ep_of_linear_curve(idle: float) -> float:
    """Grid EP of the straight-line member (weight fully on u)."""
    return PowerCurve.mix(idle=idle, s=0.0, p=2.0).ep()


def _candidate(idle: float, low: float, high: float, t: float) -> PowerCurve:
    return PowerCurve(idle=idle, exponents=(low, high), weights=(1.0 - t, t))


#: How far the continuous efficiency maximum may sit from the requested
#: spot; half a grid step keeps the grid argmax on the requested level.
_SPOT_TOLERANCE = 0.035


def _solvable(ep, idle):
    """:func:`solve_curve`'s input guards, on scalars or arrays alike.

    Idle and EP must be in range and the EP reachable: the area under
    any monotone curve with P(0) = idle is at least idle, so
    EP = 2 - 2*area cannot exceed 2*(1 - idle).
    """
    in_range = (0.0 < idle) & (idle < 1.0) & (0.0 < ep) & (ep < 2.0)
    return in_range & (idle < 1.0 - ep / 2.0 - 1e-9)


def solve_curve(
    ep: float,
    idle: float,
    peak_spot: float = 1.0,
    spot_tolerance: float = _SPOT_TOLERANCE,
) -> PowerCurve:
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
    spot_tolerance:
        How far the continuous efficiency maximum may sit from the
        requested spot; half a grid step keeps the grid argmax on the
        requested level.

    Raises
    ------
    CurveSolveError
        When the combination is outside the family's reach (e.g. a
        peak at 70% utilization with a very low idle fraction and a
        moderate EP -- physically those curves do not exist either).
    """
    if not _solvable(ep, idle):
        if not 0.0 < idle < 1.0:
            raise CurveSolveError(f"idle fraction {idle} out of range")
        if not 0.0 < ep < 2.0:
            raise CurveSolveError(f"EP {ep} out of range")
        raise CurveSolveError(f"EP {ep:.3f} unreachable with idle {idle:.3f}")
    interior = None
    if peak_spot < 1.0 - 1e-9:
        try:
            interior = _solve_interior_peak(
                ep, idle, 1.0 - ep / 2.0, peak_spot, spot_tolerance
            )
        except CurveSolveError:
            pass
    return _settle(ep, idle, peak_spot, interior)


def solve_curves(
    ep: Sequence[float], idle: Sequence[float], peak_spot: Sequence[float]
) -> List[Optional[Union[PowerCurve, GridCurve]]]:
    """:func:`solve_curve` for many rows at once; ``None`` where it raises.

    Every interior-spot row shares one :func:`_interior_peak_batch`
    search; each row then settles through :func:`_settle` in row order,
    so its answer equals the row's own :func:`solve_curve` call.
    """
    ep, idle, peak_spot = (np.asarray(c, dtype=float) for c in (ep, idle, peak_spot))
    valid = np.flatnonzero(_solvable(ep, idle))
    interior = valid[peak_spot[valid] < 1.0 - 1e-9]
    found = dict.fromkeys(valid.tolist())
    batch = _interior_peak_batch(idle[interior], 1.0 - ep[interior] / 2.0, peak_spot[interior])
    for r, low, high, t, error in zip(interior.tolist(), *batch):
        if error <= _SPOT_TOLERANCE:
            found[r] = _candidate(float(idle[r]), float(low), float(high), float(t))
    curves: List[Optional[Union[PowerCurve, GridCurve]]] = [None] * len(ep)
    for r, candidate in found.items():
        try:
            curves[r] = _settle(float(ep[r]), float(idle[r]), float(peak_spot[r]), candidate)
        except CurveSolveError:
            pass
    return curves


def _settle(ep: float, idle: float, peak_spot: float, interior: Optional[PowerCurve]):
    """The branch order :func:`solve_curve` and :func:`solve_curves` share.

    A 100% spot takes the peak-at-full member.  An interior spot prefers
    the smooth S-shaped ``interior`` candidate, but only when it wins
    the requested grid level with a margin that survives the
    measurement noise added later; the knee construction covers the
    (large) remainder of the (EP, idle, spot) space.
    """
    if peak_spot >= 1.0 - 1e-9:
        return _solve_peak_at_full(ep, idle, 1.0 - ep / 2.0)
    if interior is not None and _grid_margin_ok(interior, peak_spot):
        return interior
    return solve_knee_curve(ep, idle, peak_spot)


def _grid_margin_ok(curve, peak_spot: float, min_margin: float = 0.004) -> bool:
    """True when the curve's grid efficiency peaks at ``peak_spot`` with
    a runner-up separation of at least ``min_margin``."""
    rel = np.asarray(curve.ee_relative(_GRID))[1:]
    order = np.argsort(rel)[::-1]
    peak_level = float(_GRID[1:][order[0]])
    margin = rel[order[0]] / rel[order[1]] - 1.0
    return abs(peak_level - peak_spot) < 1e-9 and margin >= min_margin


#: Curvature ladders of the peak-at-100% branches (fixed, so their
#: grid areas are precomputed below next to the S-branch tables).
_CONCAVE_CURVATURES = np.linspace(0.85, 0.08, 60)
_CONVEX_CURVATURES = np.linspace(1.05, 30.0, 240)


def _solve_peak_at_full(ep: float, idle: float, target_area: float) -> PowerCurve:
    """Peak efficiency at 100%: concave bow, straight line, or gentle convex."""
    linear_area = float(_TRAPZ_W @ (idle + (1.0 - idle) * _GRID))
    delta = target_area - linear_area
    if abs(delta) < 1e-9:
        return PowerCurve.mix(idle=idle, s=0.0, p=2.0)
    base = idle + (1.0 - idle) * _LINEAR_AREA
    if delta > 0.0:
        # EP below the linear member: concave branch (p < 1).
        curvatures = _CONCAVE_CURVATURES
        gain = (1.0 - idle) * _CONCAVE_GAIN_AREAS
        with np.errstate(divide="ignore"):
            t_values = np.where(np.abs(gain) > 1e-15, (target_area - base) / gain, np.inf)
        feasible = (t_values >= 0.0) & (t_values <= 1.0)
        if not np.any(feasible):
            raise CurveSolveError(f"EP {ep:.3f} too low for idle {idle:.3f}")
        i = int(np.argmax(feasible))
        return _candidate(idle, 1.0, float(curvatures[i]), float(t_values[i]))
    # EP above the linear member: convex branch, constrained so the
    # continuous efficiency maximum stays at or beyond 100% utilization
    # (u* >= 1  <=>  (1-idle) * t * (p-1) <= idle).
    curvatures = _CONVEX_CURVATURES
    gain = (1.0 - idle) * _CONVEX_GAIN_AREAS
    with np.errstate(divide="ignore"):
        t_values = np.where(np.abs(gain) > 1e-15, (target_area - base) / gain, np.inf)
    feasible = (
        (t_values > 0.0)
        & (t_values <= 1.0)
        & ((1.0 - idle) * t_values * (curvatures - 1.0) <= idle + 1e-12)
    )
    if not np.any(feasible):
        raise CurveSolveError(
            f"EP {ep:.3f} with peak at 100% unreachable at idle {idle:.3f}; "
            f"the efficiency peak must move to an interior utilization"
        )
    i = int(np.argmax(feasible))  # smallest feasible curvature
    return _candidate(idle, 1.0, float(curvatures[i]), float(t_values[i]))


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
#: expression of :func:`_pair_area_terms` — not as an area difference.
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


def _solve_interior_peak(
    ep: float,
    idle: float,
    target_area: float,
    peak_spot: float,
    spot_tolerance: float,
) -> PowerCurve:
    """Peak efficiency at an interior spot: one row of the batch search.

    For each candidate low exponent the weight follows from the (linear)
    grid-area constraint, leaving the high exponent as the only free
    parameter; :func:`_interior_peak_batch` picks the candidate whose
    efficiency peak lands closest to the requested spot.
    """
    batch = _interior_peak_batch(np.array([idle]), np.array([target_area]), np.array([peak_spot]))
    low, high, t, error = (float(column[0]) for column in batch)
    if error == np.inf:
        raise CurveSolveError(f"no feasible curve for EP {ep:.3f}, idle {idle:.3f}")
    if error > spot_tolerance:
        raise CurveSolveError(
            f"peak spot {peak_spot:.0%} unreachable for EP {ep:.3f}, idle "
            f"{idle:.3f} (closest approach {error:.3f} away)"
        )
    return _candidate(idle, low, high, t)


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


def _knee_points(idle: float, spot: float, k: float, rise: float) -> np.ndarray:
    """Grid power of a knee curve: concave rise to k*spot, then linear."""
    knee_power = k * spot
    points = np.empty_like(_GRID)
    pre = _GRID <= spot + 1e-12
    with np.errstate(divide="ignore"):
        ramp = np.power(np.where(_GRID > 0, _GRID / spot, 0.0), rise)
    points[pre] = idle + (knee_power - idle) * ramp[pre]
    post = ~pre
    points[post] = knee_power + (1.0 - knee_power) * (_GRID[post] - spot) / (1.0 - spot)
    points[0] = idle
    points[-1] = 1.0
    return points


def solve_knee_curve(
    ep: float,
    idle: float,
    peak_spot: float,
    min_margin: float = 0.004,
) -> GridCurve:
    """Solve a knee curve with the requested EP, idle, and peak spot.

    The knee depth ``k`` (knee power as a fraction of the ideal power at
    the spot; k < 1 puts the efficiency peak there) is bisected against
    the grid-area target for each rise exponent in turn.  The returned
    curve's grid efficiency peaks at ``peak_spot`` with at least
    ``min_margin`` relative separation from the runner-up level, so the
    measurement noise added later cannot move the spot.
    """
    if not 0.1 <= peak_spot <= 0.9 + 1e-9:
        raise CurveSolveError("knee curves are for interior peak spots")
    target_area = 1.0 - ep / 2.0
    if idle >= target_area - 1e-9:
        raise CurveSolveError(f"EP {ep:.3f} unreachable with idle {idle:.3f}")
    k_floor = idle / peak_spot + 1e-6
    k_ceiling = 1.0 / (1.0 + min_margin) - 1e-6
    if k_floor >= k_ceiling:
        raise CurveSolveError(
            f"idle {idle:.3f} too high for a knee at {peak_spot:.0%}"
        )

    # The ramp shape and the post-knee offsets do not depend on the
    # bisected depth k, so hoist them out of the 60-step loop.  Every
    # expression below mirrors :func:`_knee_points` operation for
    # operation (same order, same intermediates), so ``area`` returns
    # bit-identical floats to the unhoisted form.
    pre = _GRID <= peak_spot + 1e-12
    post = ~pre
    post_diff = _GRID[post] - peak_spot
    one_minus_spot = 1.0 - peak_spot
    points = np.empty_like(_GRID)

    for rise in _KNEE_RISE_LADDER:
        with np.errstate(divide="ignore"):
            ramp_pre = np.power(
                np.where(_GRID > 0, _GRID / peak_spot, 0.0), rise
            )[pre]

        def area(k: float) -> float:
            knee_power = k * peak_spot
            points[pre] = idle + (knee_power - idle) * ramp_pre
            points[post] = (
                knee_power + (1.0 - knee_power) * post_diff / one_minus_spot
            )
            points[0] = idle
            points[-1] = 1.0
            return float(_TRAPZ_W @ points)

        low, high = k_floor, k_ceiling
        if not area(low) <= target_area <= area(high):
            continue
        for _ in range(60):
            mid = 0.5 * (low + high)
            if area(mid) < target_area:
                low = mid
            else:
                high = mid
        k = 0.5 * (low + high)
        curve = GridCurve(points=tuple(_knee_points(idle, peak_spot, k, rise)))
        rel = curve.ee_relative()[1:]
        order = np.argsort(rel)[::-1]
        peak_level = float(_GRID[1:][order[0]])
        margin = rel[order[0]] / rel[order[1]] - 1.0
        if abs(peak_level - peak_spot) < 1e-9 and margin >= min_margin:
            return curve
    raise CurveSolveError(
        f"no knee curve for EP {ep:.3f}, idle {idle:.3f}, spot {peak_spot:.0%}"
    )


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
