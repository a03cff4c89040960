"""Reference (scalar, pre-vectorization) synthesis kernels.

The corpus generator's hot kernels were vectorized for speed under a
bit-identity contract: for any seed, the optimized pipeline must emit
*exactly* the corpus the original per-server/per-level code emitted.
This module preserves those original kernels verbatim so the contract
stays testable — :func:`generate_corpus_reference` runs the full
generator with the historical kernels swapped in, and the equality
tests compare its output field-for-field against
:func:`repro.dataset.synthesis.generate_corpus`.

These functions are intentionally slow; nothing outside the test suite
and the benchmark harness should call them.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.dataset.curve_family as _cf
import repro.dataset.synthesis as _syn
from repro.dataset.corpus import Corpus
from repro.dataset.curve_family import (
    CurveSolveError,
    GridCurve,
    PowerCurve,
    _candidate,
    _COARSE,
    _GRID,
    _KNEE_RISE_LADDER,
    _S_HIGH_EXPONENTS,
    _S_LOW_EXPONENTS,
    _SPOT_TOLERANCE,
    _TRAPZ_W,
    solve_curve_with_fallback,
)
from repro.dataset.schema import LoadLevel, SpecPowerResult
from repro.dataset.synthesis import _LEVEL_GRID, _Stub, _idle_from_ep
from repro.metrics.ep import TARGET_LOADS_DESCENDING
from repro.power.microarch import CATALOG


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


def solve_curve_reference(ep: float, idle: float, peak_spot: float = 1.0) -> PowerCurve:
    """Original one-row solver: guards, then the three branches in order."""
    if not 0.0 < idle < 1.0:
        raise CurveSolveError(f"idle fraction {idle} out of range")
    if not 0.0 < ep < 2.0:
        raise CurveSolveError(f"EP {ep} out of range")
    target_area = 1.0 - ep / 2.0
    if idle >= target_area - 1e-9:
        raise CurveSolveError(f"EP {ep:.3f} unreachable with idle {idle:.3f}")

    if peak_spot >= 1.0 - 1e-9:
        return _solve_peak_at_full_reference(ep, idle, target_area)
    try:
        curve = _solve_interior_peak_reference(
            ep, idle, target_area, peak_spot, _SPOT_TOLERANCE
        )
        if _grid_margin_ok_reference(curve, peak_spot):
            return curve
    except CurveSolveError:
        pass
    return solve_knee_curve_reference(ep, idle, peak_spot)


def _grid_margin_ok_reference(
    curve, peak_spot: float, min_margin: float = 0.004
) -> bool:
    """Original margin check (one curve, argsort of its grid efficiency)."""
    rel = np.asarray(curve.ee_relative(_GRID))[1:]
    order = np.argsort(rel)[::-1]
    peak_level = float(_GRID[1:][order[0]])
    margin = rel[order[0]] / rel[order[1]] - 1.0
    return abs(peak_level - peak_spot) < 1e-9 and margin >= min_margin


def _approx_interior_peaks_reference(
    idle: float, low: float, highs: np.ndarray, ts: np.ndarray
) -> np.ndarray:
    """Original per-call peak scan (powers recomputed, Python loop)."""
    u_low = np.power(_COARSE[None, :], low)
    u_high = np.power(_COARSE[None, :], highs[:, None])
    g = idle + (1.0 - idle) * (
        (1.0 - ts[:, None]) * (1.0 - low) * u_low
        + ts[:, None] * (1.0 - highs[:, None]) * u_high
    )
    transitions = (g[:, :-1] >= 0.0) & (g[:, 1:] < 0.0)
    peaks = np.full(len(highs), 1.0)
    rows, cols = np.nonzero(transitions)
    for row, col in zip(rows, cols):
        peaks[row] = _COARSE[col]  # last transition wins (rows ascend)
    return peaks


def _solve_peak_at_full_reference(
    ep: float, idle: float, target_area: float
) -> PowerCurve:
    """Original peak-at-100% solver (curvature areas recomputed per call)."""
    linear_area = float(_TRAPZ_W @ (idle + (1.0 - idle) * _GRID))
    delta = target_area - linear_area
    if abs(delta) < 1e-9:
        return PowerCurve.mix(idle=idle, s=0.0, p=2.0)
    if delta > 0.0:
        curvatures = np.linspace(0.85, 0.08, 60)
        base, gain = _pair_area_terms(idle, 1.0, curvatures)
        with np.errstate(divide="ignore"):
            t_values = np.where(
                np.abs(gain) > 1e-15, (target_area - base) / gain, np.inf
            )
        feasible = (t_values >= 0.0) & (t_values <= 1.0)
        if not np.any(feasible):
            raise CurveSolveError(f"EP {ep:.3f} too low for idle {idle:.3f}")
        i = int(np.argmax(feasible))
        return _candidate(idle, 1.0, float(curvatures[i]), float(t_values[i]))
    curvatures = np.linspace(1.05, 30.0, 240)
    base, gain = _pair_area_terms(idle, 1.0, curvatures)
    with np.errstate(divide="ignore"):
        t_values = np.where(
            np.abs(gain) > 1e-15, (target_area - base) / gain, np.inf
        )
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


def _solve_interior_peak_reference(
    ep: float,
    idle: float,
    target_area: float,
    peak_spot: float,
    spot_tolerance: float,
) -> PowerCurve:
    """Original interior-peak solver (pair areas recomputed per call)."""
    best: Optional[Tuple[float, float, float]] = None
    best_error = np.inf
    for low in _S_LOW_EXPONENTS:
        base, gain = _pair_area_terms(idle, low, _S_HIGH_EXPONENTS)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_values = np.where(
                np.abs(gain) > 1e-15, (target_area - base) / gain, np.nan
            )
        feasible = (t_values > 1e-9) & (t_values <= 1.0)
        if not np.any(feasible):
            continue
        highs = _S_HIGH_EXPONENTS[feasible]
        ts = t_values[feasible]
        peaks = _approx_interior_peaks_reference(idle, low, highs, ts)
        errors = np.abs(peaks - peak_spot)
        i = int(np.argmin(errors))
        if errors[i] < best_error:
            best_error = float(errors[i])
            best = (low, float(highs[i]), float(ts[i]))
            if best_error < 2e-3:
                break
    if best is None:
        raise CurveSolveError(
            f"no feasible curve for EP {ep:.3f}, idle {idle:.3f}"
        )
    if best_error > spot_tolerance:
        raise CurveSolveError(
            f"peak spot {peak_spot:.0%} unreachable for EP {ep:.3f}, idle "
            f"{idle:.3f} (closest approach {best_error:.3f} away)"
        )
    low, high, t = best
    return _candidate(idle, low, high, t)


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


def solve_knee_curve_reference(
    ep: float,
    idle: float,
    peak_spot: float,
    min_margin: float = 0.004,
) -> GridCurve:
    """Original knee solver (full grid rebuilt every bisection step)."""
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

    def area(k: float, rise: float) -> float:
        return float(_TRAPZ_W @ _knee_points(idle, peak_spot, k, rise))

    for rise in _KNEE_RISE_LADDER:
        low, high = k_floor, k_ceiling
        if not area(low, rise) <= target_area <= area(high, rise):
            continue
        for _ in range(60):
            mid = 0.5 * (low + high)
            if area(mid, rise) < target_area:
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


def _solve_curves_reference(stubs: List[_Stub]) -> None:
    """Original curve pass (one scalar solve per stub)."""
    for stub in stubs:
        if stub.power_points is not None:
            continue  # explicit pinned curve
        try:
            curve = solve_curve_reference(
                stub.ep_target, stub.idle_fraction, stub.peak_spot
            )
        except CurveSolveError:
            curve = solve_curve_with_fallback(
                stub.ep_target, stub.idle_fraction, stub.peak_spot
            )
        stub.idle_fraction = curve.idle
        grid_power = curve.grid_power()
        stub.power_points = grid_power
        levels = _LEVEL_GRID[1:]
        rel = levels / grid_power[1:]
        best = rel.max()
        stub.peak_spot = float(levels[rel >= best * (1.0 - 1e-9)][0])


def _assign_ep_targets_reference(
    stubs: List[_Stub],
    rng: np.random.Generator,
    structural_effects: bool = True,
) -> None:
    """Original EP-target pass (one scalar normal draw per stub)."""
    targets = _syn.targets
    for stub in stubs:
        if stub.pinned is not None:
            continue
        base = _syn._codename_ep_mean(stub)
        base += targets.YEAR_EP_TWEAK.get(stub.hw_year, 0.0)
        if structural_effects:
            base += targets.NODE_EP_BONUS.get(stub.nodes, 0.0)
            if stub.nodes == 1:
                base += targets.CHIP_EP_ADJUST[stub.chips_per_node]
            base += targets.MPC_EP_ADJUST[stub.mpc]
        spread = CATALOG[stub.codename].ep_spread
        ep = base + float(rng.normal(0.0, spread))
        low = 0.73 if stub.hw_year == 2016 else 0.19
        stub.ep_target = float(min(0.99, max(low, ep)))


def _assign_idle_fractions_reference(
    stubs: List[_Stub], rng: np.random.Generator
) -> None:
    """Original idle-fraction pass (one scalar normal draw per stub)."""
    for stub in stubs:
        if stub.pinned is not None and stub.pinned.idle_fraction is not None:
            stub.idle_fraction = stub.pinned.idle_fraction
            continue
        noise = 0.0 if stub.pinned is not None else float(rng.normal(0.0, 0.13))
        idle = _idle_from_ep(stub.ep_target) * math.exp(noise)
        idle = min(idle, 1.0 - stub.ep_target / 2.0 - 0.04)
        if stub.peak_spot >= 1.0 - 1e-9:
            idle = min(idle, 2.0 * (1.0 - stub.ep_target) - 0.02)
        stub.idle_fraction = float(min(0.93, max(0.03, idle)))


def _noisy_levels_reference(
    stub: _Stub,
    power_points: np.ndarray,
    peak_power: float,
    max_ops: float,
    rng: np.random.Generator,
) -> Tuple[List[LoadLevel], float]:
    """Original measurement pass (interleaved scalar draws per level)."""
    tie = stub.pinned.tie_peak_spots if stub.pinned is not None else False
    for attempt in range(12):
        damping = 1.0 if attempt < 6 else 0.5 ** (attempt - 5)
        powers = {}
        opses = {}
        for load, p_norm in zip(_LEVEL_GRID[1:], power_points[1:]):
            load = float(round(load, 1))
            power_noise = 1.0 + float(rng.normal(0.0, 0.0015 * damping))
            ops_noise = 1.0 + float(rng.normal(0.0, 0.002 * damping))
            powers[load] = peak_power * float(p_norm) * power_noise
            opses[load] = max_ops * load * ops_noise
        if tie:
            opses[0.9] = max_ops * 0.9
            opses[0.8] = max_ops * 0.8
            powers[0.9] = powers[0.8] * (0.9 / 0.8)
        idle_noise = 1.0 + float(rng.normal(0.0, 0.0015))
        idle_w = peak_power * float(power_points[0]) * idle_noise

        efficiencies = {load: opses[load] / powers[load] for load in powers}
        ranked = sorted(efficiencies.values(), reverse=True)
        best = ranked[0]
        spots = sorted(
            load
            for load, value in efficiencies.items()
            if value >= best * (1.0 - 1e-9)
        )
        expected = stub.peak_spot
        if tie:
            if spots and abs(spots[0] - 0.8) < 1e-9:
                break
        elif (
            spots
            and abs(spots[0] - expected) < 1e-9
            and (len(ranked) < 2 or ranked[1] <= best * (1.0 - 2e-3))
        ):
            break
    levels = [
        LoadLevel(
            target_load=float(load),
            ssj_ops=float(opses[float(round(load, 1))]),
            average_power_w=float(powers[float(round(load, 1))]),
        )
        for load in TARGET_LOADS_DESCENDING
    ]
    return levels, float(idle_w)


def _enforce_ee_monotonicity_reference(results: List[SpecPowerResult]) -> None:
    """Original envelope pass (every score derived through the record)."""
    by_year: Dict[int, List[SpecPowerResult]] = {}
    for result in results:
        by_year.setdefault(result.hw_year, []).append(result)
    previous_max = 0.0
    for year in sorted(by_year):
        best = max(by_year[year], key=lambda r: r.overall_score)
        if best.overall_score <= previous_max:
            scale = previous_max * 1.03 / best.overall_score
            best.levels = [
                LoadLevel(
                    target_load=level.target_load,
                    ssj_ops=level.ssj_ops * scale,
                    average_power_w=level.average_power_w,
                )
                for level in best.levels
            ]
            best.invalidate_cache()
        previous_max = best.overall_score


#: (module, attribute, replacement) triples swapped in by the context
#: manager below.  The live call sites all resolve these names through
#: their module globals, so the swap reroutes them without any import
#: gymnastics.  Swapping ``solve_curve`` also reroutes the fallback
#: solvers (``solve_curve_with_fallback``, ``minimum_idle_for_spot``),
#: which call it by name.
_SWAPS = (
    (_cf, "solve_curve", solve_curve_reference),
    (_syn, "_assign_ep_targets", _assign_ep_targets_reference),
    (_syn, "_assign_idle_fractions", _assign_idle_fractions_reference),
    (_syn, "_solve_curves", _solve_curves_reference),
    (_syn, "_noisy_levels", _noisy_levels_reference),
    (_syn, "_enforce_ee_monotonicity", _enforce_ee_monotonicity_reference),
)


@contextmanager
def reference_kernels():
    """Run the corpus generator with the pre-vectorization kernels."""
    saved = [(module, name, getattr(module, name)) for module, name, _ in _SWAPS]
    try:
        for module, name, replacement in _SWAPS:
            setattr(module, name, replacement)
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def generate_corpus_reference(
    seed: int = 2016, structural_effects: bool = True
) -> Corpus:
    """The full generator, forced onto the original scalar kernels."""
    with reference_kernels():
        return _syn.generate_corpus(seed, structural_effects)


def results_equal(a: SpecPowerResult, b: SpecPowerResult) -> bool:
    """Exact (bit-level) equality of two corpus records."""
    if (
        a.result_id != b.result_id
        or a.vendor != b.vendor
        or a.model != b.model
        or a.form_factor != b.form_factor
        or a.hw_year != b.hw_year
        or a.published_year != b.published_year
        or a.codename != b.codename
        or a.nodes != b.nodes
        or a.chips_per_node != b.chips_per_node
        or a.cores_per_chip != b.cores_per_chip
        or a.memory_gb != b.memory_gb
        or a.active_idle_power_w != b.active_idle_power_w
        or a.tie_peak_spots != b.tie_peak_spots
        or len(a.levels) != len(b.levels)
    ):
        return False
    return all(
        la.target_load == lb.target_load
        and la.ssj_ops == lb.ssj_ops
        and la.average_power_w == lb.average_power_w
        for la, lb in zip(a.levels, b.levels)
    )
