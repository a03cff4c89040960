"""Unit tests for the power-curve family and its solvers."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dataset.curve_family import (
    _FAILURES,
    _GRID,
    _TRAPZ_W,
    _S_GAIN_AREAS,
    _S_HIGH_EXPONENTS,
    _S_LOW_AREAS,
    _S_LOW_COARSE,
    _S_LOW_EXPONENTS,
    CurveSolveError,
    GridCurve,
    PowerCurve,
    _candidate,
    _coarse_peaks,
    _interior_peak_batch,
    _knee_batch,
    _mix_points,
    _peak_at_full_batch,
    _row_dots,
    ep_of_linear_curve,
    minimum_idle_for_spot,
    solve_curve,
    solve_curve_rows,
    solve_curve_with_fallback,
    solve_knee_curve,
)
from repro.dataset.reference import (
    _approx_interior_peaks_reference,
    _solve_interior_peak_reference,
    _solve_peak_at_full_reference,
    solve_curve_reference,
    solve_knee_curve_reference,
)


class TestPowerCurve:
    def test_linear_member_ep_is_one_minus_idle(self):
        curve = PowerCurve.mix(idle=0.35, s=0.0, p=2.0)
        assert curve.ep() == pytest.approx(0.65)
        assert ep_of_linear_curve(0.35) == pytest.approx(0.65)

    def test_power_endpoints(self):
        curve = PowerCurve.mix(idle=0.2, s=0.5, p=3.0)
        assert curve.power(0.0) == pytest.approx(0.2)
        assert curve.power(1.0) == pytest.approx(1.0)

    def test_power_monotone(self):
        curve = PowerCurve.mix(idle=0.2, s=0.8, p=5.0)
        grid = curve.grid_power()
        assert np.all(np.diff(grid) >= 0.0)

    def test_convex_member_has_interior_peak(self):
        curve = PowerCurve.mix(idle=0.3, s=0.9, p=4.0)
        peak = curve.interior_peak()
        assert peak is not None
        assert 0.0 < peak < 1.0

    def test_concave_member_peaks_at_full_load(self):
        curve = PowerCurve.mix(idle=0.4, s=0.5, p=0.5)
        assert curve.interior_peak() is None
        assert curve.grid_peak_spots() == [1.0]

    def test_interior_peak_iff_crosses_ideal(self):
        for s, p in ((0.9, 4.0), (0.2, 2.0), (0.5, 0.5), (0.0, 2.0)):
            curve = PowerCurve.mix(idle=0.3, s=s, p=p)
            assert (curve.interior_peak() is not None) == curve.crosses_ideal()

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            PowerCurve(idle=0.3, exponents=(1.0, 2.0), weights=(0.5, 0.6))

    def test_idle_bounds(self):
        with pytest.raises(ValueError):
            PowerCurve.mix(idle=0.0, s=0.5, p=2.0)


class TestSolveCurve:
    @pytest.mark.parametrize(
        "ep,idle,spot",
        [
            (0.18, 0.88, 1.0),
            (0.30, 0.70, 1.0),
            (0.55, 0.45, 1.0),
            (0.75, 0.28, 1.0),
            (0.84, 0.22, 1.0),
            (0.75, 0.30, 0.9),
            (0.82, 0.25, 0.8),
            (0.87, 0.20, 0.8),
            (0.84, 0.25, 0.7),
            (1.02, 0.12, 0.7),
            (1.05, 0.10, 0.7),
            (0.90, 0.20, 0.6),
        ],
    )
    def test_solves_the_corpus_range(self, ep, idle, spot):
        curve = solve_curve(ep, idle, spot)
        assert curve.ep() == pytest.approx(ep, abs=1e-6)
        assert curve.grid_peak_spots()[0] == pytest.approx(spot)

    def test_idle_is_preserved(self):
        curve = solve_curve(0.7, 0.35, 1.0)
        assert curve.grid_power()[0] == pytest.approx(0.35)

    def test_ep_beyond_idle_bound_rejected(self):
        # EP <= 2 * (1 - idle) for any monotone curve.
        with pytest.raises(CurveSolveError, match="unreachable"):
            solve_curve(0.9, 0.6, 1.0)

    def test_nonsense_ep_rejected(self):
        with pytest.raises(CurveSolveError):
            solve_curve(2.5, 0.3, 1.0)

    @pytest.mark.parametrize(
        "ep,idle,message",
        [
            (0.8, 0.0, "idle fraction"),
            (0.8, 1.0, "idle fraction"),
            (0.8, float("nan"), "idle fraction"),
            (0.0, 0.3, "EP 0.0 out of range"),
            (2.0, 0.3, "EP 2.0 out of range"),
            (float("nan"), 0.3, "EP nan out of range"),
            (1.4, 0.3, "unreachable"),
        ],
    )
    def test_guards_reject_the_same_rows_on_both_paths(self, ep, idle, message):
        with pytest.raises(CurveSolveError, match=message):
            solve_curve(ep, idle, 0.8)
        assert solve_curve_rows([ep, 0.8], [idle, 0.25], [0.8, 0.8]).curve(0) is None

    def test_peak_at_full_with_high_ep_needs_interior(self):
        # EP far above 1 - idle/2 cannot peak at 100%.
        with pytest.raises(CurveSolveError):
            solve_curve(0.95, 0.3, 1.0)


class TestKneeCurve:
    def test_low_ep_with_early_peak(self):
        # The combination the smooth family cannot reach.
        curve = solve_knee_curve(0.75, 0.25, 0.7)
        assert curve.ep() == pytest.approx(0.75, abs=1e-6)
        assert curve.grid_peak_spots() == [pytest.approx(0.7)]

    def test_knee_points_monotone(self):
        curve = solve_knee_curve(0.8, 0.3, 0.8)
        assert np.all(np.diff(curve.grid_power()) >= -1e-12)

    def test_margin_protects_the_spot(self):
        curve = solve_knee_curve(0.8, 0.3, 0.8, min_margin=0.01)
        rel = curve.ee_relative()[1:]
        ranked = np.sort(rel)[::-1]
        assert ranked[0] / ranked[1] >= 1.01 - 1e-9

    def test_interior_only(self):
        with pytest.raises(CurveSolveError, match="interior"):
            solve_knee_curve(0.7, 0.3, 1.0)

    def test_grid_curve_validation(self):
        with pytest.raises(ValueError, match="eleven"):
            GridCurve(points=(0.5, 1.0))


class TestFallback:
    def test_direct_solution_passes_through(self):
        curve = solve_curve_with_fallback(0.8, 0.25, 1.0)
        assert curve.ep() == pytest.approx(0.8, abs=1e-6)

    def test_high_idle_full_spot_shaves_idle_not_spot(self):
        # EP 0.4 with idle 0.76 escapes the smooth family; the fallback
        # must keep the 100% spot by reducing the idle fraction.
        curve = solve_curve_with_fallback(0.4, 0.76, 1.0)
        assert curve.ep() == pytest.approx(0.4, abs=1e-6)
        assert curve.grid_peak_spots()[0] == pytest.approx(1.0)

    def test_frontier_collapses_to_floor_when_knee_covers_it(self):
        # With the knee construction, EP 0.85 peaking at 70% works at
        # essentially any idle fraction.
        frontier = minimum_idle_for_spot(0.85, 0.7, idle_floor=0.02)
        assert frontier == pytest.approx(0.02)
        solve_curve(0.85, frontier, 0.7)

    def test_physically_impossible_combination_has_no_frontier(self):
        # A peak at 70% requires EE(70%) > EE(100%), which bounds the
        # area from above: EP below ~0.51 cannot peak at 70% at all.
        with pytest.raises(CurveSolveError):
            minimum_idle_for_spot(0.40, 0.7)


# -- the batched interior-peak search --------------------------------------------


def _batch_outcomes(rows):
    """Per row: the batch search's curve, or CurveSolveError."""
    ep, idle, spot = (np.array(column, dtype=float) for column in zip(*rows))
    low, high, t, error = _interior_peak_batch(idle, 1.0 - ep / 2.0, spot)
    return [
        _candidate(float(idle[r]), float(low[r]), float(high[r]), float(t[r]))
        if error[r] <= 0.035
        else CurveSolveError
        for r in range(len(rows))
    ]


def _reference_outcome(ep, idle, spot):
    try:
        return _solve_interior_peak_reference(ep, idle, 1.0 - ep / 2.0, spot, 0.035)
    except CurveSolveError:
        return CurveSolveError


def _feasible_highs(ep, idle):
    """Feasible high exponents per low exponent (the area constraint)."""
    scale = 1.0 - idle
    counts = []
    for low in _S_LOW_EXPONENTS:
        t = (1.0 - ep / 2.0 - idle - scale * _S_LOW_AREAS[low]) / (
            scale * _S_GAIN_AREAS[low]
        )
        counts.append(int(((t > 1e-9) & (t <= 1.0)).sum()))
    return counts


#: One batch covering every path of the search: a corpus-range row, a
#: row whose lows are only partly feasible and which settles on
#: low = 1.0, a row whose first low has no feasible high, a row that
#: misses the spot tolerance, and a row with no feasible candidate.
COVERING_BATCH = [
    (0.9, 0.2, 0.8),
    (1.1, 0.3, 0.7),
    (0.6, 0.35, 0.6),
    (0.7, 0.4, 0.6),
    (1.108, 0.578, 0.8),
]

ROWS = st.tuples(
    st.floats(0.3, 1.15), st.floats(0.02, 0.6), st.floats(0.6, 0.9)
)


class TestInteriorPeakBatch:
    def test_covering_batch_hits_every_path(self):
        counts = [_feasible_highs(ep, idle) for ep, idle, _ in COVERING_BATCH]
        assert any(0 < c < len(_S_HIGH_EXPONENTS) for c in counts[1])
        assert counts[2][0] == 0 and max(counts[2]) > 0
        assert max(counts[4]) == 0
        ep, idle, spot = (np.array(c) for c in zip(*COVERING_BATCH))
        low, _high, _t, error = _interior_peak_batch(idle, 1.0 - ep / 2.0, spot)
        assert low[1] == 1.0 and error[1] <= 0.035
        assert 0.035 < error[3] < np.inf
        assert error[4] == np.inf

    @given(st.lists(ROWS, min_size=1, max_size=10))
    @example(COVERING_BATCH)
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_per_row_reference(self, rows):
        expected = [_reference_outcome(*row) for row in rows]
        assert _batch_outcomes(rows) == expected

    @given(
        st.lists(ROWS, min_size=2, max_size=10).flatmap(
            lambda rows: st.tuples(st.just(rows), st.permutations(range(len(rows))))
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_row_answer_ignores_batch_mates_and_order(self, case):
        rows, order = case
        together = _batch_outcomes(rows)
        assert together == [_batch_outcomes([row])[0] for row in rows]
        shuffled = _batch_outcomes([rows[i] for i in order])
        assert shuffled == [together[i] for i in order]

    @given(
        st.floats(1e-7, 0.95),
        st.sampled_from(_S_LOW_EXPONENTS),
        st.lists(st.floats(1e-9, 1.0), min_size=140, max_size=140),
    )
    @example(1e-6, 0.7, [0.999] * 140)  # g < 0 at the first coarse column
    @settings(max_examples=60, deadline=None)
    def test_coarse_peaks_equal_dense_scan(self, idle, low, ts):
        ts = np.array(ts)
        peaks = _coarse_peaks(
            ((1.0 - ts) * (1.0 - low))[None, :], _S_LOW_COARSE[low],
            (ts * (1.0 - _S_HIGH_EXPONENTS))[None, :],
            np.array([1.0 - idle]), np.array([idle]),
        )[0]
        expected = _approx_interior_peaks_reference(idle, low, _S_HIGH_EXPONENTS, ts)
        assert np.array_equal(peaks, expected)

    @given(
        st.lists(
            st.tuples(
                st.floats(0.2, 1.2), st.floats(0.02, 0.9),
                st.sampled_from([0.6, 0.7, 0.8, 0.9, 1.0]),
            ),
            min_size=1, max_size=8,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_solve_curves_equals_solve_curve(self, rows):
        # The oracle is the original one-row solver: ``solve_curve`` is
        # now a one-row call into the same batch kernels.
        batch = solve_curve_rows(*zip(*rows))
        for r, row in enumerate(rows):
            expected = _outcome(solve_curve_reference, *row)
            if isinstance(expected, str):
                assert batch.curve(r) is None
                assert _failure_text(batch.failure[r], *row) == expected
                assert _outcome(solve_curve, *row) == expected
            else:
                assert batch.curve(r) == expected


# -- the batched peak-at-100% and knee kernels against the originals --------------


def _outcome(solve, *args):
    """A one-row original's curve, or its error text."""
    try:
        return solve(*args)
    except CurveSolveError as error:
        return str(error)


def _failure_text(code, ep, idle, spot):
    return _FAILURES[code].format(ep=ep, idle=idle, spot=spot)


#: A generated (EP, idle) grid over and beyond the corpus range.
GRID_EP, GRID_IDLE = (
    column.ravel()
    for column in np.meshgrid(np.linspace(0.15, 1.3, 18), np.linspace(0.02, 0.9, 15))
)


class TestBatchKernelsEqualOriginals:
    def test_row_dots_are_the_one_row_dot(self):
        rows = np.random.default_rng(5).random((4000, len(_GRID)))
        expected = np.array([_TRAPZ_W @ row for row in rows])
        assert np.array_equal(_row_dots(rows), expected)
        assert np.array_equal(_row_dots(rows.reshape(40, 100, -1)), expected.reshape(40, 100))

    def test_peak_at_full_rows(self):
        # Two straight-line rows (EP = 1 - idle) join the grid.
        grid_ep, grid_idle = np.append(GRID_EP, [0.75, 0.65]), np.append(GRID_IDLE, [0.25, 0.35])
        high, t, failure = _peak_at_full_batch(grid_idle, 1.0 - grid_ep / 2.0)
        solved = failure == 0
        points = _mix_points(grid_idle[solved], np.ones(solved.sum()), high[solved], t[solved])
        row_points = iter(points)
        kinds = set()
        for r, (ep, idle) in enumerate(zip(grid_ep.tolist(), grid_idle.tolist())):
            expected = _outcome(_solve_peak_at_full_reference, ep, idle, 1.0 - ep / 2.0)
            if failure[r]:
                assert expected == _failure_text(failure[r], ep, idle, 1.0)
                kinds.add(failure[r])
                continue
            assert expected == _candidate(idle, 1.0, float(high[r]), float(t[r]))
            assert np.array_equal(next(row_points), expected.grid_power())
            kinds.add(("linear" if t[r] == 0.0 else "concave" if high[r] < 1.0 else "convex"))
        assert kinds == {"linear", "concave", "convex", 4, 5}

    @pytest.mark.parametrize("spot", [0.6, 0.7, 0.8, 0.9])
    def test_knee_rows(self, spot):
        rows = np.flatnonzero(GRID_EP > 0.45)
        ep, idle = GRID_EP[rows], GRID_IDLE[rows]
        points, failure = _knee_batch(ep, idle, np.full(len(rows), spot), 0.004)
        kinds = set()
        for r, (row_ep, row_idle) in enumerate(zip(ep.tolist(), idle.tolist())):
            expected = _outcome(solve_knee_curve_reference, row_ep, row_idle, spot)
            if failure[r]:
                assert expected == _failure_text(failure[r], row_ep, row_idle, spot)
            else:
                assert np.array_equal(points[r], expected.grid_power())
            kinds.add(failure[r])
        assert {0, 3, 8} <= kinds

    def test_knee_guards(self):
        # Not interior, idle too high for a knee, no rise wins, unreachable.
        for args in ((0.7, 0.3, 1.0), (0.5, 0.6, 0.6), (0.8, 0.59, 0.8), (0.6, 0.75, 0.6)):
            expected = _outcome(solve_knee_curve_reference, *args)
            assert isinstance(expected, str)
            assert _outcome(solve_knee_curve, *args) == expected
