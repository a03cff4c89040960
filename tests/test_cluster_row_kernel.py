"""The single-row curve kernels, bit for bit against every other path.

``_interp_row``/``_invert_row`` answer the one marginal server of a
placement in plain Python floats.  They must equal the batched numpy
kernels (``_interp_rows``/``_bisect_rows``) elementwise *and* the
scalar oracle (``np.interp`` and ``reference._utilization_for``), on
seeded random monotone curves and on every corpus row.  Comparisons
are on the IEEE bit patterns, so even a signed zero would show.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.fleet_arrays import (
    FleetArrays,
    _bisect_rows,
    _interp_row,
    _interp_rows,
    _invert_row,
)
from repro.cluster.reference import _utilization_for
from repro.cluster.regions import throughput_at
from repro.dataset.schema import LoadLevel, SpecPowerResult
from repro.power.microarch import Codename


def _bits(value) -> bytes:
    return struct.pack("<d", float(value))


def _random_server(rng: np.random.Generator, index: int) -> SpecPowerResult:
    """A seeded random monotone curve on its own random load grid.

    Some grids stop short of 100% load, some throughput segments are
    flat, and server 0 has zero capacity throughout.
    """
    count = int(rng.integers(2, 12))
    loads = sorted({round(float(u), 3) for u in rng.uniform(0.01, 1.0, count)})
    if rng.random() < 0.5:
        loads = sorted(set(loads) | {1.0})
    if len(loads) < 2:
        loads = [0.5, 1.0]
    steps = rng.uniform(0.0, 5_000.0, len(loads))
    steps[rng.random(len(loads)) < 0.2] = 0.0
    if index == 0:
        steps[:] = 0.0
    return _curve_server(f"random-{index}", loads, np.cumsum(steps).tolist(), rng)


def _curve_server(
    result_id: str, loads: list, ops: list, rng: np.random.Generator
) -> SpecPowerResult:
    """A server with throughput ``ops`` at ``loads`` and a random power curve."""
    idle = float(rng.uniform(20.0, 200.0))
    power = idle + np.cumsum(rng.uniform(0.5, 40.0, len(loads)))
    return SpecPowerResult(
        result_id=result_id,
        vendor="Acme",
        model="R-1",
        form_factor="1U",
        hw_year=2015,
        published_year=2016,
        codename=Codename.HASWELL,
        nodes=1,
        chips_per_node=2,
        cores_per_chip=8,
        memory_gb=32.0,
        levels=[
            LoadLevel(target_load=u, ssj_ops=float(o), average_power_w=float(p))
            for u, o, p in zip(loads, ops, power)
        ],
        active_idle_power_w=idle,
    )


@pytest.fixture(scope="module")
def random_servers():
    rng = np.random.default_rng(20160)
    return [_random_server(rng, index) for index in range(60)]


def _targets(arrays: FleetArrays, rng: np.random.Generator) -> list:
    """Every edge the inversion guards against, plus random interiors."""
    full = float(arrays.full_capacity[0])
    knots = arrays.ops[0].tolist()
    return [
        -1.0,
        0.0,
        full,
        full * 1.5,
        full + 1.0,
        float(arrays.spot_capacity[0]),
        *knots,
        *(full * rng.uniform(0.0, 1.0, 8)).tolist(),
    ]


def _queries(grid: list, rng: np.random.Generator) -> list:
    """Utilizations on every knot, at and past the last one, and between."""
    return [*grid, grid[-1], 1.0, *rng.uniform(0.0, 1.0, 8).tolist()]


class TestRandomCurves:
    def test_invert_row_matches_batched_and_scalar(self, random_servers):
        rng = np.random.default_rng(7)
        for server in random_servers:
            arrays = FleetArrays.from_records([server])
            grid = arrays.load_grid.tolist()
            ops = arrays.ops[0].tolist()
            targets = _targets(arrays, rng)
            batched = _bisect_rows(
                arrays.load_grid,
                np.broadcast_to(arrays.ops, (len(targets), len(grid))),
                np.array(targets),
            )
            for target, expected in zip(targets, batched.tolist()):
                row = _invert_row(grid, ops, target)
                assert _bits(row) == _bits(expected), (server.result_id, target)
                assert _bits(row) == _bits(_utilization_for(server, target))

    def test_interp_row_matches_batched_and_np_interp(self, random_servers):
        rng = np.random.default_rng(11)
        for server in random_servers:
            arrays = FleetArrays.from_records([server])
            grid = arrays.load_grid.tolist()
            queries = _queries(grid, rng)
            for table in (arrays.ops, arrays.power):
                ys = table[0].tolist()
                batched = _interp_rows(
                    arrays.load_grid,
                    np.broadcast_to(table, (len(queries), len(grid))),
                    np.array(queries),
                )
                for u, expected in zip(queries, batched.tolist()):
                    row = _interp_row(grid, ys, u)
                    assert _bits(row) == _bits(expected), (server.result_id, u)
                    assert _bits(row) == _bits(np.interp(u, grid, ys))

    def test_zero_capacity_row_guards(self, random_servers):
        dead = FleetArrays.from_records([random_servers[0]])
        grid, ops = dead.load_grid.tolist(), dead.ops[0].tolist()
        assert dead.full_capacity[0] == 0.0
        assert _invert_row(grid, ops, 5.0) == 1.0
        assert _invert_row(grid, ops, 0.0) == 0.0
        assert _invert_row(grid, ops, -1.0) == 0.0
        assert _bits(_invert_row(grid, ops, 5.0)) == _bits(
            _utilization_for(random_servers[0], 5.0)
        )


#: Hand-built rows the closed-form finish must fall back on or survive.
_EDGE_CURVES = {
    "flat-middle": ([0.25, 0.5, 0.75, 1.0], [100.0, 100.0, 300.0, 300.0]),
    "flat-start": ([0.1, 0.5, 1.0], [0.0, 0.0, 40.0]),
    "short-grid": ([0.3, 0.6, 0.9], [10.0, 20.0, 35.0]),
    "short-flat-end": ([0.2, 0.55, 0.8], [7.0, 7.5, 7.5]),
    "denormal-slope": ([0.1, 0.2, 1.0], [1e-310, 2e-310, 1000.0]),
    "all-denormal": ([0.5, 1.0], [5e-324, 1e-310]),
    "huge-then-tiny": ([0.5, 1.0], [1e6, 1e6 + 2.0**-30]),
    # The segment formula rounds one ulp below the knot at 0.625, a
    # lattice point the halvings test with the next segment instead.
    "knot-undershoot": ([0.25, 0.625, 1.0], [328.8, 803.1, 900.0]),
    "falling-middle": ([0.25, 0.5, 1.0], [300.0, 100.0, 400.0]),
}

#: Answer offsets around each grid point: one and two lattice steps of
#: the 50 halvings, and a hair (the closed form's segment boundaries).
_GRID_OFFSETS = (-1e-9, -(2.0**-49), -(2.0**-50), 2.0**-50, 2.0**-49, 1e-9)


def _adversarial_takes(grid: list, ops: list) -> list:
    """Takes that put the answer on, or one lattice step off, a knot.

    Every knot's throughput and its ``nextafter`` neighbours, plus the
    throughput just beside every grid point, so the bisection's
    interval straddles a segment boundary until its last halvings.
    """
    takes = []
    for value in ops:
        takes += [
            value,
            math.nextafter(value, -math.inf),
            math.nextafter(value, math.inf),
        ]
    for point in grid:
        for offset in _GRID_OFFSETS:
            if 0.0 <= point + offset <= 1.0:
                takes.append(_interp_row(grid, ops, point + offset))
    return takes


def _assert_inverts_like_oracles(server: SpecPowerResult, takes: list) -> None:
    arrays = FleetArrays.from_records([server])
    grid = arrays.load_grid.tolist()
    ops = arrays.ops[0].tolist()
    batched = _bisect_rows(
        arrays.load_grid,
        np.broadcast_to(arrays.ops, (len(takes), len(grid))),
        np.array(takes),
    )
    for take, expected in zip(takes, batched.tolist()):
        got = _invert_row(grid, ops, take)
        assert _bits(got) == _bits(expected), (server.result_id, take)
        assert _bits(got) == _bits(_utilization_for(server, take)), (
            server.result_id,
            take,
        )


class TestAdversarialTakes:
    """Takes aimed at the closed-form finish of ``_invert_row``."""

    def test_random_curves(self, random_servers):
        for server in random_servers:
            arrays = FleetArrays.from_records([server])
            takes = _adversarial_takes(
                arrays.load_grid.tolist(), arrays.ops[0].tolist()
            )
            _assert_inverts_like_oracles(server, takes)

    @pytest.mark.parametrize("name", sorted(_EDGE_CURVES))
    def test_edge_curves(self, name):
        loads, ops = _EDGE_CURVES[name]
        rng = np.random.default_rng(3)
        server = _curve_server(name, loads, ops, rng)
        grid = [0.0] + loads
        full = [0.0] + ops
        takes = _adversarial_takes(grid, full) + (
            full[-1] * rng.uniform(0.0, 1.0, 32)
        ).tolist()
        _assert_inverts_like_oracles(server, takes)

    def test_falling_segment_bisects(self):
        # Only a bare row can open on a falling segment (every fleet row
        # starts at 0 ops); the closed form must hand it to the halvings.
        grid, ops = [0.0, 0.5, 1.0], [500.0, 100.0, 600.0]
        takes = [1.0, 50.0, 99.0, 100.0, 250.0, 599.0]
        batched = _bisect_rows(
            np.array(grid), np.array([ops] * len(takes)), np.array(takes)
        )
        for take, expected in zip(takes, batched.tolist()):
            assert _bits(_invert_row(grid, ops, take)) == _bits(expected), take

    def test_corpus_rows(self, corpus):
        arrays = FleetArrays.from_records(corpus.results())
        grid = arrays.load_grid.tolist()
        for row, server in enumerate(arrays.records):
            ops = arrays.ops[row].tolist()
            takes = _adversarial_takes(grid, ops)
            batched = _bisect_rows(
                arrays.load_grid,
                np.broadcast_to(arrays.ops[row], (len(takes), len(grid))),
                np.array(takes),
            ).tolist()
            for take, expected in zip(takes, batched):
                got = _invert_row(grid, ops, take)
                assert _bits(got) == _bits(expected), (row, take)


class TestCorpusRows:
    @pytest.fixture(scope="class")
    def arrays(self, corpus):
        return FleetArrays.from_records(corpus.results())

    @pytest.mark.parametrize(
        "fraction", [-0.5, 0.0, 0.013, 0.37, 0.7, 0.999, 1.0, 1.25]
    )
    def test_invert_row_matches_bisect_rows(self, arrays, fraction):
        targets = arrays.full_capacity * fraction
        batched = _bisect_rows(arrays.load_grid, arrays.ops, targets).tolist()
        grid = arrays.load_grid.tolist()
        for row, (target, expected) in enumerate(zip(targets.tolist(), batched)):
            got = _invert_row(grid, arrays.ops[row].tolist(), target)
            assert _bits(got) == _bits(expected), (row, target)

    def test_spot_capacity_inverts_like_the_scalar_oracle(self, corpus, arrays):
        grid = arrays.load_grid.tolist()
        batched = _bisect_rows(
            arrays.load_grid, arrays.ops, arrays.spot_capacity
        ).tolist()
        for row, server in enumerate(arrays.records):
            spot = float(arrays.spot_capacity[row])
            assert spot == throughput_at(server, server.primary_peak_spot)
            got = _invert_row(grid, arrays.ops[row].tolist(), spot)
            assert _bits(got) == _bits(batched[row])
            assert _bits(got) == _bits(_utilization_for(server, spot))

    def test_interp_row_matches_interp_rows(self, arrays):
        rng = np.random.default_rng(5)
        grid = arrays.load_grid.tolist()
        for u in _queries(grid, rng):
            for table in (arrays.ops, arrays.power):
                batched = _interp_rows(arrays.load_grid, table, u).tolist()
                for row, expected in enumerate(batched):
                    got = _interp_row(grid, table[row].tolist(), u)
                    assert _bits(got) == _bits(expected), (row, u)


@st.composite
def _bare_rows(draw):
    """A grid from 0.0 (ending at 1.0 or short of it) and a rising ops row."""
    loads = sorted(
        set(draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=10)))
    )
    if draw(st.booleans()):
        loads = sorted(set(loads) | {1.0})
    steps = draw(
        st.lists(
            st.floats(0.0, 5_000.0), min_size=len(loads), max_size=len(loads)
        )
    )
    return [0.0] + loads, [0.0] + np.cumsum(steps).tolist()


class TestGeneratedRows:
    """One segment lookup per halving, against the batched bisection."""

    @settings(max_examples=150, deadline=None)
    @given(row=_bare_rows(), fractions=st.lists(st.floats(0.0, 1.0), max_size=8))
    def test_invert_row_matches_bisect_rows(self, row, fractions):
        grid, ops = row
        takes = _adversarial_takes(grid, ops) + [ops[-1] * f for f in fractions]
        batched = _bisect_rows(
            np.array(grid), np.array([ops] * len(takes)), np.array(takes)
        ).tolist()
        for take, expected in zip(takes, batched):
            assert _bits(_invert_row(grid, ops, take)) == _bits(expected), take
