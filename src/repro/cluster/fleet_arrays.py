"""Columnar struct-of-arrays view of a server fleet.

Every fleet operation in :mod:`repro.cluster` ultimately evaluates the
same two piecewise-linear curves per server -- power vs. utilization
and throughput vs. utilization -- and the scalar reference loops
(:mod:`repro.cluster.reference`) re-interpolate them one server at a
time through :func:`np.interp`.  A 10k-server
fleet replayed over a 96-step day costs on the order of a million
scalar interpolations that way.

:class:`FleetArrays` lifts the whole fleet into matrices once:

* ``load_grid`` -- the shared measurement grid, ``[0.0] + target
  loads`` ascending (11 points for a SPECpower curve);
* ``power`` -- the ``(N, K)`` wall-power matrix (idle in column 0);
* ``ops`` -- the ``(N, K)`` throughput matrix (0 at idle);
* metric vectors (``ep``, ``score``, ``peak_ee``,
  ``primary_peak_spot``) gathered from each record's cached derived
  metrics, so they are bit-identical to the per-record properties.

The batched kernels (:meth:`power_at`, :meth:`throughput_at`,
:meth:`utilization_for`, :meth:`capacity`) vectorize over servers and
timesteps and replicate ``np.interp``'s C arithmetic *exactly* --
index by ``searchsorted(side="right") - 1`` clipped to the last
segment, ``slope * (u - x0) + y0``, right endpoint returned verbatim
-- so the columnar engines built on top
(:mod:`repro.cluster.batch_placement`,
:mod:`repro.cluster.batch_trace`) are bit-identical drop-ins for the
scalar paths, not approximations of them.  :func:`_interp_row` and
:func:`_invert_row` are the same arithmetic for one row in plain
Python floats, for the marginal server a placement leaves open.
:func:`_invert_row` runs the 50-halving bisection only until its
interval lies inside one grid segment (a handful of halvings), then
finds the bisection's final interval in closed form on that segment's
line -- the same answer bit for bit from a few interpolations instead
of 50.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from collections.abc import Sequence as SequenceABC
from dataclasses import replace
from typing import List, Sequence, Union

import numpy as np

from repro.dataset.corpus import Corpus
from repro.dataset.schema import SpecPowerResult

#: ``tile_fleet`` switches to the lazy index-mapped view at this size.
LAZY_TILE_THRESHOLD = 65_536

#: Default byte budget for *eager* tiling (overridable through the
#: ``REPRO_TILE_BUDGET_BYTES`` environment variable).
DEFAULT_TILE_BUDGET_BYTES = 256 * 1024 * 1024

#: Rough per-clone cost of an eager tile: a ``SpecPowerResult``
#: dataclass shell, its attribute dict, and the ``~copy`` id string.
#: Deliberately coarse -- the budget is a guard rail, not an accountant.
_EAGER_CLONE_BYTES = 512


def _interp_rows(
    grid: np.ndarray, table: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """``np.interp(u, grid, table[i])`` for every row ``i``, bitwise.

    ``table`` is ``(M, K)``; ``u`` is scalar (one query shared by all
    rows), ``(M,)`` (one query per row), or ``(M, T)`` (a query matrix,
    rows against timesteps).  Replicates the exact IEEE
    arithmetic of numpy's compiled interp loop, including the verbatim
    right-endpoint return (the clamped-segment formula differs from it
    by one ulp).
    """
    k = grid.size
    u = np.asarray(u, dtype=np.float64)
    idx = np.searchsorted(grid, u, side="right") - 1
    idx = np.clip(idx, 0, k - 2)
    if u.ndim == 0:
        if u >= grid[-1]:
            return table[:, -1].copy()
        x0 = grid[idx]
        x1 = grid[idx + 1]
        y0 = table[:, idx]
        y1 = table[:, idx + 1]
        return (y1 - y0) / (x1 - x0) * (u - x0) + y0
    if u.ndim == 1:
        rows = np.arange(table.shape[0])
        y0 = table[rows, idx]
        y1 = table[rows, idx + 1]
    elif u.ndim == 2:
        y0 = np.take_along_axis(table, idx, axis=1)
        y1 = np.take_along_axis(table, idx + 1, axis=1)
    else:  # pragma: no cover - guarded by the public kernels
        raise ValueError("queries must be scalar, (M,), or (M, T)")
    x0 = grid[idx]
    x1 = grid[idx + 1]
    res = (y1 - y0) / (x1 - x0) * (u - x0) + y0
    right = u >= grid[-1]
    if right.any():
        last = table[:, -1] if u.ndim == 1 else table[:, -1:]
        res = np.where(right, last, res)
    return res


def _bisect_rows(
    grid: np.ndarray, table: np.ndarray, target: np.ndarray
) -> np.ndarray:
    """Batched inverse of the per-row throughput curves.

    Replicates the scalar 50-iteration bisection of
    ``reference._utilization_for`` per element, with the same edge
    guards: non-positive targets sit at 0.0 utilization and targets at
    or beyond a row's full capacity (including every positive target
    on a zero-capacity row) pin to 1.0.  Elements resolved by the
    guards are masked out *before* the loop, so only genuinely open
    queries pay the 50 interpolation rounds; the bisected elements see
    exactly the same IEEE operation sequence either way, so results
    are bit-identical to bisecting everything and overwriting.

    ``table`` is ``(M, K)``; ``target`` is scalar, ``(M,)``, or
    ``(M, T)``.  Behind :meth:`FleetArrays.utilization_for`, and
    called directly by the columnar engine on a subset of rows;
    :func:`_invert_row` is the same answer for a single row, and the
    reference its closed-form finish is tested against.
    """
    target = np.asarray(target, dtype=np.float64)
    if target.ndim == 0:
        target = np.full(table.shape[0], target)
    cap = table[:, -1] if target.ndim == 1 else table[:, -1:]
    res = np.where(target >= cap, 1.0, 0.0)
    res = np.where(target <= 0.0, 0.0, res)
    active = (target > 0.0) & (target < cap)
    if active.any():
        sub = table[np.nonzero(active)[0]]
        t = target[active]
        low = np.zeros(t.shape)
        high = np.ones(t.shape)
        for _ in range(50):
            mid = 0.5 * (low + high)
            below = _interp_rows(grid, sub, mid) < t
            low = np.where(below, mid, low)
            high = np.where(below, high, mid)
        res[active] = 0.5 * (low + high)
    return res


def _interp_row(grid: Sequence[float], ys: Sequence[float], u: float) -> float:
    """One row of :func:`_interp_rows` in plain Python floats, bitwise.

    The same IEEE operation order: segment index ``bisect_right - 1``
    clipped to ``[0, K-2]``, ``(y1 - y0) / (x1 - x0) * (u - x0) + y0``,
    and the right endpoint returned verbatim for ``u >= grid[-1]``.
    """
    if u >= grid[-1]:
        return ys[-1]
    index = min(max(bisect_right(grid, u) - 1, 0), len(grid) - 2)
    x0 = grid[index]
    y0 = ys[index]
    return (ys[index + 1] - y0) / (grid[index + 1] - x0) * (u - x0) + y0


def _invert_row(grid: Sequence[float], ops: Sequence[float], take: float) -> float:
    """One element of :func:`_bisect_rows` in plain Python floats, bitwise.

    The same guards in the same order (non-positive takes sit at 0.0,
    takes at or beyond the row's full capacity pin to 1.0) and the same
    50 halvings, but only the first few are run one by one: as soon as
    ``[low, high]`` lies inside one grid segment, the rest are solved
    in closed form by :func:`_finish_in_segment`.  A take whose answer
    sits on a knot keeps the interval straddling it, and runs all 50.

    Each halving looks up one segment: ``mid``'s, which interpolates
    ``mid`` exactly as :func:`_interp_row` does and, when ``low`` moves
    to ``mid``, is carried forward as ``low``'s segment.
    """
    if take <= 0.0:
        return 0.0
    if take >= ops[-1]:
        return 1.0
    last = len(grid) - 2
    end = grid[-1]
    low, high = 0.0, 1.0
    index = min(max(bisect_right(grid, low) - 1, 0), last)
    for done in range(1, 51):
        mid = 0.5 * (low + high)
        if mid >= end:
            at, value = last, ops[-1]
        else:
            # mid < grid[-1], so the segment is at most ``last``.
            at = max(bisect_right(grid, mid) - 1, 0)
            x0 = grid[at]
            y0 = ops[at]
            value = (ops[at + 1] - y0) / (grid[at + 1] - x0) * (mid - x0) + y0
        if value < take:
            low, index = mid, at
        else:
            high = mid
        if grid[index] <= low and high <= grid[index + 1]:
            return _finish_in_segment(
                grid, ops, take, index, low, high, 50 - done
            )
    return 0.5 * (low + high)


#: The bisection's lattice: after all 50 halvings of ``[0, 1]`` every
#: endpoint is a multiple of 2**-50 (each ``mid`` is exact).
_LATTICE_STEP = 2.0**-50

#: Lattice points the closed-form estimate may be off by before
#: :func:`_finish_in_segment` gives up and bisects instead.
_MAX_WALK = 4


def _finish_in_segment(
    grid: Sequence[float],
    ops: Sequence[float],
    take: float,
    index: int,
    low: float,
    high: float,
    remaining: int,
) -> float:
    """The last ``remaining`` halvings of :func:`_invert_row`, bitwise.

    ``[low, high]`` lies inside segment ``index``, so every ``mid`` left
    to test reads that segment and ``_interp_row`` reduces to
    ``slope * (mid - x0) + y0`` -- the same IEEE operations in the same
    order, with ``slope`` computed once.  The mids are exact lattice
    points ``low + k * step``; with ``slope > 0`` the test
    ``f(mid) < take`` is monotone in ``mid`` (every correctly rounded
    operation is), so the halvings end on the last lattice point
    ``k < 2**remaining`` where the test holds (``k = 0`` is ``low``,
    never tested).  That ``k`` is estimated from the linear inverse and
    confirmed by testing ``k`` and ``k + 1``; ``high`` itself is never
    tested, as the halvings never test it.  A flat or falling segment,
    a non-finite estimate, or an estimate more than :data:`_MAX_WALK`
    points off falls back to plain halvings.
    """
    x0 = grid[index]
    y0 = ops[index]
    slope = (ops[index + 1] - y0) / (grid[index + 1] - x0)
    if slope > 0.0:
        estimate = (take - y0) / slope + x0
        if math.isfinite(estimate):
            count = 1 << remaining
            offset = (estimate - low) / _LATTICE_STEP
            k = 0 if offset < 0.0 else min(int(offset), count - 1)
            for _ in range(_MAX_WALK):
                if k and not slope * (low + k * _LATTICE_STEP - x0) + y0 < take:
                    k -= 1
                elif (
                    k + 1 < count
                    and slope * (low + (k + 1) * _LATTICE_STEP - x0) + y0 < take
                ):
                    k += 1
                else:
                    low += k * _LATTICE_STEP
                    return 0.5 * (low + (low + _LATTICE_STEP))
    for _ in range(remaining):
        mid = 0.5 * (low + high)
        if slope * (mid - x0) + y0 < take:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


class FleetArrays:
    """A fleet lifted into columnar numpy form, in stable id order.

    Construction requires a *uniform measurement grid* (every record
    reports the same target loads -- true of the whole synthesized
    corpus) and unique result ids; a fleet violating either raises
    ``ValueError``, which :func:`repro.cluster.engines.fleet_engine`
    passes on to its caller.
    """

    def __init__(
        self,
        records: Sequence[SpecPowerResult],
        load_grid: np.ndarray,
        power: np.ndarray,
        ops: np.ndarray,
    ):
        self.records = tuple(records)
        self.ids = tuple(r.result_id for r in self.records)
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("duplicate result ids in fleet")
        self.load_grid = load_grid
        self.power = power
        self.ops = ops
        for array in (self.load_grid, self.power, self.ops):
            array.setflags(write=False)
        # Metric vectors are *gathered* from the records' cached
        # derived properties, never re-derived, so they carry exactly
        # the floats the scalar paths compare and sort on.
        self.ep = np.array([r.ep for r in self.records])
        self.score = np.array([r.overall_score for r in self.records])
        self.peak_ee = np.array([r.peak_ee for r in self.records])
        self.primary_peak_spot = np.array(
            [r.primary_peak_spot for r in self.records]
        )
        self.idle_power_w = self.power[:, 0]
        self.full_capacity = self.ops[:, -1]
        self.full_load_ee = self.ops[:, -1] / self.power[:, -1]
        self.spot_capacity = _interp_rows(
            self.load_grid, self.ops, self.primary_peak_spot
        )
        for array in (
            self.ep,
            self.score,
            self.peak_ee,
            self.primary_peak_spot,
            self.full_load_ee,
            self.spot_capacity,
        ):
            array.setflags(write=False)

    def __len__(self) -> int:
        return len(self.records)

    @classmethod
    def from_records(cls, records: Sequence[SpecPowerResult]) -> "FleetArrays":
        """Build the column matrices from a sequence of results."""
        records = list(records)
        if not records:
            raise ValueError("cannot build FleetArrays from an empty fleet")
        grids = [
            tuple(level.target_load for level in r.sorted_levels())
            for r in records
        ]
        if any(grid != grids[0] for grid in grids[1:]):
            raise ValueError(
                "heterogeneous measurement grids; the columnar path needs "
                "every record on the same target loads"
            )
        load_grid = np.array([0.0] + list(grids[0]))
        power = np.array(
            [
                [r.active_idle_power_w]
                + [level.average_power_w for level in r.sorted_levels()]
                for r in records
            ]
        )
        ops = np.array(
            [
                [0.0] + [level.ssj_ops for level in r.sorted_levels()]
                for r in records
            ]
        )
        return cls(records, load_grid, power, ops)

    @classmethod
    def from_fleet(
        cls, fleet: Union["FleetArrays", Corpus, Sequence[SpecPowerResult]]
    ) -> "FleetArrays":
        """Coerce a fleet (arrays, corpus, or record sequence) to arrays.

        A :class:`~repro.dataset.corpus.Corpus` routes through its
        cached column store (:meth:`Corpus.columns`), so repeated
        engines over the same corpus share one set of matrices.
        """
        if isinstance(fleet, FleetArrays):
            return fleet
        if isinstance(fleet, Corpus):
            columns = fleet.columns()
            return cls(
                fleet.results(),
                columns.load_grid(),
                columns.power_matrix(),
                columns.ops_matrix(),
            )
        return cls.from_records(fleet)

    # -- batched curve kernels ---------------------------------------------------

    def _table(self, matrix: np.ndarray, rows) -> np.ndarray:
        return matrix if rows is None else matrix[rows]

    def power_at(self, utilization, rows=None) -> np.ndarray:
        """Wall power at ``utilization``, per server.

        ``utilization`` may be a scalar (shared query), ``(M,)`` (one
        per server), or ``(M, T)`` (servers x timesteps); ``rows``
        optionally restricts to a server subset by index.
        """
        return _interp_rows(
            self.load_grid, self._table(self.power, rows), utilization
        )

    def throughput_at(self, utilization, rows=None) -> np.ndarray:
        """ssj_ops/s at ``utilization``, per server (0 at idle)."""
        return _interp_rows(
            self.load_grid, self._table(self.ops, rows), utilization
        )

    def capacity(self, utilization=1.0, rows=None) -> np.ndarray:
        """Throughput capacity at a utilization cap, per server."""
        return self.throughput_at(utilization, rows=rows)

    def utilization_for(self, throughput_ops, rows=None) -> np.ndarray:
        """Invert the throughput curves, batched.

        Replicates the scalar 50-iteration bisection of
        ``reference._utilization_for`` per element, with the same edge
        guards: non-positive targets sit at 0.0 utilization and
        targets at or beyond a server's full capacity (including every
        positive target on a zero-capacity server) pin to 1.0.
        Elements resolved by the guards never enter the bisection loop
        (see :func:`_bisect_rows`).
        """
        return _bisect_rows(
            self.load_grid, self._table(self.ops, rows), throughput_ops
        )


def _tile_record(
    base: Sequence[SpecPowerResult], index: int
) -> SpecPowerResult:
    """Record at tiled position ``index``: the base record for the
    first cycle, a ``~<copy>``-suffixed clone afterwards.

    Shared by the eager and lazy tiling paths so both produce the
    exact same records (clones share the base record's level list and
    derived-metric cache -- they are the same physical server, so the
    shared metrics are exact).
    """
    record = base[index % len(base)]
    if index < len(base):
        return record
    return replace(
        record, result_id=f"{record.result_id}~{index // len(base)}"
    )


class TiledFleetView(SequenceABC):
    """Lazy ``tile_fleet``: an index-mapped view over the base records.

    Holds only the O(base) record tuple and a count; ``view[i]``
    materializes the single requested record (or clone) on demand, so
    synthesizing a million-server fleet from the 477-record corpus is
    O(base) in memory instead of a million ``dataclasses.replace``
    clones.  Indexing and slicing produce exactly the records the
    eager path would -- same ``~<copy>`` id scheme, same shared level
    lists and metric caches -- so a fully materialized view equals the
    eager list element for element.

    The sharded engine (:mod:`repro.cluster.sharded`) consumes the
    view without ever materializing it;
    :func:`repro.cluster.engines.fleet_engine` sends large views there.
    """

    def __init__(self, base: Sequence[SpecPowerResult], count: int):
        base = tuple(base)
        if not base:
            raise ValueError("cannot tile an empty fleet")
        if isinstance(count, bool) or not isinstance(count, int):
            raise TypeError(
                f"fleet size must be an int, got {type(count).__name__}"
            )
        if count < 1:
            raise ValueError("fleet size must be positive")
        self.base = base
        self.count = count

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self.count))]
        if isinstance(index, bool) or not isinstance(index, int):
            raise TypeError(
                f"fleet indices must be integers or slices, "
                f"got {type(index).__name__}"
            )
        if index < 0:
            index += self.count
        if not 0 <= index < self.count:
            raise IndexError("fleet index out of range")
        return _tile_record(self.base, index)

    def __repr__(self) -> str:
        return (
            f"TiledFleetView({self.count} servers over "
            f"{len(self.base)} base records)"
        )


def tile_fleet(
    fleet: Sequence[SpecPowerResult],
    count: int,
    *,
    lazy: Union[bool, None] = None,
    budget_bytes: Union[int, None] = None,
) -> Sequence[SpecPowerResult]:
    """Expand a fleet to ``count`` servers by cycling its records.

    Repeats get a unique ``~<copy>`` id suffix (duplicate ids would
    collapse in the id-keyed placement bookkeeping).  Clones share the
    base record's level list and derived-metric cache -- they are the
    same physical server, so the shared metrics are exact and tiling
    to fleet scale stays cheap.

    ``lazy`` picks the representation: ``True`` returns a
    :class:`TiledFleetView` (O(base) memory, clones materialized on
    demand), ``False`` the historical eager list, and ``None`` (the
    default) chooses the view once ``count`` reaches
    :data:`LAZY_TILE_THRESHOLD`.  The eager path is guarded by a
    memory budget (``budget_bytes``, defaulting to
    :data:`DEFAULT_TILE_BUDGET_BYTES` or the
    ``REPRO_TILE_BUDGET_BYTES`` environment variable): a tiling
    estimated to exceed it raises ``ValueError`` pointing at the lazy
    view and the sharded backend rather than silently materializing
    gigabytes of clones.
    """
    base = list(fleet)
    if not base:
        raise ValueError("cannot tile an empty fleet")
    if isinstance(count, bool) or not isinstance(count, int):
        raise TypeError(
            f"fleet size must be an int, got {type(count).__name__}"
        )
    if count < 1:
        raise ValueError("fleet size must be positive")
    if lazy is None:
        lazy = count >= LAZY_TILE_THRESHOLD
    if lazy:
        return TiledFleetView(base, count)
    if budget_bytes is None:
        budget_bytes = int(
            os.environ.get(
                "REPRO_TILE_BUDGET_BYTES", DEFAULT_TILE_BUDGET_BYTES
            )
        )
    clones = max(0, count - len(base))
    estimated = clones * _EAGER_CLONE_BYTES
    if estimated > budget_bytes:
        raise ValueError(
            f"eager tiling to {count} servers would materialize roughly "
            f"{estimated // (1024 * 1024)} MiB of record clones (budget "
            f"{budget_bytes // (1024 * 1024)} MiB); use lazy=True (a "
            f"TiledFleetView, which the sharded engine consumes without "
            f"materializing), or raise REPRO_TILE_BUDGET_BYTES"
        )
    tiled: List[SpecPowerResult] = []
    for index in range(count):
        tiled.append(_tile_record(base, index))
    return tiled


def streamed_level_capacity(
    records: Sequence[SpecPowerResult], count: int
) -> float:
    """Full-load ``ssj_ops`` capacity of ``records`` tiled to ``count``.

    The one capacity fold of the fleet engines and the query API: the
    day loop scales its demand fractions by it.  Bit-identical to the
    scalar ``sum(level.ssj_ops for server in fleet for level in
    server.levels if level.target_load == 1.0)`` over the tiled fleet
    (the raw level lists, not an assumed 100%-load grid point), without
    materializing a single clone: the flat value sequence is one base
    cycle repeated, and the builtin ``sum`` started from the running
    total continues the same sequential fold cycle by cycle (from the
    int ``0``, so an empty fleet's capacity is the int ``0`` too).
    """

    def full_load_ops(stop: int) -> List[float]:
        return [
            level.ssj_ops
            for record in records[:stop]
            for level in record.levels
            if level.target_load == 1.0
        ]

    if not records:
        return 0
    repeats, remainder = divmod(count, len(records))
    cycle = full_load_ops(len(records))
    total = 0
    for _ in range(repeats):
        total = sum(cycle, total)
    return sum(full_load_ops(remainder), total)
