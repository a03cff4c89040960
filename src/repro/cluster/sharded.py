"""Sharded fleet engine: placement summaries in O(base) memory.

The columnar engine (:mod:`repro.cluster.batch_placement`) holds the
whole fleet as one in-RAM matrix pair and walks its take loops in
Python -- both walls well before N = 10^6 servers.  This module keeps
the *answers* of that engine bit for bit while changing the
representation and the reductions:

* **Derived shards.**  A tiled fleet is B base records in k copies
  plus a partial last copy, so every column a placement query reads is
  a function of the base: the ranked orders have a closed form
  (:class:`_Ranking`), a ranked or fleet-order column is a few periodic
  runs (:class:`_Runs`), and each prefix fold is kept only as its value
  at every shard end.  :meth:`ShardedFleetEngine._read` computes a
  shard (:data:`DEFAULT_SHARD_SIZE` servers) when a scan or fold asks
  for it, so the engine holds O(base) state plus O(N / shard) carries,
  and a query's working set is a few shards whatever the fleet size.

* **Exact sequential folds.**  The scalar paths' accumulation order is
  part of the repo's bit-identity contract, and a shard-parallel sum
  would reassociate it.  Every reduction here is therefore expressed
  through ``np.ufunc.accumulate`` -- a strict sequential left fold --
  continued across shard boundaries by carrying the running scalar
  into the next shard's seeded accumulate.  The take loops themselves
  collapse to a *crossing search*: the scalar remainder sequence
  ``r_{i+1} = fl(r_i - cap_i)`` is exactly ``np.subtract.accumulate``
  over ``[demand, cap_0, cap_1, ...]``, the first index with
  ``r_i <= cap_i`` is where the scalar loop takes a partial share, and
  everything before/after it reduces from the prefix folds plus
  carry-continued suffix folds.  (Before the crossing the remainder is
  strictly positive: ``fl(r - c)`` with ``0 <= c < r`` cannot round to
  zero -- ``c = 0`` is exact, ``r <= 2c`` is exact by Sterbenz's lemma,
  and otherwise the result exceeds ``c`` -- so the crossing test
  reproduces the scalar loop's branch decisions exactly, including
  zero-capacity rows.)  The ``servers_used`` counts fold 0/1 flags as
  floats, exact below 2**53.

* **Summaries, not assignments.**  A million-row placement cannot
  afford a million ``Assignment`` objects; queries return
  :class:`SummaryOutcome`, a ``PlacementOutcome`` carrying the same
  scalar ``placed_ops`` / ``total_power_w`` / ``servers_used`` floats
  (the folds match the property reductions exactly) without the
  per-server list.

* **Serial day loop.**  :class:`ShardedTraceReplay` runs the engines'
  one day loop (:func:`repro.cluster.batch_trace.replay_day`) step by
  step over :meth:`ShardedFleetEngine.place_totals`, so peak memory is
  a few shards plus the base -- never O(N * T), nor O(N) -- and the
  outcome equals the columnar replayer's.

:func:`repro.cluster.engines.fleet_engine` routes lazy
:class:`~repro.cluster.fleet_arrays.TiledFleetView` fleets of at least
``SHARDED_THRESHOLD`` (100,000) servers here.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.batch_placement import cap_search
from repro.cluster.batch_trace import DayReplay, replay_day
from repro.cluster.fleet_arrays import (
    FleetArrays,
    TiledFleetView,
    _interp_row,
    _invert_row,
    streamed_level_capacity,
)
from repro.cluster.placement import PlacementOutcome
from repro.cluster.trace import DemandTrace, TraceOutcome

#: Servers per shard: the streaming granule of every fold and scan.
DEFAULT_SHARD_SIZE = 65_536

#: The columns whose running fold is kept at every shard end.
_FOLDED = (
    "caps_pack",
    "fullpow_pack",
    "used_pack",
    "spotcap_ep",
    "spotpow_ep",
    "used_spot_ep",
    "topped_take_ep",
    "topped_pow_ep",
    "used_topped_ep",
)


@dataclass
class SummaryOutcome(PlacementOutcome):
    """A placement result carried as fleet-level scalars.

    Behaves like :class:`~repro.cluster.placement.PlacementOutcome`
    (same properties, same ``satisfied`` test, same floats -- the
    sharded folds reproduce the property reductions exactly) but holds
    no per-server ``Assignment`` list: at a million servers the
    assignment objects alone would dwarf the column data.  The
    ``assignments`` field is always empty; the scalar totals live in
    the ``summary_*`` fields.
    """

    summary_placed_ops: float = 0.0
    summary_assigned_power_w: float = 0.0
    summary_servers_used: int = 0

    @property
    def placed_ops(self) -> float:
        return self.summary_placed_ops

    @property
    def total_power_w(self) -> float:
        return self.summary_assigned_power_w + self.unused_idle_power_w

    @property
    def servers_used(self) -> int:
        return self.summary_servers_used


def _cycle_into(out: np.ndarray, pattern: np.ndarray, phase: int) -> None:
    """Fill ``out`` with ``pattern`` repeated, from ``pattern[phase]`` on."""
    period = pattern.size
    head = min(out.size, period - phase)
    out[:head] = pattern[phase : phase + head]
    rest = out[head:]
    whole = rest.size - rest.size % period
    rest[:whole].reshape(-1, period)[...] = pattern
    rest[whole:] = pattern[: rest.size - whole]


class _Runs:
    """A fleet-length column stored as periodic runs, O(runs) memory.

    Run ``r`` covers positions ``bounds[r]:bounds[r + 1]`` and repeats
    ``values[firsts[r]:firsts[r] + sizes[r]]`` from its first element
    on.  :meth:`read` derives any slice of the column.
    """

    def __init__(
        self,
        bounds: Sequence[int],
        firsts: Sequence[int],
        sizes: Sequence[int],
        values: np.ndarray,
    ):
        self.bounds = bounds
        self.firsts = firsts
        self.sizes = sizes
        self.values = values

    @classmethod
    def tiled(cls, values: np.ndarray, count: int) -> "_Runs":
        """``values`` cycled out to ``count`` positions (fleet order)."""
        return cls([0, count], [0], [values.size], values)

    def read(
        self, begin: int, end: int, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The column's positions ``begin:end``, into ``out`` if given."""
        if out is None:
            out = np.empty(end - begin, dtype=self.values.dtype)
        bounds = self.bounds
        first_run = bisect_right(bounds, begin) - 1
        for run in range(first_run, bisect_left(bounds, end)):
            first, size = self.firsts[run], self.sizes[run]
            start, stop = max(bounds[run], begin), min(bounds[run + 1], end)
            target = out[start - begin : stop - begin]
            if size == 1:
                target[...] = self.values[first]
            else:
                _cycle_into(
                    target,
                    self.values[first : first + size],
                    (start - bounds[run]) % size,
                )
        return out


class _Ranking:
    """``np.argsort(-np.resize(key, count), kind="stable")``, in closed form.

    Tiled server ``c * B + j`` carries ``key[j]``.  The stable sort
    orders the base's tie groups by the base's own stable order, and
    within a group by tiled index: copy by copy, each copy's members
    in base order, then the partial last copy's members (a prefix of
    the group, as they are the rows below ``count % B``).  Group ``g``
    therefore owns ranks ``bounds[g]:bounds[g + 1]`` and cycles through
    ``order[firsts[g]:firsts[g] + sizes[g]]`` there.  O(base) memory.
    """

    def __init__(self, key: np.ndarray, count: int):
        self.count = count
        self.order = np.argsort(-key, kind="stable")
        ranked = key[self.order]
        tied = (ranked[1:] == ranked[:-1]) | (
            np.isnan(ranked[1:]) & np.isnan(ranked[:-1])
        )
        firsts = np.flatnonzero(np.concatenate(([True], ~tied)))
        sizes = np.diff(firsts, append=key.size)
        copies, partial = divmod(count, key.size)
        in_partial = np.add.reduceat(
            self.order < partial, firsts, dtype=np.int64
        )
        self.firsts = firsts.tolist()
        self.sizes = sizes.tolist()
        self.bounds = [0] + np.cumsum(copies * sizes + in_partial).tolist()

    def runs(self, values: np.ndarray) -> _Runs:
        """Base ``values`` tiled out to ``count``, in rank order."""
        return _Runs(self.bounds, self.firsts, self.sizes, values[self.order])

    def _locate(self, index: int) -> Tuple[int, int, int]:
        """(group, copy, place in the group) of rank ``index``."""
        group = bisect_right(self.bounds, index) - 1
        copy, place = divmod(index - self.bounds[group], self.sizes[group])
        return group, copy, place

    def base_row(self, index: int) -> int:
        """The base record of the server at rank ``index``."""
        group, _copy, place = self._locate(index)
        return int(self.order[self.firsts[group] + place])

    def ranked_after(self, index: int, values: np.ndarray) -> _Runs:
        """``where(rank > index, values tiled, 0.0)``, fleet order.

        A server ranks after ``index`` when its tie group follows the
        group of ``index``, or when it is in that group and its (copy,
        place) follows the pair of ``index``.  So the copies before,
        at and after the copy of ``index`` each repeat one base
        pattern: the column is three periodic runs.
        """
        group, copy, place = self._locate(index)
        first, size = self.firsts[group], self.sizes[group]
        before = np.zeros(values.size, dtype=bool)
        before[self.order[first + size :]] = True
        at = before.copy()
        at[self.order[first + place + 1 : first + size]] = True
        after = before.copy()
        after[self.order[first : first + size]] = True
        period = values.size
        edges = (0, copy * period, (copy + 1) * period, self.count)
        patterns = np.where(
            np.concatenate((before, at, after)), np.tile(values, 3), 0.0
        )
        return _Runs(
            [min(edge, self.count) for edge in edges],
            [0, period, 2 * period],
            [period] * 3,
            patterns,
        )


class ShardedFleetEngine:
    """Placement queries over a sharded fleet, summaries only.

    Accepts anything the columnar engine accepts plus a lazy
    :class:`~repro.cluster.fleet_arrays.TiledFleetView`, which it
    consumes *without materializing*: the view contributes its O(base)
    records and a count.  The engine keeps each derived column as
    periodic runs over the base (:class:`_Runs`, O(base)) and each
    prefix fold as its value at every shard end (O(N / shard_size));
    every scan and fold derives the columns from those runs in
    ``shard_size``-bounded slices (:meth:`_read`, :meth:`_folds`).

    All placement entry points return :class:`SummaryOutcome` objects
    whose scalars are bit-identical to the columnar engine's
    ``PlacementOutcome`` reductions on the same fleet.  Job scheduling
    is *not* implemented at this tier (a million-job first-fit is a
    different problem): :meth:`schedule` raises ``ValueError``
    pointing at the columnar engine.
    """

    def __init__(self, fleet, shard_size: int = DEFAULT_SHARD_SIZE):
        if shard_size < 1:
            raise ValueError("shard size must be positive")
        if isinstance(fleet, TiledFleetView):
            self.base = FleetArrays.from_records(fleet.base)
            self.count = len(fleet)
        else:
            self.base = FleetArrays.from_fleet(fleet)
            self.count = len(self.base)
        self.shard_size = int(shard_size)
        base = self.base
        # Per-base-row derived values through the exact scalar pipelines
        # (tiled clones carry bitwise-identical curves).
        spot_util = base.utilization_for(base.spot_capacity)
        full_util = base.utilization_for(base.full_capacity)
        headroom = base.full_capacity - base.spot_capacity
        hprime = np.where(headroom > 0.0, headroom, 0.0)
        topped_take = base.spot_capacity + hprime
        topped_util = base.utilization_for(topped_take)
        self._pack = _Ranking(base.full_load_ee, self.count)
        self._ep = _Ranking(base.peak_ee, self.count)
        pack, ep = self._pack.runs, self._ep.runs
        #: name -> the column as periodic runs; :meth:`_read` derives it.
        self._columns = {
            "caps_pack": pack(base.full_capacity),
            "fullpow_pack": pack(base.power_at(full_util)),
            "idle_pack": pack(base.idle_power_w),
            "used_pack": pack((full_util > 0.0).astype(np.float64)),
            "spotcap_ep": ep(base.spot_capacity),
            "spotpow_ep": ep(base.power_at(spot_util)),
            "used_spot_ep": ep((spot_util > 0.0).astype(np.float64)),
            "hprime_ep": ep(hprime),
            "topped_take_ep": ep(topped_take),
            "topped_pow_ep": ep(base.power_at(topped_util)),
            "used_topped_ep": ep((topped_util > 0.0).astype(np.float64)),
            "idle_fleet": _Runs.tiled(base.idle_power_w, self.count),
        }
        #: name -> the column's running fold at the end of every shard.
        self._carries = {
            name: list(self._folds(self._columns[name], 0, self.count, -0.0))
            for name in _FOLDED
        }
        #: The fleet-order sequential fold of the full capacities, which
        #: the cap search seeds its bisection with (from -0.0: see _prefix).
        self.total_capacity = self._fold(
            _Runs.tiled(base.full_capacity, self.count), 0, self.count, -0.0
        )

    def __len__(self) -> int:
        return self.count

    # -- streaming primitives ----------------------------------------------------

    def _chunks(self, start: int, stop: int) -> Iterator[Tuple[int, int]]:
        while start < stop:
            end = min(start + self.shard_size, stop)
            yield start, end
            start = end

    def _read(
        self, name: str, begin: int, end: int, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Positions ``begin:end`` of the named column, computed from the base.

        A scan passes the same ``out`` buffer for every shard.
        """
        return self._columns[name].read(begin, end, out)

    def _folds(
        self, column: _Runs, start: int, stop: int, carry: float
    ) -> Iterator[float]:
        """Sequential sums of ``column[start:end]`` from ``carry``, one
        at each shard end ``end``.

        ``np.add.accumulate`` has a loop-carried dependency, so it is a
        sequential left fold; seeding it with the running ``carry``
        continues ``carry + x_0 + x_1 + ...`` in exactly the scalar
        paths' addition order, shard by shard.  Each shard is derived
        behind the carry in one reused buffer and accumulated in place.
        """
        seeded = np.empty(min(self.shard_size, stop - start) + 1)
        for begin, end in self._chunks(start, stop):
            rows = seeded[: end - begin + 1]
            rows[0] = carry
            column.read(begin, end, rows[1:])
            carry = float(np.add.accumulate(rows, out=rows)[-1])
            yield carry

    def _fold(
        self, column: _Runs, start: int, stop: int, carry: float = 0.0
    ) -> float:
        """Sequential sum of ``column[start:stop]``, from ``carry``."""
        folds = list(self._folds(column, start, stop, carry))
        return folds[-1] if folds else carry

    def _fold_slice(
        self, name: str, start: int, stop: int, carry: float = 0.0
    ) -> float:
        """Sequential sum of the named column's ``start:stop``."""
        return self._fold(self._columns[name], start, stop, carry)

    def _prefix(self, name: str, index: int) -> float:
        """``np.add.accumulate(column)[index - 1]`` (0.0 at ``index`` 0).

        The carry at the end of the shard before is the same fold, so
        continuing it over part of one shard finishes it.  The first
        shard's fold starts from ``-0.0``, the exact additive identity
        (``-0.0 + x`` is ``x`` for every ``x``, ``-0.0`` included), so
        it equals the unseeded accumulate.
        """
        if index == 0:
            return 0.0
        shard = (index - 1) // self.shard_size
        carry = self._carries[name][shard - 1] if shard else -0.0
        return self._fold_slice(name, shard * self.shard_size, index, carry)

    def _prefix_count(self, name: str, index: int) -> int:
        """How many of the named flag column's first ``index`` rows are set."""
        return int(self._prefix(name, index))

    def _find_crossing(
        self, name: str, demand: float
    ) -> Tuple[Optional[int], float]:
        """Scan the ranked capacity column for the partial-take row.

        Returns ``(index, remaining_before_index)`` for the first
        ranked row whose capacity covers the running remainder -- the
        row where the scalar take loop switches from "take the whole
        capacity" to "take the remainder" -- or ``(None, final
        remainder)`` when demand exceeds the whole column.  The
        remainder sequence is the exact scalar one:
        ``np.subtract.accumulate`` over ``[carry, caps...]``.
        """
        carry = demand
        size = min(self.shard_size, self.count)
        seeded = np.empty(size + 1)
        chain = np.empty(size + 1)
        hits = np.empty(size, dtype=bool)
        for begin, end in self._chunks(0, self.count):
            rows = end - begin
            seeded[0] = carry
            chunk = self._read(name, begin, end, seeded[1 : rows + 1])
            np.subtract.accumulate(seeded[: rows + 1], out=chain[: rows + 1])
            if np.less_equal(chain[:rows], chunk, out=hits[:rows]).any():
                local = int(np.argmax(hits[:rows]))
                return begin + local, float(chain[local])
            carry = float(chain[rows])
        return None, carry

    def _masked_idle_fold(self, crossing: int) -> float:
        """Idle power of the servers the EP pass left unassigned.

        The scalar path sums ``fleet`` order, skipping assigned
        servers; skipping is adding ``0.0``, which is exact for the
        non-negative running sum, so one masked fold in fleet order
        reproduces it.
        """
        masked = self._ep.ranked_after(crossing, self.base.idle_power_w)
        return self._fold(masked, 0, self.count)

    def _row_take(self, ranking: _Ranking, index: int, take: float) -> float:
        """Power drawn by ranked row ``index`` serving ``take`` ops.

        Resolves the ranked index to its base record (tiled clones
        share the base row's curves bitwise) and runs the single-row
        kernels -- the closed-form utilization inversion, bitwise the
        50-iteration bisection, then the power interpolation -- on that
        row's Python floats.
        """
        base_row = ranking.base_row(index)
        grid = self.base.load_grid.tolist()
        ops = self.base.ops[base_row].tolist()
        power = self.base.power[base_row].tolist()
        return _interp_row(grid, power, _invert_row(grid, ops, float(take)))

    # -- policy summaries --------------------------------------------------------

    def _pack_summary(
        self, demand_ops: float, power_off_unused: bool
    ) -> Tuple[float, float, float, int]:
        """``pack_to_full`` totals: (placed, assigned power, unused, used)."""
        if demand_ops < 0.0:
            raise ValueError("demand cannot be negative")
        n = self.count
        if demand_ops <= 0.0:
            unused = (
                0.0 if power_off_unused else self._fold_slice("idle_pack", 0, n)
            )
            return 0, 0, unused, 0
        crossing, remaining = self._find_crossing("caps_pack", demand_ops)
        if crossing is None:
            # Demand exceeds fleet capacity: every ranked row takes its
            # full capacity; the prefix folds are the whole answer.
            return (
                self._prefix("caps_pack", n),
                self._prefix("fullpow_pack", n),
                0.0,
                self._prefix_count("used_pack", n),
            )
        partial_power = self._row_take(self._pack, crossing, remaining)
        placed = self._prefix("caps_pack", crossing) + remaining
        power = self._prefix("fullpow_pack", crossing) + partial_power
        unused = (
            0.0
            if power_off_unused
            else self._fold_slice("idle_pack", crossing + 1, n)
        )
        # The partial take is strictly positive, so its utilization is
        # strictly positive and the crossing row always counts as used.
        used = self._prefix_count("used_pack", crossing) + 1
        return placed, power, unused, used

    def _ep_summary(
        self, demand_ops: float, power_off_unused: bool
    ) -> Tuple[float, float, float, int]:
        """``ep_aware`` totals: (placed, assigned power, unused, used)."""
        if demand_ops < 0.0:
            raise ValueError("demand cannot be negative")
        n = self.count
        if demand_ops <= 0.0:
            unused = (
                0.0
                if power_off_unused
                else self._fold_slice("idle_fleet", 0, n)
            )
            return 0, 0, unused, 0
        crossing, remaining = self._find_crossing("spotcap_ep", demand_ops)
        if crossing is not None:
            # Pass 1 satisfied the demand at the peak-efficiency spots.
            partial_power = self._row_take(self._ep, crossing, remaining)
            placed = self._prefix("spotcap_ep", crossing) + remaining
            power = self._prefix("spotpow_ep", crossing) + partial_power
            unused = (
                0.0
                if power_off_unused
                else self._masked_idle_fold(crossing)
            )
            used = self._prefix_count("used_spot_ep", crossing) + 1
            return placed, power, unused, used
        # Pass 2: every server already runs at its spot; top servers up
        # toward full capacity in the same efficiency order.  All rows
        # are assigned, so unused idle power is exactly zero.
        crossing, remaining = self._find_crossing("hprime_ep", remaining)
        if crossing is None:
            return (
                self._prefix("topped_take_ep", n),
                self._prefix("topped_pow_ep", n),
                0.0,
                self._prefix_count("used_topped_ep", n),
            )
        spot = self._read("spotcap_ep", crossing, crossing + 1)[0]
        take = float(spot) + remaining
        partial_power = self._row_take(self._ep, crossing, take)
        placed = self._fold_slice(
            "spotcap_ep",
            crossing + 1,
            n,
            carry=self._prefix("topped_take_ep", crossing) + take,
        )
        power = self._fold_slice(
            "spotpow_ep",
            crossing + 1,
            n,
            carry=self._prefix("topped_pow_ep", crossing) + partial_power,
        )
        # Topped rows before the crossing, the (always positive, hence
        # always used) crossing take, then the suffix's spot takes.
        used = (
            self._prefix_count("used_topped_ep", crossing)
            + 1
            + self._prefix_count("used_spot_ep", n)
            - self._prefix_count("used_spot_ep", crossing + 1)
        )
        return placed, power, 0.0, used

    def _summary(
        self, policy: str, demand_ops: float, power_off_unused: bool
    ) -> Tuple[float, float, float, int]:
        """Dispatch on a :data:`~repro.cluster.placement.POLICIES` name."""
        if policy == "pack-to-full":
            return self._pack_summary(demand_ops, power_off_unused)
        if policy == "ep-aware":
            return self._ep_summary(demand_ops, power_off_unused)
        raise ValueError(f"unknown policy {policy!r}")

    # -- fluid placement (BatchPlacementEngine twin) -----------------------------

    def _outcome(
        self,
        policy: str,
        demand_ops: float,
        summary: Tuple[float, float, float, int],
    ) -> SummaryOutcome:
        placed, power, unused, used = summary
        return SummaryOutcome(
            policy=policy,
            demand_ops=demand_ops,
            unused_idle_power_w=unused,
            summary_placed_ops=placed,
            summary_assigned_power_w=power,
            summary_servers_used=used,
        )

    def pack_to_full(
        self, demand_ops: float, power_off_unused: bool = False
    ) -> SummaryOutcome:
        """Sharded ``pack_to_full_placement``; identical scalars."""
        return self._outcome(
            "pack-to-full",
            demand_ops,
            self._pack_summary(demand_ops, power_off_unused),
        )

    def ep_aware(
        self, demand_ops: float, power_off_unused: bool = False
    ) -> SummaryOutcome:
        """Sharded ``ep_aware_placement``; identical scalars."""
        return self._outcome(
            "ep-aware",
            demand_ops,
            self._ep_summary(demand_ops, power_off_unused),
        )

    def place(
        self, policy: str, demand_ops: float, power_off_unused: bool = False
    ) -> SummaryOutcome:
        """Dispatch on a :data:`~repro.cluster.placement.POLICIES` name."""
        return self._outcome(
            policy,
            demand_ops,
            self._summary(policy, demand_ops, power_off_unused),
        )

    def place_totals(
        self, policy: str, demand_ops: float, power_off_unused: bool = False
    ) -> Tuple[float, float]:
        """(placed_ops, total_power_w), the replay hot-loop reduction."""
        placed, power, unused, _ = self._summary(
            policy, demand_ops, power_off_unused
        )
        return placed, power + unused

    def max_throughput_under_cap(
        self,
        power_cap_w: float,
        policy: str = "ep-aware",
        power_off_unused: bool = False,
    ) -> SummaryOutcome:
        """Sharded ``max_throughput_under_cap``; identical scalars."""
        low = cap_search(
            self, self.total_capacity, power_cap_w, policy, power_off_unused
        )
        return self.place(policy, low, power_off_unused)

    # -- job scheduling is out of scope at this tier -----------------------------

    def schedule(self, policy: str, jobs: Sequence) -> None:
        """Unsupported at this tier; raises ``ValueError``."""
        raise ValueError(
            "the sharded engine answers fleet-level placement summaries "
            "only; job scheduling needs the per-server state of the "
            "columnar engine -- schedule an eager fleet (a list, or "
            "tile_fleet(..., lazy=False)) instead of a lazy view"
        )


class ShardedTraceReplay(DayReplay):
    """Replay demand traces against a sharded fleet, step by step.

    The drop-in twin of
    :class:`~repro.cluster.batch_trace.BatchTraceReplay` for the
    sharded tier: same ``replay``/``compare_policies`` surface and the
    same day loop, so the same ``TraceOutcome`` floats.  Each step's
    folds derive one shard at a time, so the replay adds a few shards
    to the engine's O(base) state, whatever the fleet size or the
    trace length.
    """

    def __init__(self, fleet):
        if isinstance(fleet, ShardedFleetEngine):
            self.engine = fleet
        else:
            self.engine = ShardedFleetEngine(fleet)
        self._capacity = streamed_level_capacity(
            self.engine.base.records, self.engine.count
        )

    def replay(
        self,
        trace: DemandTrace,
        policy: str = "ep-aware",
        power_off_unused: bool = False,
    ) -> TraceOutcome:
        """Sharded ``replay_trace``; identical outcome, bounded memory."""
        return replay_day(
            self.engine, self._capacity, trace, policy, power_off_unused
        )
