"""Sharded, out-of-core columnar fleet engine.

The columnar engine (:mod:`repro.cluster.batch_placement`) holds the
whole fleet as one in-RAM matrix pair and walks its take loops in
Python -- both walls well before N = 10^6 servers.  This module keeps
the *answers* of that engine bit for bit while changing the
representation and the reductions:

* **Sharded columns.**  The fleet's derived placement columns (ranked
  capacities, idle powers, running prefix folds, rank permutations)
  are built once, O(base) + O(N), and then only ever *streamed* in
  fixed-size shards (:data:`DEFAULT_SHARD_SIZE` servers at a time), so
  a query's working set is bounded by the shard size, not the fleet.
  Large fleets spill the columns to fingerprint-keyed ``.npy`` files
  (:class:`repro.dataset.columns.ColumnSpillStore`), and every query
  reads them shard by shard from the files, never through the memory
  maps, so the process maps no spilled page: the files sit on disk and
  in the page cache, and the resident set holds the shards being
  folded.  The layout is derived column by
  column (:func:`_build_layout` is a generator), so a spilling build
  writes each column as it is made and never holds the whole layout
  in memory.

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
  everything before/after it reduces from precomputed prefix folds
  plus carry-continued suffix folds.  (Before the crossing the
  remainder is strictly positive: ``fl(r - c)`` with ``0 <= c < r``
  cannot round to zero -- ``c = 0`` is exact, ``r <= 2c`` is exact by
  Sterbenz's lemma, and otherwise the result exceeds ``c`` -- so the
  crossing test reproduces the scalar loop's branch decisions
  exactly, including zero-capacity rows.)

* **Summaries, not assignments.**  A million-row placement cannot
  afford a million ``Assignment`` objects; queries return
  :class:`SummaryOutcome`, a ``PlacementOutcome`` carrying the same
  scalar ``placed_ops`` / ``total_power_w`` / ``servers_used`` floats
  (the folds match the property reductions exactly) without the
  per-server list.

* **Serial day loop.**  :class:`ShardedTraceReplay` runs the engines'
  one day loop (:func:`repro.cluster.batch_trace.replay_day`) step by
  step over :meth:`ShardedFleetEngine.place_totals`, so peak memory is
  the fleet columns plus a few scalars -- never O(N * T) -- and the
  outcome equals the columnar replayer's.

:func:`repro.cluster.engines.fleet_engine` routes lazy
:class:`~repro.cluster.fleet_arrays.TiledFleetView` fleets of at least
``SHARDED_THRESHOLD`` (100,000) servers here.
"""

from __future__ import annotations

import hashlib
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
from repro.dataset.columns import ColumnSpillStore

#: Servers per shard: the streaming granule of every fold and scan.
DEFAULT_SHARD_SIZE = 65_536

#: Fleets of at least this many servers spill their derived columns
#: to disk instead of holding them resident.
SPILL_THRESHOLD = 262_144

#: Version tag folded into the spill key; bump when the layout changes.
_LAYOUT_TAG = "sharded-1"

#: The derived column arrays the placement queries need, in a fixed order so
#: spill files enumerate identically.
_LAYOUT_NAMES = (
    "pack_perm",
    "caps_pack",
    "acc_caps_pack",
    "acc_fullpow_pack",
    "idle_pack",
    "used_pack",
    "ep_perm",
    "ep_rank",
    "spotcap_ep",
    "acc_spotcap_ep",
    "spotpow_ep",
    "acc_spotpow_ep",
    "used_spot_ep",
    "hprime_ep",
    "acc_topped_take_ep",
    "acc_topped_pow_ep",
    "used_topped_ep",
    "idle_fleet",
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


def _fold_continue(carry: float, chunk: np.ndarray) -> float:
    """Continue a strict left-fold sum across a shard boundary.

    ``np.add.accumulate`` has a loop-carried dependency, so it is a
    sequential left fold -- seeding it with the running ``carry``
    reproduces ``carry + x_0 + x_1 + ...`` in exactly the scalar
    paths' addition order, shard by shard.
    """
    if chunk.size == 0:
        return carry
    seeded = np.empty(chunk.size + 1, dtype=np.float64)
    seeded[0] = carry
    seeded[1:] = chunk
    return float(np.add.accumulate(seeded)[-1])


def _tiled_column(values: np.ndarray, count: int) -> np.ndarray:
    """``values`` cycled out to ``count`` elements, in one allocation."""
    tiled = np.empty(count, dtype=values.dtype)
    repeats, remainder = divmod(count, values.shape[0])
    whole = count - remainder
    tiled[:whole].reshape(repeats, values.shape[0])[...] = values
    tiled[whole:] = values[:remainder]
    return tiled


def _ranked(values: np.ndarray, count: int, perm: np.ndarray) -> np.ndarray:
    """``values`` tiled out to ``count`` servers, in ``perm`` order."""
    return _tiled_column(values, count)[perm]


def _descending(values: np.ndarray, count: int) -> np.ndarray:
    """Stable rank order of ``values`` tiled out to ``count``, highest first.

    A stable argsort on the negated key, exactly the columnar engine's
    (and through it the scalar sort's) ordering; the key is negated in
    place, so the sort holds one tiled copy, not two.
    """
    key = _tiled_column(values, count)
    np.negative(key, out=key)
    return np.argsort(key, kind="stable")


def _used_counts(flags: np.ndarray) -> np.ndarray:
    """Running count of set ``flags`` (the ``servers_used`` prefixes)."""
    return np.add.accumulate(flags, dtype=np.int64)


def _build_layout(
    base: FleetArrays, count: int
) -> Iterator[Tuple[str, np.ndarray]]:
    """Derive the sharded query columns for ``count`` tiled servers.

    O(base) curve work (per-record bisections run once and shared by
    every clone -- clones carry bitwise-identical curves) plus O(N)
    tiling, ranking, and prefix folds.  Yields ``(name, column)`` for
    each of :data:`_LAYOUT_NAMES` in order, then ``("total_capacity",
    [total])``: the fleet's total full capacity (the fleet-order
    sequential fold the cap search seeds its bisection with).  Each
    O(N) intermediate is dropped once the columns derived from it are
    out, so a caller that writes every column as it arrives (the spill
    tier) never holds the whole layout at once.
    """
    # Per-base-row derived values through the exact scalar pipelines.
    spot_util_b = base.utilization_for(base.spot_capacity)
    spot_pow_b = base.power_at(spot_util_b)
    full_util_b = base.utilization_for(base.full_capacity)
    full_pow_b = base.power_at(full_util_b)
    headroom_b = base.full_capacity - base.spot_capacity
    hprime_b = np.where(headroom_b > 0.0, headroom_b, 0.0)
    topped_take_b = base.spot_capacity + hprime_b
    topped_util_b = base.utilization_for(topped_take_b)
    topped_pow_b = base.power_at(topped_util_b)

    perm = _descending(base.full_load_ee, count)
    yield "pack_perm", perm.astype(np.int64, copy=False)
    full_cap = _tiled_column(base.full_capacity, count)
    total_capacity = float(np.add.accumulate(full_cap)[-1]) if count else 0.0
    ranked = full_cap[perm]
    del full_cap
    yield "caps_pack", ranked
    yield "acc_caps_pack", np.add.accumulate(ranked)
    del ranked
    yield "acc_fullpow_pack", np.add.accumulate(
        _ranked(full_pow_b, count, perm)
    )
    yield "idle_pack", _ranked(base.idle_power_w, count, perm)
    yield "used_pack", _used_counts(_ranked(full_util_b, count, perm) > 0.0)

    perm = _descending(base.peak_ee, count)
    yield "ep_perm", perm.astype(np.int64, copy=False)
    rank = np.empty(count, dtype=np.int64)
    rank[perm] = np.arange(count, dtype=np.int64)
    yield "ep_rank", rank
    del rank
    ranked = _ranked(base.spot_capacity, count, perm)
    yield "spotcap_ep", ranked
    yield "acc_spotcap_ep", np.add.accumulate(ranked)
    del ranked
    ranked = _ranked(spot_pow_b, count, perm)
    yield "spotpow_ep", ranked
    yield "acc_spotpow_ep", np.add.accumulate(ranked)
    del ranked
    yield "used_spot_ep", _used_counts(_ranked(spot_util_b, count, perm) > 0.0)
    yield "hprime_ep", _ranked(hprime_b, count, perm)
    yield "acc_topped_take_ep", np.add.accumulate(
        _ranked(topped_take_b, count, perm)
    )
    yield "acc_topped_pow_ep", np.add.accumulate(
        _ranked(topped_pow_b, count, perm)
    )
    yield "used_topped_ep", _used_counts(
        _ranked(topped_util_b, count, perm) > 0.0
    )
    del perm
    yield "idle_fleet", _tiled_column(base.idle_power_w, count)
    yield "total_capacity", np.array([total_capacity])


def _layout_key(base: FleetArrays, count: int) -> str:
    """Content fingerprint of a fleet layout (spill-store key)."""
    digest = hashlib.sha256()
    digest.update(_LAYOUT_TAG.encode("utf-8"))
    digest.update(f":{count}:{len(base)}".encode("utf-8"))
    for array in (
        base.load_grid,
        base.power,
        base.ops,
        base.peak_ee,
        base.primary_peak_spot,
    ):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()[:32]


class ShardedFleetEngine:
    """Placement queries over a sharded fleet, summaries only.

    Accepts anything the columnar engine accepts plus a lazy
    :class:`~repro.cluster.fleet_arrays.TiledFleetView`, which it
    consumes *without materializing*: the view contributes its O(base)
    records and a count, and the engine tiles the derived columns
    directly.  Fleets of at least :data:`SPILL_THRESHOLD` servers keep
    their columns out of core (``spill=True`` / ``spill=False``
    overrides), in a :class:`~repro.dataset.columns.ColumnSpillStore`.
    ``layout`` maps each derived column's name to its array (resident,
    or, when spilled, the read-only memmap that names the column's file
    and offset); every scan and fold reads the columns in
    ``shard_size``-bounded slices through :meth:`_read`.

    All placement entry points return :class:`SummaryOutcome` objects
    whose scalars are bit-identical to the columnar engine's
    ``PlacementOutcome`` reductions on the same fleet.  Job scheduling
    is *not* implemented at this tier (a million-job first-fit is a
    different problem): :meth:`schedule` raises ``ValueError``
    pointing at the columnar engine.
    """

    def __init__(
        self,
        fleet,
        shard_size: int = DEFAULT_SHARD_SIZE,
        spill: Optional[bool] = None,
        spill_store: Optional[ColumnSpillStore] = None,
    ):
        if shard_size < 1:
            raise ValueError("shard size must be positive")
        if isinstance(fleet, TiledFleetView):
            self.base = FleetArrays.from_records(fleet.base)
            self.count = len(fleet)
        else:
            self.base = FleetArrays.from_fleet(fleet)
            self.count = len(self.base)
        self.shard_size = int(shard_size)
        if spill is None:
            spill = self.count >= SPILL_THRESHOLD
        #: Whether the columns live out of core (memmapped spill files).
        self.spilled = bool(spill)
        if spill:
            store = spill_store if spill_store is not None else ColumnSpillStore()
            key = _layout_key(self.base, self.count)
            if not all(
                store.has(key, name)
                for name in _LAYOUT_NAMES + ("total_capacity",)
            ):
                # Each column is written as it is derived, then dropped.
                for name, column in _build_layout(self.base, self.count):
                    store.save(key, name, column)
                    del column
            self.layout = {
                name: store.load(key, name) for name in _LAYOUT_NAMES
            }
            self.total_capacity = float(
                store.load(key, "total_capacity", mmap=False)[0]
            )
        else:
            self.layout = dict(_build_layout(self.base, self.count))
            self.total_capacity = float(self.layout.pop("total_capacity")[0])

    def __len__(self) -> int:
        return self.count

    # -- streaming primitives ----------------------------------------------------

    def _chunks(self, start: int, stop: int) -> Iterator[Tuple[int, int]]:
        while start < stop:
            end = min(start + self.shard_size, stop)
            yield start, end
            start = end

    def _read(self, name: str, begin: int, end: int) -> np.ndarray:
        """``layout[name][begin:end]``; every query reads the layout here.

        A spilled column is read from its file into a fresh array, never
        through its memory map, so no page of the column stays mapped in
        this process.
        """
        column = self.layout[name]
        if not self.spilled:
            return column[begin:end]
        rows = np.empty(end - begin, dtype=column.dtype)
        with open(column.filename, "rb", buffering=0) as stream:
            stream.seek(column.offset + begin * column.itemsize)
            if stream.readinto(rows) != rows.nbytes:
                raise OSError(f"short read from spilled column {column.filename}")
        return rows

    def _at(self, name: str, index: int):
        """``layout[name][index]``, read through :meth:`_read`."""
        return self._read(name, index, index + 1)[0]

    def _fold_slice(
        self, name: str, start: int, stop: int, carry: float = 0.0
    ) -> float:
        """Sequential sum of ``layout[name][start:stop]``, from ``carry``."""
        for begin, end in self._chunks(start, stop):
            carry = _fold_continue(carry, self._read(name, begin, end))
        return carry

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
        for begin, end in self._chunks(0, self.count):
            chunk = self._read(name, begin, end)
            seeded = np.empty(chunk.size + 1, dtype=np.float64)
            seeded[0] = carry
            seeded[1:] = chunk
            chain = np.subtract.accumulate(seeded)
            hits = chain[:-1] <= chunk
            if hits.any():
                local = int(np.argmax(hits))
                return begin + local, float(chain[local])
            carry = float(chain[-1])
        return None, carry

    def _masked_idle_fold(self, crossing: int) -> float:
        """Idle power of the servers the EP pass left unassigned.

        The scalar path sums ``fleet`` order, skipping assigned
        servers; skipping is adding ``0.0``, which is exact for the
        non-negative running sum, so one masked fold in fleet order
        reproduces it.
        """
        carry = 0.0
        for begin, end in self._chunks(0, self.count):
            masked = np.where(
                self._read("ep_rank", begin, end) > crossing,
                self._read("idle_fleet", begin, end),
                0.0,
            )
            carry = _fold_continue(carry, masked)
        return carry

    def _prefix(self, name: str, index: int) -> float:
        """The precomputed running fold just before ranked ``index``."""
        if index == 0:
            return 0.0
        return float(self._at(name, index - 1))

    def _prefix_count(self, name: str, index: int) -> int:
        if index == 0:
            return 0
        return int(self._at(name, index - 1))

    def _row_take(self, perm_name: str, index: int, take: float) -> float:
        """Power drawn by ranked row ``index`` serving ``take`` ops.

        Resolves the ranked index to its base record (tiled clones
        share the base row's curves bitwise) and runs the single-row
        kernels -- the closed-form utilization inversion, bitwise the
        50-iteration bisection, then the power interpolation -- on that
        row's Python floats.
        """
        base_row = int(self._at(perm_name, index)) % len(self.base)
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
            # full capacity; the precomputed folds are the whole answer.
            return (
                float(self._at("acc_caps_pack", n - 1)),
                float(self._at("acc_fullpow_pack", n - 1)),
                0.0,
                int(self._at("used_pack", n - 1)),
            )
        partial_power = self._row_take("pack_perm", crossing, remaining)
        placed = self._prefix("acc_caps_pack", crossing) + remaining
        power = self._prefix("acc_fullpow_pack", crossing) + partial_power
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
            partial_power = self._row_take("ep_perm", crossing, remaining)
            placed = self._prefix("acc_spotcap_ep", crossing) + remaining
            power = self._prefix("acc_spotpow_ep", crossing) + partial_power
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
                float(self._at("acc_topped_take_ep", n - 1)),
                float(self._at("acc_topped_pow_ep", n - 1)),
                0.0,
                int(self._at("used_topped_ep", n - 1)),
            )
        take = float(self._at("spotcap_ep", crossing)) + remaining
        partial_power = self._row_take("ep_perm", crossing, take)
        placed = self._fold_slice(
            "spotcap_ep",
            crossing + 1,
            n,
            carry=self._prefix("acc_topped_take_ep", crossing) + take,
        )
        power = self._fold_slice(
            "spotpow_ep",
            crossing + 1,
            n,
            carry=self._prefix("acc_topped_pow_ep", crossing) + partial_power,
        )
        # Topped rows before the crossing, the (always positive, hence
        # always used) crossing take, then the suffix's spot takes.
        used = (
            self._prefix_count("used_topped_ep", crossing)
            + 1
            + int(self._at("used_spot_ep", n - 1))
            - int(self._at("used_spot_ep", crossing))
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
    folds read one shard per column at a time, so the replay adds about
    a shard per column to the resident set, whatever the fleet size or
    the trace length; a spilled fleet's columns stay on disk and in the
    page cache.
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
