"""Sharded, shared-memory, out-of-core columnar fleet engine.

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
  (:class:`repro.dataset.columns.ColumnSpillStore`) and re-open them
  as read-only memory maps -- out-of-core, page-cache resident.

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

* **Windowed, pooled replay.**  :class:`ShardedTraceReplay` streams a
  trace window by window -- peak RSS is O(N) columns + O(window), not
  O(N * T) -- and optionally fans the steps of a window across a
  process pool with zero-copy column views
  (``multiprocessing.shared_memory`` segments for in-RAM engines,
  shared page-cache memmaps for spilled ones).  Workers are hardened
  like the ensemble pool: the ``shard.worker`` fault-injection site
  claims trigger budget at dispatch time in step order, failing steps
  are retried on a bounded budget, a broken pool is restarted once,
  and then the replay degrades to serial execution with a warning.
  Parallel replay equals serial replay exactly (per-step work is
  self-contained; the parent folds results in step order).

:func:`repro.cluster.engines.fleet_engine` routes lazy
:class:`~repro.cluster.fleet_arrays.TiledFleetView` fleets of at least
``SHARDED_THRESHOLD`` (100,000) servers here.
"""

from __future__ import annotations

import hashlib
import warnings
from concurrent.futures import Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.fleet_arrays import (
    FleetArrays,
    TiledFleetView,
    _interp_row,
    _invert_row,
)
from repro.cluster.placement import PlacementOutcome
from repro.cluster.trace import (
    _POLICIES,
    DemandTrace,
    TraceOutcome,
    diurnal_trace,
)
from repro.core.faults import active_plan
from repro.core.resilience import TransientError
from repro.dataset.columns import ColumnSpillStore

#: Servers per shard: the streaming granule of every fold and scan.
DEFAULT_SHARD_SIZE = 65_536

#: Fleets of at least this many servers spill their derived columns
#: to disk (memmapped) instead of holding them resident.
SPILL_THRESHOLD = 262_144

#: Replay steps dispatched per pool window.
DEFAULT_WINDOW_STEPS = 64

#: Bounded-wait tick for the worker pool (keeps every wait timed).
_WAIT_TICK_S = 0.25

#: Version tag folded into the spill key; bump when the layout changes.
_LAYOUT_TAG = "sharded-1"

#: The derived column arrays a query kernel needs, in a fixed order so
#: spill files and shared-memory blocks enumerate identically.
_LAYOUT_NAMES = (
    "grid",
    "base_power",
    "base_ops",
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


def streamed_level_capacity(records: Sequence, count: int) -> float:
    """Full-load ``ssj_ops`` capacity of ``records`` tiled to ``count``.

    Bit-identical to the scalar ``sum(level.ssj_ops for server in
    fleet for level in server.levels if level.target_load == 1.0)``
    over the tiled fleet, without materializing a single clone: the
    flat value sequence is one base cycle repeated, so the fold runs
    one seeded accumulate per cycle (``0.0 + x == x`` for the finite
    non-negative first term, matching the int-seeded builtin ``sum``).
    """
    values: List[float] = []
    offsets = [0]
    for record in records:
        for level in record.levels:
            if level.target_load == 1.0:
                values.append(level.ssj_ops)
        offsets.append(len(values))
    flat = np.array(values, dtype=np.float64)
    repeats, remainder = divmod(count, len(records))
    carry = 0.0
    for _ in range(repeats):
        carry = _fold_continue(carry, flat)
    if remainder:
        carry = _fold_continue(carry, flat[: offsets[remainder]])
    return carry


class _ShardKernel:
    """Placement queries over the sharded column layout.

    Operates on a plain ``name -> array`` mapping -- resident numpy
    arrays in the parent engine, zero-copy shared-memory views or
    read-only memmaps inside pool workers -- so the same query code
    runs everywhere the columns can live.  Every scan and fold visits
    the columns in :data:`DEFAULT_SHARD_SIZE`-bounded slices.
    """

    def __init__(
        self,
        layout: Dict[str, np.ndarray],
        count: int,
        base_count: int,
        shard_size: int,
    ):
        self.layout = layout
        self.count = count
        self.base_count = base_count
        self.shard_size = shard_size

    # -- streaming primitives ----------------------------------------------------

    def _chunks(self, start: int, stop: int) -> Iterator[Tuple[int, int]]:
        while start < stop:
            end = min(start + self.shard_size, stop)
            yield start, end
            start = end

    def _fold_slice(
        self, name: str, start: int, stop: int, carry: float = 0.0
    ) -> float:
        """Sequential sum of ``layout[name][start:stop]``, from ``carry``."""
        values = self.layout[name]
        for begin, end in self._chunks(start, stop):
            carry = _fold_continue(
                carry, np.asarray(values[begin:end], dtype=np.float64)
            )
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
        caps = self.layout[name]
        carry = demand
        for begin, end in self._chunks(0, self.count):
            chunk = np.asarray(caps[begin:end], dtype=np.float64)
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
        idle = self.layout["idle_fleet"]
        rank = self.layout["ep_rank"]
        carry = 0.0
        for begin, end in self._chunks(0, self.count):
            masked = np.where(
                np.asarray(rank[begin:end]) > crossing,
                np.asarray(idle[begin:end], dtype=np.float64),
                0.0,
            )
            carry = _fold_continue(carry, masked)
        return carry

    def _prefix(self, name: str, index: int) -> float:
        """The precomputed running fold just before ranked ``index``."""
        if index == 0:
            return 0.0
        return float(self.layout[name][index - 1])

    def _prefix_count(self, name: str, index: int) -> int:
        if index == 0:
            return 0
        return int(self.layout[name][index - 1])

    def _row_take(self, perm_name: str, index: int, take: float) -> float:
        """Power drawn by ranked row ``index`` serving ``take`` ops.

        Resolves the ranked index to its base record (tiled clones
        share the base row's curves bitwise) and runs the single-row
        kernels -- 50-iteration utilization bisection, then the power
        interpolation -- on that row's Python floats.
        """
        base_row = int(self.layout[perm_name][index]) % self.base_count
        grid = self.layout["grid"].tolist()
        ops = self.layout["base_ops"][base_row].tolist()
        power = self.layout["base_power"][base_row].tolist()
        return _interp_row(grid, power, _invert_row(grid, ops, float(take)))

    # -- policy summaries --------------------------------------------------------

    def pack_summary(
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
                float(self.layout["acc_caps_pack"][n - 1]),
                float(self.layout["acc_fullpow_pack"][n - 1]),
                0.0,
                int(self.layout["used_pack"][n - 1]),
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

    def ep_summary(
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
                float(self.layout["acc_topped_take_ep"][n - 1]),
                float(self.layout["acc_topped_pow_ep"][n - 1]),
                0.0,
                int(self.layout["used_topped_ep"][n - 1]),
            )
        take = float(self.layout["spotcap_ep"][crossing]) + remaining
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
            + int(self.layout["used_spot_ep"][n - 1])
            - int(self.layout["used_spot_ep"][crossing])
        )
        return placed, power, 0.0, used

    def place_summary(
        self, policy: str, demand_ops: float, power_off_unused: bool
    ) -> Tuple[float, float, float, int]:
        """Dispatch on the policy name used by the scalar registries."""
        if policy == "pack-to-full":
            return self.pack_summary(demand_ops, power_off_unused)
        if policy == "ep-aware":
            return self.ep_summary(demand_ops, power_off_unused)
        raise ValueError(f"unknown policy {policy!r}")


def _tiled_column(values: np.ndarray, count: int) -> np.ndarray:
    """``values`` cycled out to ``count`` elements (tile + remainder)."""
    base_count = values.shape[0]
    if count == base_count:
        return np.array(values, dtype=values.dtype)
    repeats, remainder = divmod(count, base_count)
    parts = []
    if repeats:
        parts.append(np.tile(values, repeats))
    if remainder:
        parts.append(values[:remainder])
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts)


def _build_layout(
    base: FleetArrays, count: int
) -> Tuple[Dict[str, np.ndarray], float]:
    """Derive the sharded query columns for ``count`` tiled servers.

    O(base) curve work (per-record bisections run once and shared by
    every clone -- clones carry bitwise-identical curves) plus O(N)
    tiling, ranking, and prefix folds.  Returns the layout mapping and
    the fleet's total full capacity (the fleet-order sequential fold
    the cap search seeds its bisection with).
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

    # O(N) tiled columns (fleet order).
    full_cap = _tiled_column(base.full_capacity, count)
    spot_cap = _tiled_column(base.spot_capacity, count)
    idle = _tiled_column(base.idle_power_w, count)

    # Ranked orders: stable argsort on the negated key, exactly the
    # columnar engine's (and through it the scalar sort's) ordering.
    pack_perm = np.argsort(
        -_tiled_column(base.full_load_ee, count), kind="stable"
    )
    ep_perm = np.argsort(-_tiled_column(base.peak_ee, count), kind="stable")
    ep_rank = np.empty(count, dtype=np.int64)
    ep_rank[ep_perm] = np.arange(count, dtype=np.int64)

    def used_counts(flags: np.ndarray) -> np.ndarray:
        return np.add.accumulate(flags.astype(np.int64))

    caps_pack = full_cap[pack_perm]
    fullpow_pack = _tiled_column(full_pow_b, count)[pack_perm]
    full_util_t = _tiled_column(full_util_b, count)
    spotcap_ep = spot_cap[ep_perm]
    spotpow_ep = _tiled_column(spot_pow_b, count)[ep_perm]
    spot_util_t = _tiled_column(spot_util_b, count)
    hprime_ep = _tiled_column(hprime_b, count)[ep_perm]
    topped_take_ep = _tiled_column(topped_take_b, count)[ep_perm]
    topped_pow_ep = _tiled_column(topped_pow_b, count)[ep_perm]
    topped_util_t = _tiled_column(topped_util_b, count)

    layout = {
        "grid": np.array(base.load_grid, dtype=np.float64),
        "base_power": np.array(base.power, dtype=np.float64),
        "base_ops": np.array(base.ops, dtype=np.float64),
        "pack_perm": pack_perm.astype(np.int64),
        "caps_pack": caps_pack,
        "acc_caps_pack": np.add.accumulate(caps_pack),
        "acc_fullpow_pack": np.add.accumulate(fullpow_pack),
        "idle_pack": idle[pack_perm],
        "used_pack": used_counts(full_util_t[pack_perm] > 0.0),
        "ep_perm": ep_perm.astype(np.int64),
        "ep_rank": ep_rank,
        "spotcap_ep": spotcap_ep,
        "acc_spotcap_ep": np.add.accumulate(spotcap_ep),
        "spotpow_ep": spotpow_ep,
        "acc_spotpow_ep": np.add.accumulate(spotpow_ep),
        "used_spot_ep": used_counts(spot_util_t[ep_perm] > 0.0),
        "hprime_ep": hprime_ep,
        "acc_topped_take_ep": np.add.accumulate(topped_take_ep),
        "acc_topped_pow_ep": np.add.accumulate(topped_pow_ep),
        "used_topped_ep": used_counts(topped_util_t[ep_perm] > 0.0),
        "idle_fleet": idle,
    }
    total_capacity = float(np.add.accumulate(full_cap)[-1]) if count else 0.0
    return layout, total_capacity


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


def publish_shm_arrays(
    named: Dict[str, np.ndarray],
) -> Tuple[Dict[str, Tuple[str, Tuple[int, ...], str]],
           List[shared_memory.SharedMemory]]:
    """Copy named arrays into fresh shared-memory segments.

    Returns ``(blocks, segments)``: ``blocks`` maps each name to the
    ``(segment name, shape, dtype)`` triple that
    :func:`attached_shm_arrays` re-opens zero-copy in another process,
    and ``segments`` are the live handles the *caller* must close and
    unlink when the audience is gone.  On a mid-publication failure
    every already-created segment is reclaimed before the error
    propagates, so a partial publish can never leak kernel objects.
    """
    blocks: Dict[str, Tuple[str, Tuple[int, ...], str]] = {}
    segments: List[shared_memory.SharedMemory] = []
    try:
        for name, array in named.items():
            array = np.ascontiguousarray(array)
            segment = shared_memory.SharedMemory(
                create=True, size=max(1, array.nbytes)
            )
            segments.append(segment)
            view = np.ndarray(
                array.shape, dtype=array.dtype, buffer=segment.buf
            )
            view[...] = array
            del view
            blocks[name] = (segment.name, array.shape, array.dtype.str)
    except BaseException:
        for segment in segments:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        raise
    return blocks, segments


@contextmanager
def attached_shm_arrays(
    blocks: Dict[str, Tuple[str, Tuple[int, ...], str]],
) -> Iterator[Dict[str, np.ndarray]]:
    """Attach published segments as named array views, detach on exit.

    The inverse of :func:`publish_shm_arrays`, runnable in any process
    that can see the segment names: yields zero-copy views over the
    parent's pages and closes every attached segment in the
    ``finally``, so an attaching worker can never leak one whatever
    its work does.
    """
    segments: List[shared_memory.SharedMemory] = []
    arrays: Dict[str, np.ndarray] = {}
    try:
        for name, (segment_name, shape, dtype) in blocks.items():
            # Attaching re-registers the name with the resource
            # tracker (a set add, so a no-op: pool workers share
            # the parent's tracker and the parent registered the
            # segment at creation); the parent's unlink unregisters
            # it exactly once.
            segment = shared_memory.SharedMemory(name=segment_name)
            segments.append(segment)
            arrays[name] = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=segment.buf
            )
        yield arrays
    finally:
        arrays.clear()
        for segment in segments:
            try:
                segment.close()
            except BufferError:  # a view outlived the scope; leave it
                pass


@contextmanager
def _attached_kernel(descriptor: Dict) -> Iterator[_ShardKernel]:
    """Open a broadcast layout inside a pool worker, detach on exit.

    ``shm`` descriptors attach the parent's shared-memory segments as
    zero-copy array views (:func:`attached_shm_arrays`); ``paths``
    descriptors re-open the spill store's column files as read-only
    memmaps (forked or spawned workers share the same page-cache
    bytes).  Either way the views are dropped on exit, so a worker can
    never leak a segment whatever the query does.
    """
    def _kernel(arrays: Dict[str, np.ndarray]) -> _ShardKernel:
        return _ShardKernel(
            arrays,
            descriptor["count"],
            descriptor["base_count"],
            descriptor["shard_size"],
        )

    if descriptor["mode"] == "shm":
        with attached_shm_arrays(descriptor["blocks"]) as arrays:
            yield _kernel(arrays)
        return
    arrays = {
        name: np.load(path, mmap_mode="r", allow_pickle=False)
        for name, path in descriptor["paths"].items()
    }
    try:
        yield _kernel(arrays)
    finally:
        arrays.clear()


def _pooled_step(
    descriptor: Dict,
    demand: float,
    policy: str,
    power_off_unused: bool,
    inject: bool,
) -> Tuple[float, float]:
    """Pool-side worker: one replay step against the broadcast layout."""
    if inject:
        raise TransientError("injected shard.worker fault")
    with _attached_kernel(descriptor) as kernel:
        placed, power, unused, _ = kernel.place_summary(
            policy, demand, power_off_unused
        )
    return placed, power + unused


class ShardedFleetEngine:
    """Placement queries over a sharded fleet, summaries only.

    Accepts anything the columnar engine accepts plus a lazy
    :class:`~repro.cluster.fleet_arrays.TiledFleetView`, which it
    consumes *without materializing*: the view contributes its O(base)
    records and a count, and the engine tiles the derived columns
    directly.  Fleets of at least :data:`SPILL_THRESHOLD` servers keep
    their columns out of core (``spill=True`` / ``spill=False``
    overrides), memmapped from a
    :class:`~repro.dataset.columns.ColumnSpillStore`.

    All placement entry points return :class:`SummaryOutcome` objects
    whose scalars are bit-identical to the columnar engine's
    ``PlacementOutcome`` reductions on the same fleet.  The job
    schedulers are *not* implemented at this tier (a million-job
    first-fit is a different problem); those methods raise
    ``ValueError`` pointing at the columnar engine.
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
        self._spill: Optional[Tuple[ColumnSpillStore, str]] = None
        if spill:
            store = spill_store if spill_store is not None else ColumnSpillStore()
            key = _layout_key(self.base, self.count)
            if not all(store.has(key, name) for name in _LAYOUT_NAMES):
                layout, total_capacity = _build_layout(self.base, self.count)
                for name in _LAYOUT_NAMES:
                    store.save(key, name, layout[name])
                store.save(
                    key, "total_capacity", np.array([total_capacity])
                )
                del layout
            layout = {
                name: store.load(key, name) for name in _LAYOUT_NAMES
            }
            self.total_capacity = float(
                store.load(key, "total_capacity", mmap=False)[0]
            )
            self._spill = (store, key)
        else:
            layout, self.total_capacity = _build_layout(self.base, self.count)
        self.kernel = _ShardKernel(
            layout, self.count, len(self.base), self.shard_size
        )

    def __len__(self) -> int:
        return self.count

    @property
    def spilled(self) -> bool:
        """Whether the columns live out of core (memmapped spill files)."""
        return self._spill is not None

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
            self.kernel.pack_summary(demand_ops, power_off_unused),
        )

    def ep_aware(
        self, demand_ops: float, power_off_unused: bool = False
    ) -> SummaryOutcome:
        """Sharded ``ep_aware_placement``; identical scalars."""
        return self._outcome(
            "ep-aware",
            demand_ops,
            self.kernel.ep_summary(demand_ops, power_off_unused),
        )

    def place(
        self, policy: str, demand_ops: float, power_off_unused: bool = False
    ) -> SummaryOutcome:
        """Dispatch on the policy name used by the scalar registries."""
        return self._outcome(
            policy,
            demand_ops,
            self.kernel.place_summary(policy, demand_ops, power_off_unused),
        )

    def place_totals(
        self, policy: str, demand_ops: float, power_off_unused: bool = False
    ) -> Tuple[float, float]:
        """(placed_ops, total_power_w), the replay hot-loop reduction."""
        placed, power, unused, _ = self.kernel.place_summary(
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
        if power_cap_w <= 0.0:
            raise ValueError("power cap must be positive")
        if policy not in ("ep-aware", "pack-to-full"):
            raise ValueError(f"unknown policy {policy!r}")
        low, high = 0.0, self.total_capacity
        best = self.place(policy, 0.0, power_off_unused)
        for _ in range(40):
            mid = 0.5 * (low + high)
            outcome = self.place(policy, mid, power_off_unused)
            if outcome.total_power_w <= power_cap_w and outcome.satisfied():
                best = outcome
                low = mid
            else:
                high = mid
        return best

    # -- job scheduling is out of scope at this tier -----------------------------

    def _no_scheduling(self) -> ValueError:
        return ValueError(
            "the sharded engine answers fleet-level placement summaries "
            "only; job scheduling needs the per-server state of the "
            "columnar engine -- schedule an eager fleet (a list, or "
            "tile_fleet(..., lazy=False)) instead of a lazy view"
        )

    def first_fit_decreasing(self, jobs: Sequence) -> None:
        """Unsupported at this tier; raises ``ValueError``."""
        raise self._no_scheduling()

    def peak_spot_aware(self, jobs: Sequence) -> None:
        """Unsupported at this tier; raises ``ValueError``."""
        raise self._no_scheduling()

    def schedule(self, policy: str, jobs: Sequence) -> None:
        """Unsupported at this tier; raises ``ValueError``."""
        raise self._no_scheduling()

    def schedule_power_w(self, schedule) -> None:
        """Unsupported at this tier; raises ``ValueError``."""
        raise self._no_scheduling()

    # -- replay support ----------------------------------------------------------

    def level_capacity(self) -> float:
        """The scalar replay's fleet capacity, streamed.

        The scalar path sums full-load ``ssj_ops`` from the raw level
        lists in fleet order; here that flat sequence is one base-fleet
        cycle repeated, so the fold runs one seeded accumulate per
        cycle (clones share their base record's level list, making the
        repeated values bitwise identical).
        """
        return streamed_level_capacity(self.base.records, self.count)

    @contextmanager
    def broadcast(self) -> Iterator[Dict]:
        """Publish the layout for pool workers; reclaim on exit.

        Spilled engines hand out their column-file paths (workers
        memmap the same bytes).  In-RAM engines copy each column into
        a ``multiprocessing.shared_memory`` segment; the ``finally``
        closes *and unlinks* every segment, so the session can never
        leak shared memory even if the replay raises mid-window.
        """
        meta = {
            "count": self.count,
            "base_count": len(self.base),
            "shard_size": self.shard_size,
        }
        if self._spill is not None:
            store, key = self._spill
            yield dict(
                meta,
                mode="paths",
                paths={
                    name: str(store.path(key, name))
                    for name in _LAYOUT_NAMES
                },
            )
            return
        blocks, segments = publish_shm_arrays(
            {name: self.kernel.layout[name] for name in _LAYOUT_NAMES}
        )
        try:
            yield dict(meta, mode="shm", blocks=blocks)
        finally:
            for segment in segments:
                try:
                    segment.close()
                except BufferError:  # pragma: no cover - views are local
                    pass
                try:
                    segment.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass


def _pool_round(
    jobs: int,
    pending: Sequence[int],
    descriptor: Dict,
    demands: Sequence[float],
    policy: str,
    power_off_unused: bool,
    injections: Dict[int, bool],
) -> Tuple[Dict[int, Tuple[float, float]], List[Tuple[int, BaseException]], bool]:
    """One process-pool pass over ``pending`` replay steps.

    Returns (completed, worker-raised failures, pool-broke flag);
    steps lost to a broken pool appear in neither list and are
    re-dispatched by the caller -- the same contract as the ensemble
    engine's pool round.
    """
    completed: Dict[int, Tuple[float, float]] = {}
    failed: List[Tuple[int, BaseException]] = []
    broke = False
    try:
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            futures: Dict[Future, int] = {
                pool.submit(
                    _pooled_step,
                    descriptor,
                    demands[index],
                    policy,
                    power_off_unused,
                    injections.get(index, False),
                ): index
                for index in pending
            }
            not_done = set(futures)
            while not_done:
                done, not_done = wait(not_done, timeout=_WAIT_TICK_S)
                for future in done:
                    index = futures[future]
                    try:
                        completed[index] = future.result(timeout=0)
                    except BrokenProcessPool:
                        broke = True
                    except Exception as exc:
                        failed.append((index, exc))
    except BrokenProcessPool:  # pool died while submitting/joining
        broke = True
    return completed, failed, broke


class ShardedTraceReplay:
    """Replay demand traces against a sharded fleet, window by window.

    The drop-in twin of
    :class:`~repro.cluster.batch_trace.BatchTraceReplay` for the
    sharded tier: same ``replay``/``compare_policies`` surface, same
    ``TraceOutcome`` floats (the per-step totals and the energy/served
    accumulators reproduce the scalar folds exactly), but the trace is
    processed in :data:`DEFAULT_WINDOW_STEPS`-step windows so peak
    memory is bounded by the fleet columns plus one window of
    scalars -- never O(N * T) -- and ``jobs > 1`` fans each window's
    steps across a process pool over zero-copy column views.

    Fault handling mirrors the ensemble pool: the ``shard.worker``
    injection site is claimed at dispatch time in step order, each
    step carries a bounded retry budget, one broken-pool restart is
    granted, and after that the remaining steps degrade to serial
    execution under a ``RuntimeWarning``.
    """

    def __init__(
        self,
        fleet,
        shard_size: int = DEFAULT_SHARD_SIZE,
        window_steps: int = DEFAULT_WINDOW_STEPS,
    ):
        if isinstance(fleet, ShardedFleetEngine):
            self.engine = fleet
        else:
            self.engine = ShardedFleetEngine(fleet, shard_size=shard_size)
        if window_steps < 1:
            raise ValueError("window_steps must be positive")
        self.window_steps = int(window_steps)
        self._capacity = self.engine.level_capacity()

    def replay(
        self,
        trace: DemandTrace,
        policy: str = "ep-aware",
        power_off_unused: bool = False,
        jobs: int = 1,
        step_retries: int = 2,
    ) -> TraceOutcome:
        """Sharded ``replay_trace``; identical outcome, bounded memory."""
        if policy not in _POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; choose from {sorted(_POLICIES)}"
            )
        if jobs < 1:
            raise ValueError(
                f"jobs must be >= 1, got {jobs} (1 = serial execution)"
            )
        if step_retries < 0:
            raise ValueError("step_retries must be >= 0")
        step_hours = 24.0 / trace.steps
        fractions = list(trace.demand_fraction)
        energy_wh = 0.0
        served_ops_h = 0.0
        unserved = 0
        for start in range(0, len(fractions), self.window_steps):
            window = fractions[start : start + self.window_steps]
            demands = [fraction * self._capacity for fraction in window]
            if jobs > 1 and len(demands) > 1:
                totals = self._pooled_window(
                    demands, policy, power_off_unused, jobs, step_retries
                )
            else:
                totals = self._serial_window(
                    demands, policy, power_off_unused, step_retries
                )
            # Fold in step order: the scalar replay's accumulation
            # order, regardless of pool scheduling.
            for demand, (placed, total_power) in zip(demands, totals):
                if not placed >= demand * (1.0 - 1e-6):
                    unserved += 1
                energy_wh += total_power * step_hours
                served_ops_h += placed * step_hours
        return TraceOutcome(
            policy=policy,
            energy_kwh=energy_wh / 1000.0,
            served_gops=served_ops_h * 3600.0 / 1e9,
            step_hours=step_hours,
            unserved_steps=unserved,
        )

    def _serial_window(
        self,
        demands: Sequence[float],
        policy: str,
        power_off_unused: bool,
        step_retries: int,
    ) -> List[Tuple[float, float]]:
        plan = active_plan()
        totals: List[Tuple[float, float]] = []
        for demand in demands:
            budget = 1 + step_retries
            while True:
                inject = plan.take("shard.worker") if plan is not None else False
                budget -= 1
                try:
                    if inject:
                        raise TransientError("injected shard.worker fault")
                    totals.append(
                        self.engine.place_totals(
                            policy, demand, power_off_unused
                        )
                    )
                    break
                except Exception:
                    if budget <= 0:
                        raise
        return totals

    def _pooled_window(
        self,
        demands: Sequence[float],
        policy: str,
        power_off_unused: bool,
        jobs: int,
        step_retries: int,
    ) -> List[Tuple[float, float]]:
        plan = active_plan()
        totals: List[Optional[Tuple[float, float]]] = [None] * len(demands)
        budget = {index: 1 + step_retries for index in range(len(demands))}
        restarts = 0
        use_pool = True
        with self.engine.broadcast() as descriptor:
            pending = list(range(len(demands)))
            while pending:
                if not use_pool:
                    serial = self._serial_window(
                        [demands[index] for index in pending],
                        policy,
                        power_off_unused,
                        step_retries,
                    )
                    for index, value in zip(pending, serial):
                        totals[index] = value
                    break
                injections = {
                    index: (
                        plan.take("shard.worker")
                        if plan is not None
                        else False
                    )
                    for index in pending
                }
                completed, failed, broke = _pool_round(
                    jobs,
                    pending,
                    descriptor,
                    demands,
                    policy,
                    power_off_unused,
                    injections,
                )
                for index, value in completed.items():
                    totals[index] = value
                for index, error in failed:
                    budget[index] -= 1
                    if budget[index] <= 0:
                        raise error
                if broke:
                    restarts += 1
                    if restarts > 1:
                        warnings.warn(
                            "sharded replay process pool broke "
                            f"{restarts} time(s); degrading the remaining "
                            "steps to serial execution",
                            RuntimeWarning,
                            stacklevel=3,
                        )
                        use_pool = False
                pending = [
                    index
                    for index in range(len(demands))
                    if totals[index] is None
                ]
        return [total for total in totals if total is not None]

    def compare_policies(
        self,
        trace: Optional[DemandTrace] = None,
        power_off_unused: bool = False,
        jobs: int = 1,
    ) -> Dict[str, TraceOutcome]:
        """Sharded ``compare_policies``; identical outcome dict."""
        if trace is None:
            trace = diurnal_trace(noise=0.0)
        return {
            policy: self.replay(
                trace, policy, power_off_unused, jobs=jobs
            )
            for policy in _POLICIES
        }
