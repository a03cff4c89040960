"""Tests for the sharded, shared-memory, out-of-core fleet tier.

The contract is the same bit-identity bar the columnar engines are
held to: on overlapping scales the sharded summaries must equal the
columnar reductions float for float (same sequential sum order, same
int-vs-float zero types), with no tolerances anywhere in this file.
On top of that this suite pins the tier's own surface: the lazy
``TiledFleetView``, the eager-tiling memory budget, and the column
spill store.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.cluster.batch_placement import BatchPlacementEngine
from repro.cluster.batch_trace import BatchTraceReplay
from repro.cluster.engines import (
    SHARDED_THRESHOLD,
    fleet_engine,
    trace_replayer,
)
from repro.cluster.fleet_arrays import (
    LAZY_TILE_THRESHOLD,
    FleetArrays,
    TiledFleetView,
    _interp_rows,
    tile_fleet,
)
from repro.cluster.reference import _utilization_for
from repro.cluster.sharded import (
    ShardedFleetEngine,
    ShardedTraceReplay,
    _fold_continue,
    streamed_level_capacity,
)
from repro.cluster.trace import diurnal_trace
from repro.dataset.columns import ColumnSpillStore


@pytest.fixture(scope="module")
def base(corpus):
    return list(corpus.by_hw_year_range(2013, 2016))


@pytest.fixture(scope="module")
def view10k(base):
    return tile_fleet(base, 10_000, lazy=True)


@pytest.fixture(scope="module")
def columnar(view10k):
    return BatchPlacementEngine(list(view10k))


@pytest.fixture(scope="module")
def sharded(view10k):
    # Several shards, so carry continuation across boundaries is live.
    return ShardedFleetEngine(view10k, shard_size=4096)


@pytest.fixture(scope="module")
def capacity(view10k):
    return sum(
        level.ssj_ops
        for server in view10k
        for level in server.levels
        if level.target_load == 1.0
    )


def _summary_key(outcome):
    """Every observable scalar of a placement outcome, types included."""
    return (
        outcome.policy,
        outcome.demand_ops,
        outcome.placed_ops,
        type(outcome.placed_ops),
        outcome.total_power_w,
        type(outcome.total_power_w),
        outcome.unused_idle_power_w,
        outcome.servers_used,
        outcome.fleet_efficiency,
        outcome.satisfied(),
    )


FRACTIONS = [0.0, 0.03, 0.25, 0.6, 0.85, 1.0, 1.2]


class TestPlacementParity:
    @pytest.mark.parametrize("policy", ["pack-to-full", "ep-aware"])
    @pytest.mark.parametrize("power_off", [False, True])
    def test_summaries_match_columnar_at_10k(
        self, columnar, sharded, capacity, policy, power_off
    ):
        for fraction in FRACTIONS:
            demand = fraction * capacity
            ours = sharded.place(policy, demand, power_off)
            theirs = columnar.place(policy, demand, power_off)
            assert _summary_key(ours) == _summary_key(theirs)

    @pytest.mark.parametrize("policy", ["pack-to-full", "ep-aware"])
    def test_place_totals_match_columnar(
        self, columnar, sharded, capacity, policy
    ):
        for fraction in FRACTIONS:
            demand = fraction * capacity
            assert sharded.place_totals(policy, demand) == (
                columnar.place_totals(policy, demand)
            )

    @pytest.mark.parametrize("policy", ["pack-to-full", "ep-aware"])
    def test_cap_search_matches_columnar(
        self, columnar, sharded, capacity, policy
    ):
        idle_w = columnar.place(policy, 0.0).total_power_w
        full_w = columnar.place(policy, capacity).total_power_w
        # Under the zero-demand idle power, three interior caps, and
        # over full-load power; with and without powering idle
        # servers off.
        for cap_w in (0.5 * idle_w, 5e4, 2e5, 1e6, 2.0 * full_w):
            for power_off in (False, True):
                ours = sharded.max_throughput_under_cap(
                    cap_w, policy, power_off
                )
                theirs = columnar.max_throughput_under_cap(
                    cap_w, policy, power_off
                )
                assert _summary_key(ours) == _summary_key(theirs)
        # No probe fits under the idle power: the demand-0 outcome,
        # int zeros included.
        starved = sharded.max_throughput_under_cap(0.5 * idle_w, policy)
        assert starved.demand_ops == 0.0
        assert starved.placed_ops == 0 and type(starved.placed_ops) is int
        roomy = sharded.max_throughput_under_cap(2.0 * full_w, policy)
        assert roomy.satisfied() and roomy.demand_ops > 0.999 * capacity

    def test_negative_demand_raises(self, sharded):
        with pytest.raises(ValueError, match="negative"):
            sharded.place("ep-aware", -1.0)

    def test_unknown_policy_raises(self, sharded):
        with pytest.raises(ValueError, match="unknown policy"):
            sharded.place("round-robin", 100.0)

    def test_nonpositive_cap_raises(self, sharded):
        with pytest.raises(ValueError, match="positive"):
            sharded.max_throughput_under_cap(0.0)

    def test_zero_demand_zeros_are_ints(self, sharded):
        """The scalar paths return int 0 sums for an empty placement."""
        outcome = sharded.place("ep-aware", 0.0)
        assert outcome.placed_ops == 0 and type(outcome.placed_ops) is int
        assert outcome.servers_used == 0


class TestReplayParity:
    @pytest.fixture(scope="class")
    def small_view(self, base):
        return tile_fleet(base, 2000, lazy=True)

    @pytest.fixture(scope="class")
    def batch_replay(self, small_view):
        return BatchTraceReplay(BatchPlacementEngine(list(small_view)))

    @pytest.fixture(scope="class")
    def shard_replay(self, small_view):
        # A deliberately awkward shard size: the uneven remainder
        # exercises the carry paths.
        engine = ShardedFleetEngine(small_view, shard_size=512)
        return ShardedTraceReplay(engine)

    @pytest.mark.parametrize("policy", ["pack-to-full", "ep-aware"])
    @pytest.mark.parametrize("power_off", [False, True])
    def test_outcome_matches_columnar(
        self, batch_replay, shard_replay, policy, power_off
    ):
        trace = diurnal_trace(steps_per_day=96, noise=0.05, seed=7)
        assert shard_replay.replay(trace, policy, power_off) == (
            batch_replay.replay(trace, policy, power_off)
        )

    def test_compare_policies_matches_columnar(
        self, batch_replay, shard_replay
    ):
        ours = shard_replay.compare_policies()
        theirs = batch_replay.compare_policies()
        assert ours == theirs
        assert list(ours) == list(theirs)

    def test_unknown_policy_raises(self, shard_replay):
        with pytest.raises(ValueError, match="unknown policy"):
            shard_replay.replay(diurnal_trace(noise=0.0), "noop")


class TestSpill:
    def test_spilled_engine_matches_in_ram(self, base, tmp_path, capacity):
        view = tile_fleet(base, 1500, lazy=True)
        store = ColumnSpillStore(tmp_path)
        spilled = ShardedFleetEngine(
            view, shard_size=640, spill=True, spill_store=store
        )
        in_ram = ShardedFleetEngine(view, shard_size=640, spill=False)
        assert spilled.spilled and not in_ram.spilled
        for fraction in (0.0, 0.4, 0.9, 1.1):
            demand = fraction * capacity / 10_000 * 1500
            for policy in ("pack-to-full", "ep-aware"):
                assert _summary_key(
                    spilled.place(policy, demand, True)
                ) == _summary_key(in_ram.place(policy, demand, True))

    def test_spill_files_are_reused(self, base, tmp_path):
        view = tile_fleet(base, 800, lazy=True)
        store = ColumnSpillStore(tmp_path)
        ShardedFleetEngine(view, spill=True, spill_store=store)
        files = sorted(p.name for p in tmp_path.rglob("*.npy"))
        assert files
        stamps = {p: p.stat().st_mtime_ns for p in tmp_path.rglob("*.npy")}
        ShardedFleetEngine(view, spill=True, spill_store=store)
        assert {
            p: p.stat().st_mtime_ns for p in tmp_path.rglob("*.npy")
        } == stamps

    @pytest.mark.skipif(
        not Path("/proc/self/smaps").exists(), reason="needs /proc/self/smaps"
    )
    def test_queries_leave_at_most_one_shard_per_column_mapped(
        self, base, tmp_path
    ):
        shard_size = 1024
        engine = ShardedFleetEngine(
            tile_fleet(base, 40_000, lazy=True),
            shard_size=shard_size,
            spill=True,
            spill_store=ColumnSpillStore(tmp_path),
        )
        for policy in ("pack-to-full", "ep-aware"):
            for fraction in (0.0, 0.3, 0.9, 1.2):
                engine.place(policy, fraction * engine.total_capacity)
        ShardedTraceReplay(engine).replay(diurnal_trace(steps_per_day=24, noise=0.0))
        one_shard_each = len(engine.layout) * shard_size * 8
        assert _mapped_rss_bytes(tmp_path.resolve()) <= one_shard_each

    def test_store_round_trip_and_clear(self, tmp_path):
        store = ColumnSpillStore(tmp_path)
        values = np.arange(12.0).reshape(3, 4)
        store.save("k", "col", values)
        assert store.has("k", "col")
        loaded = store.load("k", "col")
        assert isinstance(loaded, np.memmap)
        np.testing.assert_array_equal(np.asarray(loaded), values)
        eager = store.load("k", "col", mmap=False)
        assert not isinstance(eager, np.memmap)


def _mapped_rss_bytes(root: Path) -> int:
    """Resident bytes of this process' mappings of files under ``root``."""
    total, inside = 0, False
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            fields = line.split(maxsplit=5)
            if not fields[0].endswith(":"):  # a mapping's header line
                inside = len(fields) == 6 and fields[5].startswith(str(root))
            elif inside and fields[0] == "Rss:":
                total += int(fields[1]) * 1024
    return total


class TestTiledFleetView:
    def test_first_cycle_is_the_base_records(self, base):
        view = TiledFleetView(base, len(base) + 5)
        for i in range(len(base)):
            assert view[i] is base[i]

    def test_clone_ids_and_shared_levels(self, base):
        view = TiledFleetView(base, 3 * len(base))
        clone = view[len(base)]
        assert clone.result_id == f"{base[0].result_id}~1"
        assert clone.levels is base[0].levels
        assert view[2 * len(base) + 3].result_id == f"{base[3].result_id}~2"

    def test_matches_eager_tiling_exactly(self, base):
        count = len(base) + 37
        eager = tile_fleet(base, count, lazy=False)
        view = tile_fleet(base, count, lazy=True)
        assert isinstance(view, TiledFleetView)
        assert len(view) == count
        assert [r.result_id for r in view] == [r.result_id for r in eager]
        assert [r.result_id for r in view[10:30:3]] == [
            r.result_id for r in eager[10:30:3]
        ]

    def test_negative_indexing(self, base):
        view = TiledFleetView(base, 100)
        assert view[-1].result_id == view[99].result_id

    def test_index_errors(self, base):
        view = TiledFleetView(base, 10)
        with pytest.raises(IndexError):
            view[10]
        with pytest.raises(IndexError):
            view[-11]
        with pytest.raises(TypeError, match="integers or slices"):
            view["0"]
        with pytest.raises(TypeError, match="integers or slices"):
            view[True]

    def test_repr_mentions_scale(self, base):
        assert "10 servers" in repr(TiledFleetView(base, 10))


class TestTileFleetValidation:
    def test_empty_fleet_raises(self):
        with pytest.raises(ValueError, match="empty"):
            tile_fleet([], 10)

    def test_nonpositive_count_raises(self, base):
        with pytest.raises(ValueError, match="positive"):
            tile_fleet(base, 0)
        with pytest.raises(ValueError, match="positive"):
            tile_fleet(base, -3)

    def test_non_int_count_raises(self, base):
        with pytest.raises(TypeError, match="int"):
            tile_fleet(base, 10.0)
        with pytest.raises(TypeError, match="int"):
            tile_fleet(base, True)

    def test_default_goes_lazy_at_threshold(self, base):
        assert isinstance(
            tile_fleet(base, LAZY_TILE_THRESHOLD), TiledFleetView
        )
        assert isinstance(tile_fleet(base, 100), list)

    def test_eager_budget_is_enforced(self, base):
        with pytest.raises(ValueError, match="sharded"):
            tile_fleet(base, 50_000, lazy=False, budget_bytes=1024)

    def test_budget_env_override(self, base, monkeypatch):
        monkeypatch.setenv("REPRO_TILE_BUDGET_BYTES", "512")
        with pytest.raises(ValueError, match="REPRO_TILE_BUDGET_BYTES"):
            tile_fleet(base, 50_000, lazy=False)


class TestSequentialFolds:
    def test_fold_continue_equals_python_sum(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(0.0, 1e6, size=1000)
        total = 0.0
        for value in values:
            total = total + value
        carry = 0.0
        for start in (0, 17, 333, 334, 999, 1000):
            stop = min(1000, start + 350)
            carry = _fold_continue(carry, values[start:stop])
        chunked = 0.0
        edges = [0, 17, 350, 367, 684, 700, 1000]
        for lo, hi in zip(edges, edges[1:]):
            chunked = _fold_continue(chunked, values[lo:hi])
        assert chunked == total

    def test_streamed_level_capacity_matches_scalar_sum(self, base):
        for count in (1, len(base), 3 * len(base) + 7):
            fleet = tile_fleet(base, count, lazy=True)
            scalar = sum(
                level.ssj_ops
                for server in fleet
                for level in server.levels
                if level.target_load == 1.0
            )
            assert streamed_level_capacity(base, count) == scalar


class TestBackendRouting:
    def test_explicit_sharded_backend(self, base):
        # Below the routing threshold the sharded engine is still
        # constructible directly (the parity tests rely on it).
        engine = ShardedFleetEngine(tile_fleet(base, 300, lazy=True))
        assert isinstance(engine, ShardedFleetEngine) and len(engine) == 300

    def test_auto_keeps_columnar_for_small_views(self, view10k):
        assert isinstance(fleet_engine(view10k), BatchPlacementEngine)

    def test_auto_goes_sharded_for_large_views(self, base):
        view = tile_fleet(base, SHARDED_THRESHOLD, lazy=True)
        assert isinstance(fleet_engine(view), ShardedFleetEngine)

    def test_trace_backend_types(self, base):
        view = tile_fleet(base, 300, lazy=True)
        assert isinstance(
            trace_replayer(ShardedFleetEngine(view)), ShardedTraceReplay
        )
        assert isinstance(trace_replayer(fleet_engine(view)), BatchTraceReplay)
        assert isinstance(trace_replayer(fleet_engine(base[:5])), BatchTraceReplay)
        with pytest.raises(ValueError, match="empty|heterogeneous|duplicate"):
            trace_replayer(fleet_engine([]))


class TestSchedulerStubs:
    def test_all_scheduler_entry_points_raise(self, sharded):
        with pytest.raises(ValueError, match="columnar"):
            sharded.schedule("first-fit", [])


class TestUtilizationForGuards:
    """Satellite: guard-resolved rows are masked before the bisection."""

    def test_matches_scalar_bisection_everywhere(self, base):
        arrays = FleetArrays.from_records(base[:40])
        targets = []
        for record in arrays.records:
            cap = record.levels[-1].ssj_ops
            targets.append(cap * 0.37)
        batch = arrays.utilization_for(np.array(targets))
        for i, record in enumerate(arrays.records):
            assert batch[i] == _utilization_for(record, targets[i])

    def test_guard_values(self, base):
        arrays = FleetArrays.from_records(base[:8])
        caps = arrays.full_capacity
        assert np.all(arrays.utilization_for(0.0) == 0.0)
        assert np.all(arrays.utilization_for(-5.0) == 0.0)
        assert np.all(arrays.utilization_for(caps) == 1.0)
        assert np.all(arrays.utilization_for(caps * 2.0) == 1.0)

    def test_mixed_guard_and_open_rows(self, base):
        arrays = FleetArrays.from_records(base[:6])
        caps = arrays.full_capacity
        targets = np.array(
            [0.0, -1.0, caps[2] * 2.0, caps[3] * 0.5, caps[4], caps[5] * 0.9]
        )
        batch = arrays.utilization_for(targets)
        for i, record in enumerate(arrays.records):
            assert batch[i] == _utilization_for(record, float(targets[i]))


class TestInterpRowsMatrix:
    """Satellite: (M, T) queries equal per-row np.interp, bitwise."""

    def _table(self, base, m):
        arrays = FleetArrays.from_records(base[:m])
        return arrays.load_grid, arrays.ops

    def test_random_matrix_queries(self, base):
        grid, table = self._table(base, 25)
        # Queries live on the kernel's domain u >= grid[0] = 0.0 (the
        # callers clamp utilization); below it np.interp holds the left
        # endpoint while the kernel extrapolates the first segment.
        rng = np.random.default_rng(3)
        queries = rng.uniform(0.0, 1.4, size=(table.shape[0], 50))
        batch = _interp_rows(grid, table, queries)
        for i in range(table.shape[0]):
            expected = np.interp(queries[i], grid, table[i])
            assert np.array_equal(batch[i], expected)

    def test_right_endpoint_exact(self, base):
        """At and beyond grid[-1] the endpoint is returned verbatim."""
        grid, table = self._table(base, 25)
        queries = np.full((table.shape[0], 3), grid[-1])
        queries[:, 1] = grid[-1] * 1.5
        queries[:, 2] = 1e9
        batch = _interp_rows(grid, table, queries)
        for j in range(3):
            assert np.array_equal(batch[:, j], table[:, -1])

    def test_vector_and_scalar_shapes_agree_with_matrix(self, base):
        grid, table = self._table(base, 12)
        rng = np.random.default_rng(5)
        queries = rng.uniform(0.0, 1.1, size=table.shape[0])
        as_vector = _interp_rows(grid, table, queries)
        as_matrix = _interp_rows(grid, table, queries[:, None])
        assert np.array_equal(as_vector, as_matrix[:, 0])
        scalar = _interp_rows(grid, table, 0.5)
        matrix = _interp_rows(
            grid, table, np.full((table.shape[0], 1), 0.5)
        )
        assert np.array_equal(scalar, matrix[:, 0])

    def test_grid_knots_are_exact(self, base):
        grid, table = self._table(base, 12)
        queries = np.broadcast_to(grid, (table.shape[0], grid.size)).copy()
        batch = _interp_rows(grid, table, queries)
        assert np.array_equal(batch, table)
