"""Tests for the sharded fleet tier, whose columns derive from the base.

The contract is the same bit-identity bar the columnar engines are
held to: on overlapping scales the sharded summaries must equal the
columnar reductions float for float (same sequential sum order, same
int-vs-float zero types), with no tolerances anywhere in this file.
On top of that this suite pins the tier's own surface: every derived
shard against a fully materialized layout, the replay's memory bound,
the lazy ``TiledFleetView`` and the eager-tiling memory budget.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    DEFAULT_SHARD_SIZE,
    ShardedFleetEngine,
    ShardedTraceReplay,
    _Ranking,
    streamed_level_capacity,
)
from repro.cluster.trace import diurnal_trace
from repro.dataset.schema import LoadLevel, SpecPowerResult
from repro.power.microarch import Codename


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


def _record(result_id, kind, scale=1.0):
    """A one-node result whose curve ``kind`` picks its placement edge.

    ``linear`` peaks in efficiency at full load (zero headroom),
    ``convex`` peaks mid-curve, and ``zero`` / ``negzero`` serve no
    ops at all (zero spot capacity, keys of +0.0 / -0.0); ``scale``
    multiplies the throughput, so equal kinds tie only at equal scale.
    """
    loads = [round(0.1 * i, 1) for i in range(1, 11)]
    max_ops = {"zero": 0.0, "negzero": -0.0}.get(kind, 9000.0 * scale)
    power = {
        "convex": lambda u: 200.0 * (0.3 + 0.7 * u * u),
    }.get(kind, lambda u: 150.0 * (0.4 + 0.6 * u))
    levels = [
        LoadLevel(target_load=u, ssj_ops=max_ops * u, average_power_w=power(u))
        for u in loads
    ]
    return SpecPowerResult(
        result_id=result_id,
        vendor="Acme",
        model="AS-1",
        form_factor="2U",
        hw_year=2016,
        published_year=2016,
        codename=Codename.HASWELL,
        nodes=1,
        chips_per_node=2,
        cores_per_chip=12,
        memory_gb=64.0,
        levels=levels,
        active_idle_power_w=power(0.0),
    )


def _materialized(view):
    """Every derived column at full length, by sorting the tiled keys.

    The oracle the engine's closed form must reproduce: a stable
    argsort of the negated key over the whole tiled fleet, as the
    columnar engine ranks servers.
    """
    base = FleetArrays.from_records(view.base)
    count = len(view)
    spot_util = base.utilization_for(base.spot_capacity)
    full_util = base.utilization_for(base.full_capacity)
    headroom = base.full_capacity - base.spot_capacity
    hprime = np.where(headroom > 0.0, headroom, 0.0)
    topped_take = base.spot_capacity + hprime
    topped_util = base.utilization_for(topped_take)
    pack = np.argsort(-np.resize(base.full_load_ee, count), kind="stable")
    ep = np.argsort(-np.resize(base.peak_ee, count), kind="stable")

    def ranked(perm, values):
        return np.resize(values, count)[perm]

    def flags(util):
        return (util > 0.0).astype(np.float64)

    columns = {
        "caps_pack": ranked(pack, base.full_capacity),
        "fullpow_pack": ranked(pack, base.power_at(full_util)),
        "idle_pack": ranked(pack, base.idle_power_w),
        "used_pack": ranked(pack, flags(full_util)),
        "spotcap_ep": ranked(ep, base.spot_capacity),
        "spotpow_ep": ranked(ep, base.power_at(spot_util)),
        "used_spot_ep": ranked(ep, flags(spot_util)),
        "hprime_ep": ranked(ep, hprime),
        "topped_take_ep": ranked(ep, topped_take),
        "topped_pow_ep": ranked(ep, base.power_at(topped_util)),
        "used_topped_ep": ranked(ep, flags(topped_util)),
        "idle_fleet": np.resize(base.idle_power_w, count),
    }
    return columns, pack, ep


def _bits(value):
    return np.asarray(value, dtype=np.float64).tobytes()


KINDS = ["linear", "convex", "zero", "negzero"]


@st.composite
def tiled_fleets(draw):
    """(view, shard size): ties, zero rows and partial tiles on purpose."""
    curves = st.tuples(st.sampled_from(KINDS), st.sampled_from([1.0, 2.0]))
    palette = draw(st.lists(curves, min_size=1, max_size=8))
    picks = draw(st.lists(st.sampled_from(palette), min_size=1, max_size=9))
    base = [_record(f"r{i}", *curve) for i, curve in enumerate(picks)]
    count = draw(st.integers(1, 5 * len(base) + 3))
    shard_size = draw(st.integers(1, count + 2))
    return TiledFleetView(base, count), shard_size


def _fleet(kinds, count, shard_size):
    base = [_record(f"r{i}", kind) for i, kind in enumerate(kinds)]
    return TiledFleetView(base, count), shard_size


EDGE_CASES = [
    # A partial last tile over tied rows, with shards that do not divide it.
    _fleet(["convex", "linear", "convex", "zero"], 11, 3),
    # count == len(base), every kind once.
    _fleet(KINDS, 4, 4),
    # +0.0 and -0.0 keys tie across distinct records.
    _fleet(["negzero", "zero", "negzero", "linear"], 9, 2),
]


class TestDerivedLayout:
    """The closed-form layout equals the materialized one, shard by shard."""

    @settings(max_examples=60, deadline=None)
    @given(tiled_fleets())
    @example(EDGE_CASES[0])
    @example(EDGE_CASES[1])
    @example(EDGE_CASES[2])
    def test_shards_prefixes_and_folds_match_the_oracle(self, case):
        view, shard_size = case
        engine = ShardedFleetEngine(view, shard_size=shard_size)
        columns, pack, ep = _materialized(view)
        count = len(view)
        for name, column in columns.items():
            for begin in range(0, count, shard_size):
                end = min(begin + shard_size, count)
                assert _bits(engine._read(name, begin, end)) == _bits(
                    column[begin:end]
                ), name
            if name not in engine._carries:
                continue
            running = np.add.accumulate(column)
            for index in range(count + 1):
                expected = running[index - 1] if index else 0.0
                assert _bits(engine._prefix(name, index)) == _bits(expected)
        size = len(view.base)
        assert [engine._pack.base_row(i) for i in range(count)] == (
            pack % size
        ).tolist()
        assert [engine._ep.base_row(i) for i in range(count)] == (
            ep % size
        ).tolist()
        rank = np.empty(count, dtype=np.int64)
        rank[ep] = np.arange(count)
        for crossing in range(count):
            masked = np.where(rank > crossing, columns["idle_fleet"], 0.0)
            expected = np.add.accumulate(np.concatenate(([0.0], masked)))[-1]
            assert _bits(engine._masked_idle_fold(crossing)) == _bits(expected)
        capacities = FleetArrays.from_records(view.base).full_capacity
        assert _bits(engine.total_capacity) == _bits(
            np.add.accumulate(np.resize(capacities, count))[-1]
        )

    @settings(max_examples=60, deadline=None)
    @given(tiled_fleets())
    @example(EDGE_CASES[0])
    @example(EDGE_CASES[1])
    @example(EDGE_CASES[2])
    def test_place_totals_match_columnar(self, case):
        view, shard_size = case
        engine = ShardedFleetEngine(view, shard_size=shard_size)
        columnar = BatchPlacementEngine(list(view))
        capacity = max(engine.total_capacity, 1.0)
        for policy in ("pack-to-full", "ep-aware"):
            for fraction in (0.0, 0.2, 0.5, 0.8, 1.0, 1.4):
                for power_off in (False, True):
                    demand = fraction * capacity
                    assert engine.place_totals(policy, demand, power_off) == (
                        columnar.place_totals(policy, demand, power_off)
                    )


class TestRanking:
    def test_closed_form_matches_argsort_on_raw_keys(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            size = int(rng.integers(1, 9))
            key = rng.choice([0.0, -0.0, 1.5, 2.5, np.nan], size=size)
            count = int(rng.integers(1, 5 * key.size + 3))
            perm = np.argsort(-np.resize(key, count), kind="stable")
            ranking = _Ranking(key, count)
            rows = [ranking.base_row(index) for index in range(count)]
            assert rows == (perm % key.size).tolist()


def _state_sizes(value, path="engine"):
    """path -> length of every array, list and tuple an engine holds."""
    sizes = {}
    if isinstance(value, np.ndarray):
        sizes[path] = value.size
    elif isinstance(value, (list, tuple)):
        sizes[path] = len(value)
    elif isinstance(value, dict):
        for key, item in value.items():
            sizes.update(_state_sizes(item, f"{path}[{key!r}]"))
    elif type(value).__module__.startswith("repro.cluster"):
        for key, item in vars(value).items():
            sizes.update(_state_sizes(item, f"{path}.{key}"))
    return sizes


class TestMemoryBound:
    def test_engine_state_does_not_grow_with_the_fleet(self, corpus):
        """Only the per-shard carries grow with the server count."""
        base = corpus.by_hw_year(2016).results()
        small, large = (
            _state_sizes(ShardedFleetEngine(tile_fleet(base, n, lazy=True)))
            for n in (300_000, 1_000_000)
        )
        assert small.keys() == large.keys()
        shards = -(-1_000_000 // DEFAULT_SHARD_SIZE)
        for path, size in large.items():
            carries = path.startswith("engine._carries")
            assert size == (shards if carries else small[path]), path

    def test_replay_peak_does_not_grow_with_the_fleet(self, corpus):
        """Building the engine and a 24-step replay trace a few shards."""
        base = corpus.by_hw_year(2016).results()
        trace = diurnal_trace(steps_per_day=24, noise=0.0)

        def traced_peak(count):
            tracemalloc.start()
            try:
                fleet = tile_fleet(base, count, lazy=True)
                ShardedTraceReplay(fleet).replay(trace, "ep-aware")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        at_300k, at_1m = traced_peak(300_000), traced_peak(1_000_000)
        assert at_1m < 4 * DEFAULT_SHARD_SIZE * 8
        assert abs(at_1m - at_300k) <= 1024 * 1024


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
    def test_shard_folds_equal_python_sum(self, base):
        fleet = tile_fleet(base, 1000, lazy=True)
        engine = ShardedFleetEngine(fleet, shard_size=350)
        values = engine._read("spotcap_ep", 0, 1000)
        total = 0.0
        for value in values.tolist():
            total = total + value
        # Uneven slices: each fold continues the one before it.
        chunked = 0.0
        edges = [0, 17, 350, 367, 684, 700, 1000]
        for lo, hi in zip(edges, edges[1:]):
            chunked = engine._fold_slice("spotcap_ep", lo, hi, chunked)
        assert chunked == total
        assert engine._prefix("spotcap_ep", 1000) == total

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
