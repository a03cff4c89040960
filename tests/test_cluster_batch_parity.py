"""Bit-identity tests for the columnar fleet engines.

The contract (same as the batch SSJ engine's parity suite): the scalar
loops in ``cluster/reference.py`` are the reference, and the columnar
engine must reproduce every output object *exactly* -- same floats,
same ordering, same dict insertion order -- on the seed corpus fleet.
No tolerances anywhere in this file.  Each pair calls the private
scalar loop and a directly built engine, so the comparison does not
depend on which engine ``fleet_engine`` picks.
"""

import json
import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.api.dispatch import _outcome_payload
from repro.cluster.batch_placement import _ROW_KERNEL_MAX, BatchPlacementEngine
from repro.cluster.batch_trace import BatchTraceReplay
from repro.cluster.engines import fleet_engine, trace_replayer
from repro.cluster.fleet_arrays import FleetArrays, tile_fleet
from repro.cluster.jobs import (
    FirstFitDecreasing,
    Job,
    PeakSpotAware,
    Schedule,
    compare_schedulers,
    synthesize_jobs,
)
from repro.cluster.placement import (
    POLICIES,
    ep_aware_placement,
    max_throughput_under_cap,
    pack_to_full_placement,
)
from repro.cluster.reference import (
    _POLICY_LOOPS,
    _SCHEDULER_LOOPS,
    _ep_aware_scalar,
    _max_throughput_under_cap_scalar,
    _pack_to_full_scalar,
    _replay_scalar,
    _utilization_for,
)
from repro.cluster.regions import power_at, throughput_at
from repro.cluster.trace import (
    compare_policies,
    daily_saving,
    diurnal_trace,
    replay_trace,
)
from repro.dataset.schema import LoadLevel, SpecPowerResult
from repro.power.microarch import Codename


@pytest.fixture(scope="module")
def fleet(corpus):
    return list(corpus.by_hw_year_range(2013, 2016))


@pytest.fixture(scope="module")
def arrays(fleet):
    return FleetArrays.from_records(fleet)


@pytest.fixture(scope="module")
def engine(fleet):
    return BatchPlacementEngine(fleet)


@pytest.fixture(scope="module")
def capacity(fleet):
    return sum(
        level.ssj_ops
        for server in fleet
        for level in server.levels
        if level.target_load == 1.0
    )


def _placement_key(outcome):
    """Every observable float and ordering of a PlacementOutcome."""
    return (
        outcome.policy,
        outcome.demand_ops,
        outcome.unused_idle_power_w,
        [
            (a.server.result_id, a.utilization, a.throughput_ops, a.power_w)
            for a in outcome.assignments
        ],
    )


def _server(result_id="z1", max_ops=10000.0, idle=0.3, peak_w=200.0, loads=None):
    loads = loads or [round(0.1 * i, 1) for i in range(1, 11)]
    levels = [
        LoadLevel(
            target_load=u,
            ssj_ops=max_ops * u,
            average_power_w=peak_w * (idle + (1 - idle) * u),
        )
        for u in loads
    ]
    return SpecPowerResult(
        result_id=result_id,
        vendor="Acme",
        model="AS-1",
        form_factor="2U",
        hw_year=2014,
        published_year=2015,
        codename=Codename.HASWELL,
        nodes=1,
        chips_per_node=2,
        cores_per_chip=12,
        memory_gb=48.0,
        levels=levels,
        active_idle_power_w=peak_w * idle,
    )


class TestFleetArrays:
    def test_stable_id_order(self, fleet, arrays):
        assert arrays.ids == tuple(r.result_id for r in fleet)
        assert len(arrays) == len(fleet)

    def test_duplicate_ids_raise(self, fleet):
        with pytest.raises(ValueError, match="duplicate"):
            FleetArrays.from_records([fleet[0], fleet[0]])

    def test_heterogeneous_grids_raise(self):
        a = _server("a")
        b = _server("b", loads=[0.25, 0.5, 0.75, 1.0])
        with pytest.raises(ValueError, match="heterogeneous"):
            FleetArrays.from_records([a, b])

    def test_empty_fleet_raises(self):
        with pytest.raises(ValueError, match="empty"):
            FleetArrays.from_records([])

    def test_arrays_write_protected(self, arrays):
        protected = (
            arrays.power,
            arrays.ops,
            arrays.load_grid,
            arrays.ep,
            arrays.score,
            arrays.peak_ee,
            arrays.idle_power_w,
            arrays.full_capacity,
            arrays.spot_capacity,
        )
        for array in protected:
            with pytest.raises(ValueError):
                array[..., :1] = 0.0

    def test_metric_vectors_gathered_from_records(self, fleet, arrays):
        assert arrays.ep.tolist() == [r.ep for r in fleet]
        assert arrays.score.tolist() == [r.overall_score for r in fleet]
        assert arrays.peak_ee.tolist() == [r.peak_ee for r in fleet]
        assert arrays.primary_peak_spot.tolist() == [
            r.primary_peak_spot for r in fleet
        ]

    @pytest.mark.parametrize("u", [0.0, 0.05, 1.0 / 3.0, 0.6, 0.77, 1.0])
    def test_power_and_throughput_match_scalar(self, fleet, arrays, u):
        powers = arrays.power_at(u)
        ops = arrays.throughput_at(u)
        for row, server in enumerate(fleet):
            assert powers[row] == power_at(server, u)
            assert ops[row] == throughput_at(server, u)

    def test_per_row_queries_match_scalar(self, fleet, arrays):
        rng = np.random.default_rng(3)
        u = rng.uniform(0.0, 1.0, size=len(fleet))
        powers = arrays.power_at(u)
        for row, server in enumerate(fleet):
            assert powers[row] == power_at(server, float(u[row]))

    def test_matrix_broadcast_matches_columns(self, arrays):
        rng = np.random.default_rng(4)
        u = rng.uniform(0.0, 1.0, size=(len(arrays), 7))
        full = arrays.power_at(u)
        for t in range(7):
            np.testing.assert_array_equal(full[:, t], arrays.power_at(u[:, t]))

    def test_utilization_for_matches_scalar(self, fleet, arrays):
        caps = arrays.full_capacity
        for fraction in (0.0, 0.1, 0.33, 0.7, 1.0, 1.5):
            utils = arrays.utilization_for(caps * fraction)
            for row, server in enumerate(fleet):
                assert utils[row] == _utilization_for(
                    server, float(caps[row] * fraction)
                )

    def test_from_fleet_passthrough(self, arrays):
        assert FleetArrays.from_fleet(arrays) is arrays

    def test_from_fleet_corpus_shares_column_store(self, corpus):
        built = FleetArrays.from_fleet(corpus)
        columns = corpus.columns()
        assert built.power is columns.power_matrix()
        assert built.ops is columns.ops_matrix()
        assert built.load_grid is columns.load_grid()


class TestTileFleet:
    def test_cycles_and_unique_ids(self, fleet):
        tiled = tile_fleet(fleet, 3 * len(fleet) + 5)
        assert len(tiled) == 3 * len(fleet) + 5
        assert len({r.result_id for r in tiled}) == len(tiled)
        assert tiled[: len(fleet)] == fleet
        clone = tiled[len(fleet)]
        assert clone.result_id == f"{fleet[0].result_id}~1"

    def test_clones_share_levels_and_metric_cache(self, fleet):
        tiled = tile_fleet(fleet, len(fleet) + 1)
        clone = tiled[len(fleet)]
        assert clone.levels is fleet[0].levels
        assert clone.ep == fleet[0].ep

    def test_validation(self, fleet):
        with pytest.raises(ValueError):
            tile_fleet([], 5)
        with pytest.raises(ValueError):
            tile_fleet(fleet, 0)


#: public entry point -> (scalar reference loop, engine method name)
_PLACEMENT_TWINS = {
    pack_to_full_placement: (_pack_to_full_scalar, "pack_to_full"),
    ep_aware_placement: (_ep_aware_scalar, "ep_aware"),
}


class TestPlacementParity:
    @pytest.mark.parametrize("fraction", [0.0, 0.25, 0.5, 0.85, 1.0, 1.2])
    @pytest.mark.parametrize("power_off", [False, True])
    @pytest.mark.parametrize(
        "place", [pack_to_full_placement, ep_aware_placement]
    )
    def test_bit_identical_outcomes(
        self, fleet, engine, capacity, fraction, power_off, place
    ):
        demand = fraction * capacity
        scalar_loop, method = _PLACEMENT_TWINS[place]
        scalar = scalar_loop(fleet, demand, power_off)
        columnar = getattr(engine, method)(demand, power_off)
        assert _placement_key(scalar) == _placement_key(columnar)
        assert scalar.placed_ops == columnar.placed_ops
        assert scalar.total_power_w == columnar.total_power_w
        routed = place(fleet, demand, power_off_unused=power_off)
        assert _placement_key(routed) == _placement_key(columnar)

    @pytest.mark.parametrize("policy", ["ep-aware", "pack-to-full"])
    @pytest.mark.parametrize("servers", [20, 24, 48])
    def test_payload_json_identical(self, fleet, capacity, policy, servers):
        """Serialized outcomes match, int-vs-float zeros included.

        With every server assigned, the scalar EP-aware loop once
        summed an empty generator and reported ``0`` where the engine
        reports ``0.0``; the JSON payloads then differed in type under
        one spec key.
        """
        cohort = fleet[:servers]
        cohort_capacity = sum(throughput_at(s, 1.0) for s in cohort)
        twin = BatchPlacementEngine(cohort)
        for fraction in (0.0, 0.3, 0.764941533, 0.95, 1.0):
            demand = fraction * cohort_capacity
            for power_off in (False, True):
                scalar = _POLICY_LOOPS[policy](cohort, demand, power_off)
                columnar = twin.place(policy, demand, power_off)
                assert json.dumps(_outcome_payload(scalar)) == json.dumps(
                    _outcome_payload(columnar)
                )

    def test_negative_demand_raises_on_both(self, fleet):
        # The demand is checked before an engine is built, so even a
        # fleet no engine takes (duplicate ids) reports the demand.
        for cohort in (fleet + fleet, fleet[:20]):
            with pytest.raises(ValueError, match="negative"):
                pack_to_full_placement(cohort, -1.0)
            with pytest.raises(ValueError, match="negative"):
                ep_aware_placement(cohort, -1.0)

    @pytest.mark.parametrize("policy", ["ep-aware", "pack-to-full"])
    def test_max_throughput_under_cap_parity(self, fleet, engine, policy):
        scalar = _max_throughput_under_cap_scalar(fleet, 40_000.0, policy)
        columnar = engine.max_throughput_under_cap(40_000.0, policy)
        assert _placement_key(scalar) == _placement_key(columnar)
        routed = max_throughput_under_cap(fleet, 40_000.0, policy=policy)
        assert _placement_key(routed) == _placement_key(columnar)

    def test_place_totals_match_outcome_properties(self, engine, capacity):
        for policy in ("pack-to-full", "ep-aware"):
            outcome = engine.place(policy, 0.4 * capacity)
            placed, power = engine.place_totals(policy, 0.4 * capacity)
            assert placed == outcome.placed_ops
            assert power == outcome.total_power_w


class TestSchedulerParity:
    @pytest.fixture(scope="class")
    def jobs(self, fleet):
        batch = synthesize_jobs(fleet, demand_fraction=0.5, seed=4)
        # One job no server can hold, to exercise the unplaced path.
        huge = 10.0 * max(throughput_at(s, 1.0) for s in fleet)
        return batch + [Job(job_id="job-huge", demand_ops=huge)]

    def _schedules_equal(self, a, b):
        assert a.policy == b.policy
        assert a.assignments == b.assignments
        assert list(a.assignments) == list(b.assignments)
        assert a.loads_ops == b.loads_ops
        assert list(a.loads_ops) == list(b.loads_ops)
        assert a.unplaced == b.unplaced
        assert [r.result_id for r in a.fleet] == [r.result_id for r in b.fleet]
        assert a.total_power_w == b.total_power_w
        assert a.placed_ops == b.placed_ops

    @pytest.mark.parametrize("scheduler", [FirstFitDecreasing, PeakSpotAware])
    def test_bit_identical_schedules(self, fleet, engine, jobs, scheduler):
        scalar = _SCHEDULER_LOOPS[scheduler.name](fleet, jobs)
        columnar = engine.schedule(scheduler.name, jobs)
        self._schedules_equal(scalar, columnar)
        assert "job-huge" in scalar.unplaced

    def test_total_power_matches_the_reference_inversion(self, corpus):
        # The jobs artifact's cohort and batch: every server of both
        # schedules, through the engines' row inversion and the oracle.
        cohort = list(corpus.by_hw_year_range(2014, 2016))
        batch = synthesize_jobs(cohort, demand_fraction=0.5, seed=4)
        for schedule in compare_schedulers(cohort, batch).values():
            utils = [
                _utilization_for(s, schedule.loads_ops.get(s.result_id, 0.0))
                for s in schedule.fleet
            ]
            assert [schedule.utilization_of(s) for s in schedule.fleet] == utils
            assert schedule.total_power_w == sum(
                power_at(s, u) for s, u in zip(schedule.fleet, utils)
            )

    def test_utilization_of_edges_match_the_reference(self, fleet):
        for server in fleet:
            cap = throughput_at(server, 1.0)
            for load in (-1.0, 0.0, 0.37 * cap, cap, 2.0 * cap):
                schedule = Schedule(
                    policy="first-fit-decreasing",
                    loads_ops={server.result_id: load},
                    fleet=[server],
                )
                assert schedule.utilization_of(server) == _utilization_for(
                    server, load
                )

    def test_compare_schedulers_parity(self, fleet, engine, jobs):
        routed = compare_schedulers(fleet, jobs)
        assert list(routed) == ["first-fit-decreasing", "peak-spot-aware"]
        for name, schedule in routed.items():
            self._schedules_equal(schedule, engine.schedule(name, jobs))
        small = fleet[:20]
        small_jobs = synthesize_jobs(small, demand_fraction=0.5, seed=4)
        twin = BatchPlacementEngine(small)
        routed_small = compare_schedulers(small, small_jobs)
        for scheduler in (FirstFitDecreasing, PeakSpotAware):
            scalar = _SCHEDULER_LOOPS[scheduler.name](small, small_jobs)
            self._schedules_equal(scalar, twin.schedule(scheduler.name, small_jobs))
            self._schedules_equal(scalar, routed_small[scheduler.name])


class TestReplayParity:
    @pytest.fixture(scope="class")
    def trace(self):
        return diurnal_trace(steps_per_day=24, noise=0.0)

    @pytest.mark.parametrize("policy", ["ep-aware", "pack-to-full"])
    @pytest.mark.parametrize("power_off", [False, True])
    def test_bit_identical_outcomes(
        self, fleet, engine, trace, policy, power_off
    ):
        scalar = _replay_scalar(fleet, trace, policy, power_off)
        columnar = BatchTraceReplay(engine).replay(trace, policy, power_off)
        assert scalar == columnar
        routed = replay_trace(
            fleet, trace, policy=policy, power_off_unused=power_off
        )
        assert routed == columnar

    def test_compare_policies_and_saving(self, fleet, engine, trace):
        scalar = {
            policy: _replay_scalar(fleet, trace, policy) for policy in POLICIES
        }
        columnar = BatchTraceReplay(engine).compare_policies(trace)
        assert list(scalar) == list(columnar)
        assert scalar == columnar
        assert daily_saving(scalar) == daily_saving(columnar)
        assert compare_policies(fleet, trace) == columnar
        small = fleet[:20]
        small_scalar = {
            policy: _replay_scalar(small, trace, policy) for policy in POLICIES
        }
        assert small_scalar == BatchTraceReplay(small).compare_policies(trace)
        assert compare_policies(small, trace) == small_scalar

    def test_unknown_policy_message_matches(self, fleet, engine, trace):
        with pytest.raises(ValueError, match="unknown policy") as scalar_err:
            _replay_scalar(fleet, trace, "nope")
        with pytest.raises(ValueError, match="unknown policy") as batch_err:
            BatchTraceReplay(engine).replay(trace, "nope")
        assert str(scalar_err.value) == str(batch_err.value)

    def test_replayer_reuses_engine(self, engine):
        assert BatchTraceReplay(engine).engine is engine
        assert trace_replayer(engine).engine is engine


class TestBackendRouting:
    """``fleet_engine`` routing, and that it is the only way in."""

    def test_unknown_backend_raises(self, fleet):
        # The fleet_backend knob is gone: any value is an unknown keyword.
        with pytest.raises(TypeError, match="fleet_backend"):
            pack_to_full_placement(fleet, 0.0, fleet_backend="gpu")

    def test_unrepresentable_fleets_are_refused(self, fleet):
        # There is no scalar route: fleets the columns cannot represent
        # are refused, and every other fleet, however small, gets an
        # engine.
        for unrepresentable in ([], fleet + fleet):
            with pytest.raises(ValueError, match="empty|heterogeneous|duplicate"):
                fleet_engine(unrepresentable)
            with pytest.raises(ValueError, match="empty|heterogeneous|duplicate"):
                replay_trace(unrepresentable, diurnal_trace(noise=0.0))
        assert isinstance(fleet_engine(fleet[:5]), BatchPlacementEngine)

    def test_small_fleet_refused_only_on_mixed_grids(self, fleet):
        # A small fleet is refused only when its grids disagree.
        mixed = [_server("a"), _server("b", loads=[0.25, 0.5, 0.75, 1.0])]
        with pytest.raises(ValueError, match="empty|heterogeneous|duplicate"):
            fleet_engine(mixed)
        assert isinstance(fleet_engine(fleet[:2]), BatchPlacementEngine)

    def test_corpus_cohort_gets_the_columnar_engine(self, fleet):
        engine = fleet_engine(fleet)
        assert isinstance(engine, BatchPlacementEngine)
        assert isinstance(trace_replayer(engine), BatchTraceReplay)

    def test_duplicate_ids_are_refused(self, fleet):
        doubled = fleet + fleet
        with pytest.raises(ValueError, match="empty|heterogeneous|duplicate"):
            fleet_engine(doubled)
        with pytest.raises(ValueError, match="duplicate"):
            BatchPlacementEngine(doubled)

    def test_auto_matches_scalar(self, fleet, capacity):
        demand = 0.6 * capacity
        auto = ep_aware_placement(fleet, demand)
        scalar = _ep_aware_scalar(fleet, demand)
        assert _placement_key(auto) == _placement_key(scalar)

    def test_fleet_arrays_accepted_directly(self, arrays, fleet, capacity):
        assert isinstance(fleet_engine(arrays), BatchPlacementEngine)
        direct = pack_to_full_placement(arrays, 0.5 * capacity)
        from_list = _pack_to_full_scalar(fleet, 0.5 * capacity)
        assert _placement_key(direct) == _placement_key(from_list)

    def test_placement_artifact_matches_scalar_loops(self, corpus, study):
        # The placement artifact (routed to the columnar engine) equals
        # the scalar reference loops on the same cohort.
        figure = study.figure("placement")
        cohort = list(corpus.by_hw_year_range(2013, 2016))
        assert isinstance(fleet_engine(cohort), BatchPlacementEngine)
        demand = figure.series["demand_ops"]
        packed = _pack_to_full_scalar(cohort, demand)
        aware = _ep_aware_scalar(cohort, demand)
        assert figure.series["pack_power_w"] == packed.total_power_w
        assert figure.series["aware_power_w"] == aware.total_power_w
        assert figure.series["saving"] == (
            1.0 - aware.total_power_w / packed.total_power_w
        )


def _outcome_json(outcome) -> str:
    """The API payload plus every assignment, as one JSON document."""
    document = dict(_outcome_payload(outcome))
    document["assignments"] = _placement_key(outcome)[3]
    return json.dumps(document)


def _schedule_json(schedule, power_w) -> str:
    return json.dumps(
        [
            schedule.policy,
            list(schedule.assignments.items()),
            list(schedule.loads_ops.items()),
            schedule.unplaced,
            schedule.total_power_w,
            power_w,
        ]
    )


class TestSmallFleetParity:
    """Fleets below the old 24-server cut, engine against scalar oracle.

    Every fleet the columns can represent now runs on the columnar
    engine, so the scalar loops are only the oracle here.
    """

    SIZES = [1, 2, 5, 14, 20, 23]

    @pytest.fixture(scope="class", params=SIZES)
    def cohort(self, request, fleet):
        small = fleet[: request.param]
        return small, BatchPlacementEngine(small)

    @pytest.mark.parametrize("policy", ["ep-aware", "pack-to-full"])
    def test_placement_json(self, cohort, policy):
        small, engine = cohort
        capacity = sum(throughput_at(s, 1.0) for s in small)
        # 0.95 and up assign every server under ep-aware: the 0.0 idle case.
        for fraction in (0.0, 0.05, 0.3, 0.5, 0.764941533, 0.95, 1.0, 1.2):
            for power_off in (False, True):
                demand = fraction * capacity
                scalar = _POLICY_LOOPS[policy](small, demand, power_off)
                assert _outcome_json(engine.place(policy, demand, power_off)) == (
                    _outcome_json(scalar)
                )
        everyone = engine.place(policy, 1.2 * capacity)
        assert len(everyone.assignments) == len(small)
        assert json.dumps(everyone.unused_idle_power_w) == "0.0"

    @pytest.mark.parametrize("policy", ["ep-aware", "pack-to-full"])
    def test_cap_json(self, cohort, policy):
        small, engine = cohort
        idle = engine.place(policy, 0.0).total_power_w
        full = sum(power_at(s, 1.0) for s in small)
        for cap_w in (0.5 * idle, 0.5 * (idle + full), 2.0 * full):
            for power_off in (False, True):
                scalar = _max_throughput_under_cap_scalar(
                    small, cap_w, policy, power_off
                )
                columnar = engine.max_throughput_under_cap(cap_w, policy, power_off)
                assert _outcome_json(columnar) == _outcome_json(scalar)
        # Under the zero-demand power no probe fits: the demand-0 outcome.
        starved = engine.max_throughput_under_cap(0.5 * idle, policy)
        assert starved.demand_ops == 0.0
        assert _outcome_json(starved) == _outcome_json(engine.place(policy, 0.0))
        # Over full power every probe fits, so the search climbs to
        # (almost) the whole capacity.
        capacity = sum(throughput_at(s, 1.0) for s in small)
        roomy = engine.max_throughput_under_cap(2.0 * full, policy)
        assert roomy.satisfied() and roomy.demand_ops > 0.999 * capacity

    @pytest.mark.parametrize("policy", ["ep-aware", "pack-to-full"])
    def test_replay(self, cohort, policy):
        small, engine = cohort
        trace = diurnal_trace(steps_per_day=24, noise=0.0)
        for power_off in (False, True):
            scalar = _replay_scalar(small, trace, policy, power_off)
            columnar = BatchTraceReplay(engine).replay(trace, policy, power_off)
            assert json.dumps(vars(columnar)) == json.dumps(vars(scalar))

    @pytest.mark.parametrize("scheduler", [FirstFitDecreasing, PeakSpotAware])
    def test_schedulers(self, cohort, scheduler):
        small, engine = cohort
        jobs = synthesize_jobs(small, demand_fraction=0.5, seed=4)
        scalar = _SCHEDULER_LOOPS[scheduler.name](small, jobs)
        columnar = engine.schedule(scheduler.name, jobs)
        assert _schedule_json(
            columnar, columnar.total_power_w
        ) == _schedule_json(scalar, scalar.total_power_w)

    def test_many_open_rows_take_the_batched_path(self, fleet):
        # Takes that are neither spot nor full capacity on every row:
        # more open rows than the single-row kernel handles one by one.
        engine = BatchPlacementEngine(fleet[:20])
        rows = list(range(20))
        takes = [0.37 * cap for cap in engine.arrays.full_capacity.tolist()]
        utils, powers = engine._assignment_columns(rows, takes)
        for row, take, utilization, power in zip(rows, takes, utils, powers):
            server = engine.arrays.records[row]
            assert utilization == _utilization_for(server, take)
            assert power == power_at(server, utilization)


#: The shared load grid of the hand-built servers (``_server``'s default).
_LOADS = [round(0.1 * i, 1) for i in range(1, 11)]


def _bits(value) -> bytes:
    return struct.pack("<d", float(value))


def _inexact_spot(full: float, fraction: float):
    """A spot capacity near ``fraction * full`` whose top-up misses ``full``.

    The EP-aware top-up gives a spot-filled row ``spot + (full - spot)``;
    for these pairs that rounds below ``full``, so the row's take is
    neither its spot nor its full capacity and stays open.  ``None``
    when no such float lies within 512 ulps.
    """
    spot = fraction * full
    for _ in range(512):
        if spot + (full - spot) < full:
            return spot
        spot = math.nextafter(spot, math.inf)
    return None


def _peaked_server(result_id: str, spot: float, full: float, knot: int, idle: float):
    """A server whose efficiency peaks at ``_LOADS[knot]`` with throughput ``spot``.

    Below the knot throughput grows in proportion to load over an idle
    floor, so efficiency rises; above it power grows twice as fast as
    throughput, so efficiency halves.  Full capacity is ``full``.
    """
    peak_load = _LOADS[knot]
    ops, power = [], []
    for index, load in enumerate(_LOADS):
        if index < knot:
            value = spot * load / peak_load
            ops.append(value)
            power.append(idle + 100.0 * load)
        elif index == knot:
            ops.append(spot)
            power.append(idle + 100.0 * load)
        else:
            share = (load - peak_load) / (1.0 - peak_load)
            value = full if index == len(_LOADS) - 1 else spot + (full - spot) * share
            ops.append(value)
            power.append(2.0 * (idle + 100.0 * peak_load) * value / spot)
    return replace(
        _server(result_id),
        levels=[
            LoadLevel(target_load=u, ssj_ops=o, average_power_w=w)
            for u, o, w in zip(_LOADS, ops, power)
        ],
        active_idle_power_w=idle,
        _cache={},
    )


@st.composite
def _small_fleets(draw):
    """1-12 servers mixing the cases the known-answer walk must sort.

    Linear servers peak at full load (spot capacity equal to full),
    dead ones have zero capacity, peaked ones leave their top-up open,
    and clones tie an earlier server in both rank keys.
    """
    kinds = draw(
        st.lists(
            st.sampled_from(["linear", "dead", "peaked", "clone"]),
            min_size=1,
            max_size=12,
        )
    )
    fleet = []
    for index, kind in enumerate(kinds):
        result_id = f"h{index}"
        if kind == "clone" and fleet:
            fleet.append(replace(draw(st.sampled_from(fleet)), result_id=result_id))
        elif kind == "dead":
            fleet.append(_server(result_id, max_ops=0.0))
        elif kind == "peaked":
            full = draw(st.floats(1_000.0, 50_000.0))
            spot = _inexact_spot(full, draw(st.floats(0.05, 0.45)))
            assume(spot is not None)
            knot = draw(st.integers(1, len(_LOADS) - 2))
            idle = draw(st.floats(50.0, 300.0))
            fleet.append(_peaked_server(result_id, spot, full, knot, idle))
        else:
            fleet.append(
                _server(
                    result_id,
                    max_ops=draw(st.floats(100.0, 50_000.0)),
                    idle=draw(st.floats(0.05, 0.6)),
                    peak_w=draw(st.floats(50.0, 500.0)),
                )
            )
    return fleet


def _open_rows(engine, rows, takes) -> list:
    """The rows whose take is neither spot nor at-or-past full capacity."""
    return [
        row
        for row, take in zip(rows, takes)
        if take != engine._spot_cap[row]
        and not (take > 0.0 and take >= engine._full_cap[row])
    ]


class TestPerQueryPathProperties:
    """The known-answer walk and the row inversion, on generated fleets.

    ``place_totals`` must equal the materialized outcome's totals bit
    for bit, and ``place``/``max_throughput_under_cap`` the scalar
    oracle loops, whichever branch each row takes: spot answer,
    full-load pin, single-row inversion or the batched one.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        fleet=_small_fleets(),
        fraction=st.one_of(
            st.sampled_from([0.0, 0.5, 1.0, 1.2]), st.floats(0.0, 1.25)
        ),
        cap_fraction=st.floats(0.1, 1.5),
        power_off=st.booleans(),
    )
    def test_engine_matches_the_scalar_loops(
        self, fleet, fraction, cap_fraction, power_off
    ):
        engine = BatchPlacementEngine(fleet)
        demand = fraction * sum(throughput_at(s, 1.0) for s in fleet)
        cap_w = cap_fraction * sum(power_at(s, 1.0) for s in fleet)
        for policy in POLICIES:
            outcome = engine.place(policy, demand, power_off)
            scalar = _POLICY_LOOPS[policy](fleet, demand, power_off)
            assert _outcome_json(outcome) == _outcome_json(scalar)
            placed, power = engine.place_totals(policy, demand, power_off)
            assert _bits(placed) == _bits(outcome.placed_ops)
            assert _bits(power) == _bits(outcome.total_power_w)
            capped = engine.max_throughput_under_cap(cap_w, policy, power_off)
            assert _outcome_json(capped) == _outcome_json(
                _max_throughput_under_cap_scalar(fleet, cap_w, policy, power_off)
            )

    @pytest.mark.parametrize("power_off", [False, True])
    def test_inexact_top_ups_take_the_batched_inversion(self, power_off):
        full = 31_522.183049595395
        spot = _inexact_spot(full, 0.35)
        assert spot is not None
        fleet = [
            _peaked_server(f"p{i}", spot, full, 4, 120.0) for i in range(12)
        ] + [_server("linear"), _server("dead", max_ops=0.0)]
        engine = BatchPlacementEngine(fleet)
        assert engine._spot_cap[0] == spot
        demand = sum(throughput_at(s, 1.0) for s in fleet)
        rows, takes, _ = engine._ep(demand, power_off)
        assert len(_open_rows(engine, rows, takes)) > _ROW_KERNEL_MAX
        outcome = engine.ep_aware(demand, power_off)
        assert _outcome_json(outcome) == _outcome_json(
            _ep_aware_scalar(fleet, demand, power_off)
        )
        placed, power = engine.place_totals("ep-aware", demand, power_off)
        assert _bits(placed) == _bits(outcome.placed_ops)
        assert _bits(power) == _bits(outcome.total_power_w)


class TestCapacityEdgeCases:
    """Regression tests for the zero-capacity / over-capacity fixes."""

    @pytest.fixture(scope="class")
    def dead(self):
        return _server("dead", max_ops=0.0)

    def test_zero_capacity_server_pins_to_full_utilization(self, dead):
        assert throughput_at(dead, 1.0) == 0.0
        assert _utilization_for(dead, 5.0) == 1.0
        assert _utilization_for(dead, 0.0) == 0.0
        assert _utilization_for(dead, -1.0) == 0.0

    def test_over_capacity_request_pins_to_one(self, fleet):
        server = fleet[0]
        cap = throughput_at(server, 1.0)
        assert _utilization_for(server, cap) == 1.0
        assert _utilization_for(server, 2.0 * cap) == 1.0

    def test_batch_kernel_matches_edges(self, dead):
        arrays = FleetArrays.from_records([dead])
        assert arrays.utilization_for(np.array([5.0]))[0] == 1.0
        assert arrays.utilization_for(np.array([0.0]))[0] == 0.0
        assert arrays.utilization_for(np.array([-1.0]))[0] == 0.0

    def test_schedule_utilization_of_over_capacity(self, dead):
        from repro.cluster.jobs import Schedule

        schedule = Schedule(
            policy="first-fit-decreasing",
            loads_ops={"dead": 3.0},
            fleet=[dead],
        )
        assert schedule.utilization_of(dead) == 1.0

    def test_zero_capacity_fleet_parity(self, dead):
        from dataclasses import replace

        fleet = [replace(dead, result_id=f"dead-{i}") for i in range(3)]
        engine = BatchPlacementEngine(fleet)
        for scalar_loop, method in _PLACEMENT_TWINS.values():
            scalar = scalar_loop(fleet, 100.0)
            columnar = getattr(engine, method)(100.0)
            assert _placement_key(scalar) == _placement_key(columnar)
            assert not scalar.satisfied()
