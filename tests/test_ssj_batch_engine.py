"""Tests for the batched service engine and array arrival generation.

The batch engine replaces the per-event heapq loop with chunked
per-window processing.  It consumes the RNG in a different order than
:class:`~repro.ssj.engine.ServiceEngine`, so the contract is
*distributional* equivalence plus per-seed determinism, not bit
identity with the event engine.
"""

import numpy as np
import pytest

from repro.hwexp.reference import simulate_sweep
from repro.hwexp.sweeps import run_sweep
from repro.hwexp.testbed import TESTBED
from repro.ssj.engine import (
    OPS_PER_UNIT_WORK,
    BatchServiceEngine,
    LinearThroughputProfile,
    ServiceEngine,
)
from repro.ssj.load_levels import MeasurementPlan
from repro.ssj.workload import TransactionSource


def _engine(cores=4, rate=100.0, seed=1, capacity=None):
    return BatchServiceEngine(
        cores=cores,
        profile=LinearThroughputProfile(ops_at_1ghz=rate),
        rng=np.random.default_rng(seed),
        queue_capacity=capacity,
    )


def _source(rate, seed=2):
    return TransactionSource(rate_per_s=rate, rng=np.random.default_rng(seed))


class TestArrivalArrays:
    def test_offsets_sorted_and_inside_horizon(self):
        offsets, factors = _source(rate=200.0).arrival_arrays(10.0)
        assert offsets.shape == factors.shape
        assert np.all(np.diff(offsets) >= 0.0)
        assert np.all(offsets < 10.0)
        assert np.all(offsets > 0.0)

    def test_count_tracks_rate(self):
        counts = [
            _source(rate=300.0, seed=seed).arrival_arrays(20.0)[0].size
            for seed in range(8)
        ]
        assert np.mean(counts) == pytest.approx(300.0 * 20.0, rel=0.05)

    def test_same_seed_same_arrays(self):
        first = _source(rate=150.0, seed=11).arrival_arrays(6.0)
        second = _source(rate=150.0, seed=11).arrival_arrays(6.0)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])

    def test_mean_gap_matches_scalar_generator(self):
        """Array and scalar paths draw from the same arrival process."""
        scalar_counts = [
            len(list(_source(rate=250.0, seed=seed).arrivals(12.0)))
            for seed in range(6)
        ]
        array_counts = [
            _source(rate=250.0, seed=seed).arrival_arrays(12.0)[0].size
            for seed in range(6)
        ]
        assert np.mean(array_counts) == pytest.approx(
            np.mean(scalar_counts), rel=0.05
        )

    def test_work_factors_come_from_the_mix(self):
        source = _source(rate=500.0)
        _, factors = source.arrival_arrays(5.0)
        allowed = {tx.work_factor for tx in source.mix}
        assert set(np.unique(factors)) <= allowed

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            _source(rate=10.0).arrival_arrays(0.0)


class TestBatchEngineBasics:
    def test_no_arrivals_means_no_work(self):
        engine = _engine()
        result = engine.advance([], [], until=10.0, frequency_ghz=2.0)
        assert result.completed_transactions == 0
        assert result.utilization == pytest.approx(0.0)
        assert engine.clock == pytest.approx(10.0)

    def test_cannot_go_backwards(self):
        engine = _engine()
        engine.advance([], [], until=5.0, frequency_ghz=2.0)
        with pytest.raises(ValueError, match="backwards"):
            engine.advance([], [], until=4.0, frequency_ghz=2.0)

    def test_arrival_outside_window_rejected(self):
        engine = _engine()
        with pytest.raises(ValueError, match="outside"):
            engine.advance([10.0], [1.0], until=5.0, frequency_ghz=2.0)

    def test_light_load_completes_everything(self):
        engine = _engine(cores=8, rate=1000.0)
        offsets, factors = _source(rate=20.0).arrival_arrays(50.0)
        result = engine.advance(offsets, factors, until=60.0, frequency_ghz=2.0)
        assert result.completed_transactions == offsets.size

    def test_ops_track_transaction_work(self):
        engine = _engine(cores=8, rate=1000.0)
        offsets, factors = _source(rate=20.0).arrival_arrays(50.0)
        result = engine.advance(offsets, factors, until=80.0, frequency_ghz=2.0)
        expected = float(np.sum(factors)) * OPS_PER_UNIT_WORK
        assert result.completed_ops == pytest.approx(expected, rel=1e-9)

    def test_same_seed_same_result(self):
        runs = []
        for _ in range(2):
            engine = _engine(cores=8, rate=500.0, seed=42)
            offsets, factors = _source(rate=400.0, seed=9).arrival_arrays(30.0)
            result = engine.advance(offsets, factors, 30.0, frequency_ghz=2.0)
            runs.append(
                (result.completed_transactions, result.completed_ops,
                 result.busy_core_seconds)
            )
        assert runs[0] == runs[1]


class TestBatchQueueBehaviour:
    def test_bounded_queue_drops_excess(self):
        engine = _engine(cores=1, rate=1.0, capacity=2)
        offsets, factors = _source(rate=100.0).arrival_arrays(5.0)
        engine.advance(offsets, factors, 5.0, frequency_ghz=1.0)
        assert engine.dropped > 0

    def test_unbounded_queue_never_drops(self):
        engine = _engine(cores=1, rate=1.0, capacity=None)
        offsets, factors = _source(rate=100.0).arrival_arrays(5.0)
        engine.advance(offsets, factors, 5.0, frequency_ghz=1.0)
        assert engine.dropped == 0

    def test_pending_carries_across_windows(self):
        engine = _engine(cores=1, rate=100.0)
        offsets, factors = _source(rate=100.0).arrival_arrays(2.0)
        engine.advance(offsets, factors, 2.0, frequency_ghz=1.0)
        assert engine.pending > 0
        later = engine.advance([], [], 2000.0, frequency_ghz=1.0)
        assert engine.pending == 0
        assert later.completed_transactions > 0


class TestDistributionalAgreementWithEventEngine:
    def test_mean_utilization_matches_event_engine(self):
        """Across seeds, both engines deliver the same offered load."""
        cores, rate, f = 16, 500.0, 2.0
        capacity_ops = cores * rate * f
        offered_tx = 0.5 * capacity_ops / OPS_PER_UNIT_WORK
        horizon = 60.0
        event_utils, batch_utils = [], []
        for seed in range(5):
            arrivals = list(
                _source(rate=offered_tx, seed=seed).arrivals(horizon)
            )
            event = ServiceEngine(
                cores=cores,
                profile=LinearThroughputProfile(ops_at_1ghz=rate),
                rng=np.random.default_rng(seed + 100),
            )
            event_utils.append(
                event.advance(arrivals, horizon, f).utilization
            )
            offsets, factors = _source(
                rate=offered_tx, seed=seed
            ).arrival_arrays(horizon)
            batch = _engine(cores=cores, rate=rate, seed=seed + 100)
            batch_utils.append(
                batch.advance(offsets, factors, horizon, f).utilization
            )
        assert np.mean(batch_utils) == pytest.approx(
            np.mean(event_utils), abs=0.02
        )
        assert np.mean(batch_utils) == pytest.approx(0.5, abs=0.03)


class TestSimulatedSweepAgreement:
    @pytest.fixture(scope="class")
    def plan(self):
        return MeasurementPlan(interval_s=3.0, ramp_s=0.5)

    def test_simulate_agrees_with_analytic_across_cells(self, plan):
        """Tentpole check: the batched simulate path still reproduces the
        analytic sweep within measurement tolerance on a testbed server.

        The widest gap sits at the lowest frequency pin, where the
        server runs saturated and the analytic capacity model and the
        queueing simulation legitimately diverge the most, so the
        efficiency tolerance is looser than the 1.8 GHz one-cell check
        in test_hwexp.py.
        """
        server = TESTBED[2]
        kwargs = dict(
            memory_per_core=[2.0, 4.0],
            frequencies=[1.2, 1.8],
            include_ondemand=False,
        )
        analytic = run_sweep(server, **kwargs)
        simulated = simulate_sweep(server, plan=plan, **kwargs)
        for mpc in (2.0, 4.0):
            for frequency in (1.2, 1.8):
                a = analytic.cell(mpc, frequency)
                s = simulated.cell(mpc, frequency)
                assert s.overall_efficiency == pytest.approx(
                    a.overall_efficiency, rel=0.20
                )
                assert s.peak_power_w == pytest.approx(
                    a.peak_power_w, rel=0.10
                )

    def test_simulated_sweep_is_seed_stable(self, plan):
        """Same seed, same report -- twice; a different seed moves it."""
        kwargs = dict(
            memory_per_core=[4.0],
            frequencies=[1.8],
            include_ondemand=False,
            plan=plan,
        )
        first = simulate_sweep(TESTBED[2], seed=123, **kwargs)
        second = simulate_sweep(TESTBED[2], seed=123, **kwargs)
        assert [
            (c.overall_efficiency, c.peak_power_w) for c in first.cells
        ] == [(c.overall_efficiency, c.peak_power_w) for c in second.cells]
        other = simulate_sweep(TESTBED[2], seed=124, **kwargs)
        assert [
            (c.overall_efficiency, c.peak_power_w) for c in first.cells
        ] != [(c.overall_efficiency, c.peak_power_w) for c in other.cells]
