"""Tests for the trace-driven placement simulation."""

import numpy as np
import pytest

from repro.cluster.trace import (
    DemandTrace,
    compare_policies,
    daily_saving,
    diurnal_trace,
    replay_trace,
)


@pytest.fixture(scope="module")
def fleet(corpus):
    return list(corpus.by_hw_year_range(2014, 2016))


class TestDiurnalTrace:
    def test_shape_parameters(self):
        trace = diurnal_trace(steps_per_day=48, base=0.2, peak=0.9, seed=0)
        assert trace.steps == 48
        assert min(trace.demand_fraction) >= 0.0
        assert max(trace.demand_fraction) <= 1.0
        assert max(trace.demand_fraction) > 0.75
        assert min(trace.demand_fraction) < 0.35

    def test_peak_lands_in_the_afternoon(self):
        trace = diurnal_trace(noise=0.0)
        peak_index = int(np.argmax(trace.demand_fraction))
        assert 12.0 <= trace.times_h[peak_index] <= 17.0

    def test_deterministic_with_seeded_rng(self):
        a = diurnal_trace(rng=np.random.default_rng(5))
        b = diurnal_trace(rng=np.random.default_rng(5))
        assert a.demand_fraction == b.demand_fraction

    def test_validation(self):
        with pytest.raises(ValueError):
            diurnal_trace(base=0.9, peak=0.5)
        with pytest.raises(ValueError):
            DemandTrace(times_h=(0.0,), demand_fraction=(1.5,))

    def test_noise_requires_explicit_randomness_source(self):
        with pytest.raises(ValueError, match="seed= or rng="):
            diurnal_trace()  # default noise > 0 with no source
        with pytest.raises(ValueError, match="at most one"):
            diurnal_trace(seed=1, rng=np.random.default_rng(1))
        # noise=0.0 is deterministic and needs neither.
        diurnal_trace(noise=0.0)

    def test_seed_matches_equivalent_rng(self):
        a = diurnal_trace(seed=7)
        b = diurnal_trace(rng=np.random.default_rng(7))
        assert a.demand_fraction == b.demand_fraction

    @pytest.mark.parametrize("steps", [24, 96, 288])
    def test_vectorized_matches_scalar_reference_bitwise(self, steps):
        from repro.cluster.reference import reference_kernels

        vectorized = diurnal_trace(steps_per_day=steps, noise=0.0)
        with reference_kernels():
            scalar = diurnal_trace(steps_per_day=steps, noise=0.0)
        assert vectorized == scalar

    def test_vectorized_matches_scalar_reference_with_noise(self):
        from repro.cluster.reference import reference_kernels

        vectorized = diurnal_trace(seed=7)
        with reference_kernels():
            scalar = diurnal_trace(seed=7)
        assert vectorized == scalar

    def test_reference_swap_restores_on_exit(self):
        from repro.cluster import trace as trace_module
        from repro.cluster.reference import reference_kernels

        original = trace_module.diurnal_trace
        with reference_kernels():
            assert trace_module.diurnal_trace is not original
        assert trace_module.diurnal_trace is original

    def test_times_must_be_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            DemandTrace(times_h=(0.0, 1.0, 1.0), demand_fraction=(0.1,) * 3)
        with pytest.raises(ValueError, match="strictly increasing"):
            DemandTrace(times_h=(2.0, 1.0), demand_fraction=(0.1, 0.2))


class TestReplay:
    def test_energy_and_service_accounting(self, fleet):
        trace = diurnal_trace(steps_per_day=12, noise=0.0)
        outcome = replay_trace(fleet, trace, policy="ep-aware")
        assert outcome.energy_kwh > 0.0
        assert outcome.served_gops > 0.0
        assert outcome.unserved_steps == 0
        assert outcome.step_hours == pytest.approx(2.0)

    def test_ep_aware_wins_the_day(self, fleet):
        """Section V.C over a full diurnal cycle."""
        trace = diurnal_trace(steps_per_day=12, noise=0.0)
        outcomes = compare_policies(fleet, trace)
        saving = daily_saving(outcomes)
        assert saving > 0.01
        # Both served the same demand.
        assert outcomes["ep-aware"].served_gops == pytest.approx(
            outcomes["pack-to-full"].served_gops, rel=1e-6
        )

    def test_energy_per_gop_ranks_policies(self, fleet):
        trace = diurnal_trace(steps_per_day=12, noise=0.0)
        outcomes = compare_policies(fleet, trace)
        assert (
            outcomes["ep-aware"].energy_per_gop
            < outcomes["pack-to-full"].energy_per_gop
        )

    def test_power_off_mode_uses_less_energy(self, fleet):
        trace = diurnal_trace(steps_per_day=8, noise=0.0)
        powered = replay_trace(fleet, trace, policy="pack-to-full",
                               power_off_unused=False)
        consolidated = replay_trace(fleet, trace, policy="pack-to-full",
                                    power_off_unused=True)
        assert consolidated.energy_kwh < powered.energy_kwh

    def test_unknown_policy_rejected(self, fleet):
        with pytest.raises(ValueError, match="policy"):
            replay_trace(
                fleet, diurnal_trace(steps_per_day=8, noise=0.0), policy="magic"
            )
