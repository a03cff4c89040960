"""Trailing options of the cluster entry points and ``Study`` are keyword-only."""

import warnings

import pytest

from repro.cluster.placement import (
    ep_aware_placement,
    max_throughput_under_cap,
    pack_to_full_placement,
)
from repro.cluster.trace import compare_policies, diurnal_trace, replay_trace
from repro.core.study import Study
from repro.dataset.synthesis import generate_corpus


@pytest.fixture(scope="module")
def fleet():
    return generate_corpus(2016).by_hw_year(2016).results()


@pytest.fixture(scope="module")
def trace():
    return diurnal_trace(steps_per_day=4, noise=0.0)


class TestPositionalOptionsRejected:
    def test_placement_policies(self, fleet):
        for place in (pack_to_full_placement, ep_aware_placement):
            with pytest.raises(TypeError):
                place(fleet, 1000.0, True)

    def test_cap(self, fleet):
        with pytest.raises(TypeError):
            max_throughput_under_cap(fleet, 3000.0, "ep-aware")

    def test_replay(self, fleet, trace):
        with pytest.raises(TypeError):
            replay_trace(fleet, trace, "ep-aware", True)

    def test_compare_policies(self, fleet, trace):
        with pytest.raises(TypeError):
            compare_policies(fleet, trace, False)

    def test_study_seed(self):
        with pytest.raises(TypeError):
            Study(None, 2016)


class TestKeywordCallsStayQuiet:
    def test_cluster_entry_points(self, fleet, trace):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ep_aware_placement(fleet, 1000.0, power_off_unused=True)
            pack_to_full_placement(fleet, 1000.0, power_off_unused=False)
            max_throughput_under_cap(fleet, 3000.0, policy="ep-aware")
            replay_trace(fleet, trace, policy="ep-aware")
            compare_policies(fleet, trace, power_off_unused=False)
            Study(seed=2016)
