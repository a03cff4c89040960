"""``fleet_engine``: the one routing decision, pinned at its edges."""

from dataclasses import replace

import pytest

from repro.cluster.batch_placement import BatchPlacementEngine
from repro.cluster.engines import engine_name, fleet_engine
from repro.cluster.fleet_arrays import FleetArrays, tile_fleet
from repro.cluster.sharded import ShardedFleetEngine


@pytest.fixture(scope="module")
def base(corpus):
    return list(corpus.by_hw_year_range(2013, 2016))


def _regridded(server):
    """``server`` measured on a coarser load grid than the corpus."""
    levels = [level for level in server.levels if level.target_load in (0.5, 1.0)]
    assert len(levels) == 2
    return replace(server, result_id=f"{server.result_id}-coarse", levels=levels)


class TestSelectorEdges:
    def test_eager_23_vs_24_servers(self, base):
        # No size cut: one server up is columnar, an empty fleet refused.
        for size in (1, 23, 24):
            assert isinstance(fleet_engine(base[:size]), BatchPlacementEngine)
        with pytest.raises(ValueError, match="empty|heterogeneous|duplicate"):
            fleet_engine([])

    def test_lazy_99_999_vs_100_000_servers(self, base):
        below = tile_fleet(base, 99_999, lazy=True)
        at = tile_fleet(base, 100_000, lazy=True)
        assert isinstance(fleet_engine(below), BatchPlacementEngine)
        assert isinstance(fleet_engine(at), ShardedFleetEngine)

    def test_small_lazy_views_and_arrays_stay_columnar(self, base):
        assert isinstance(
            fleet_engine(tile_fleet(base, 5, lazy=True)), BatchPlacementEngine
        )
        assert isinstance(
            fleet_engine(FleetArrays.from_records(base[:5])), BatchPlacementEngine
        )

    def test_non_uniform_grid_goes_scalar(self, base):
        mixed = base[:24] + [_regridded(base[0])]
        with pytest.raises(ValueError, match="heterogeneous"):
            BatchPlacementEngine(mixed)
        with pytest.raises(ValueError, match="empty|heterogeneous|duplicate"):
            fleet_engine(mixed)
        with pytest.raises(ValueError, match="empty|heterogeneous|duplicate"):
            fleet_engine(tile_fleet(mixed, 1000, lazy=True))

    def test_engine_names(self, base):
        with pytest.raises(ValueError, match="empty|heterogeneous|duplicate"):
            engine_name(fleet_engine([]))
        assert engine_name(fleet_engine(base[:1])) == "columnar"
        assert engine_name(fleet_engine(base[:24])) == "columnar"
        view = tile_fleet(base, 300, lazy=True)
        assert engine_name(ShardedFleetEngine(view)) == "sharded"
