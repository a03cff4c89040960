"""Which engine serves a fleet: the one routing decision of the cluster layer.

The scalar loops in :mod:`~repro.cluster.placement`,
:mod:`~repro.cluster.trace` and :mod:`~repro.cluster.jobs`, the columnar
engine (:mod:`~repro.cluster.batch_placement`) and the sharded tier
(:mod:`~repro.cluster.sharded`) give bit-identical answers, so the
choice between them is a speed question with no user-facing knob:
every public entry point and the query API's ``QueryContext`` route
through :func:`fleet_engine`, and provenance reports the engine that ran.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.cluster.batch_placement import BatchPlacementEngine
from repro.cluster.batch_trace import BatchTraceReplay
from repro.cluster.fleet_arrays import FleetArrays, TiledFleetView
from repro.cluster.sharded import ShardedFleetEngine, ShardedTraceReplay

#: Below this many servers an eager fleet stays on the scalar loops:
#: engine construction costs more than it saves (measured crossover
#: between 20 and 48 servers, see DESIGN.md section 4.9).
AUTO_THRESHOLD = 24

#: A lazy ``TiledFleetView`` of at least this many servers goes to the
#: sharded engine instead of materializing columnar matrices.
SHARDED_AUTO_THRESHOLD = 100_000

FleetEngine = Union[BatchPlacementEngine, ShardedFleetEngine]


def fleet_engine(fleet) -> Optional[FleetEngine]:
    """The engine for ``fleet``, or ``None`` for the scalar loops.

    * a lazy ``TiledFleetView`` of at least
      :data:`SHARDED_AUTO_THRESHOLD` servers -> sharded;
    * any other view, a ``FleetArrays``, or an eager fleet of at least
      :data:`AUTO_THRESHOLD` servers -> columnar;
    * smaller eager fleets, and fleets the columnar layout cannot
      represent (non-uniform load grid, duplicate ids) -> ``None``.
    """
    if isinstance(fleet, FleetArrays):
        return BatchPlacementEngine(fleet)
    if not isinstance(fleet, TiledFleetView) and len(fleet) < AUTO_THRESHOLD:
        return None
    try:
        if isinstance(fleet, TiledFleetView) and len(fleet) >= SHARDED_AUTO_THRESHOLD:
            return ShardedFleetEngine(fleet)
        return BatchPlacementEngine(fleet)
    except ValueError:
        return None


def engine_name(engine: Optional[FleetEngine]) -> str:
    """``"scalar"``, ``"columnar"`` or ``"sharded"``, as provenance reports it."""
    if engine is None:
        return "scalar"
    if isinstance(engine, ShardedFleetEngine):
        return "sharded"
    return "columnar"


def trace_replayer(engine: Optional[FleetEngine]):
    """The day-loop replayer over ``engine``, or ``None`` for the scalar loop."""
    if engine is None:
        return None
    if isinstance(engine, ShardedFleetEngine):
        return ShardedTraceReplay(engine)
    return BatchTraceReplay(engine)
