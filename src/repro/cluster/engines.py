"""Which engine serves a fleet: the one routing decision of the cluster layer.

The scalar loops in :mod:`~repro.cluster.placement`,
:mod:`~repro.cluster.trace` and :mod:`~repro.cluster.jobs`, the columnar
engine (:mod:`~repro.cluster.batch_placement`) and the sharded tier
(:mod:`~repro.cluster.sharded`) give bit-identical answers, so the
choice between them is a speed question with no user-facing knob.
Every fleet the columns can represent gets an engine, however small:
construction inverts each server's spot capacity once, after which a
placement inverts only its marginal server.  The scalar loops remain
the parity oracle and the fallback for unrepresentable fleets.
Every public entry point and the query API's ``QueryContext`` route
through :func:`fleet_engine`, and provenance reports the engine that ran.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.cluster.batch_placement import BatchPlacementEngine
from repro.cluster.batch_trace import BatchTraceReplay
from repro.cluster.fleet_arrays import FleetArrays, TiledFleetView
from repro.cluster.sharded import ShardedFleetEngine, ShardedTraceReplay

#: A lazy ``TiledFleetView`` of at least this many servers goes to the
#: sharded engine instead of materializing columnar matrices.
SHARDED_THRESHOLD = 100_000

FleetEngine = Union[BatchPlacementEngine, ShardedFleetEngine]


def fleet_engine(fleet) -> Optional[FleetEngine]:
    """The engine for ``fleet``, or ``None`` for the scalar loops.

    * a lazy ``TiledFleetView`` of at least :data:`SHARDED_THRESHOLD`
      servers -> sharded;
    * every other fleet the columns can represent, one server upward
      -> columnar;
    * fleets the columnar layout cannot represent (empty, non-uniform
      load grid, duplicate ids) -> ``None``: the scalar loops, which
      otherwise serve only as the engines' parity oracle.
    """
    if isinstance(fleet, FleetArrays):
        return BatchPlacementEngine(fleet)
    try:
        if isinstance(fleet, TiledFleetView) and len(fleet) >= SHARDED_THRESHOLD:
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
