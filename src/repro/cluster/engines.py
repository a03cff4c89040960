"""Which engine serves a fleet: the one routing decision of the cluster layer.

The columnar engine (:mod:`~repro.cluster.batch_placement`) and the
sharded tier (:mod:`~repro.cluster.sharded`) give bit-identical
answers, so the choice between them is a speed question with no
user-facing knob.  Every fleet gets an engine, however small:
construction inverts each server's spot capacity once, after which a
placement inverts only its marginal server.  A fleet the columns
cannot represent -- empty, on mixed load grids, or with duplicate
result ids -- is refused with ``ValueError``.  The per-server scalar
loops the engines replaced are the parity oracle in
:mod:`~repro.cluster.reference`, run by tests only.  Every public
entry point and the query API's ``QueryContext`` route through
:func:`fleet_engine`, and provenance reports the engine that ran.
"""

from __future__ import annotations

from typing import Union

from repro.cluster.batch_placement import BatchPlacementEngine
from repro.cluster.batch_trace import BatchTraceReplay
from repro.cluster.fleet_arrays import TiledFleetView
from repro.cluster.sharded import ShardedFleetEngine, ShardedTraceReplay

#: A lazy ``TiledFleetView`` of at least this many servers goes to the
#: sharded engine instead of materializing columnar matrices.
SHARDED_THRESHOLD = 100_000

FleetEngine = Union[BatchPlacementEngine, ShardedFleetEngine]


def fleet_engine(fleet) -> FleetEngine:
    """The engine for ``fleet``.

    * a lazy ``TiledFleetView`` of at least :data:`SHARDED_THRESHOLD`
      servers -> sharded;
    * every other fleet, one server upward -> columnar.

    Raises ``ValueError`` for a fleet the columnar layout cannot
    represent: empty, non-uniform load grid, or duplicate ids.
    """
    if isinstance(fleet, TiledFleetView) and len(fleet) >= SHARDED_THRESHOLD:
        return ShardedFleetEngine(fleet)
    return BatchPlacementEngine(fleet)


def engine_name(engine: FleetEngine) -> str:
    """``"columnar"`` or ``"sharded"``, as provenance reports it."""
    if isinstance(engine, ShardedFleetEngine):
        return "sharded"
    return "columnar"


def trace_replayer(engine: FleetEngine):
    """The day-loop replayer over ``engine``."""
    if isinstance(engine, ShardedFleetEngine):
        return ShardedTraceReplay(engine)
    return BatchTraceReplay(engine)
