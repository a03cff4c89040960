"""Section V.C operationalized: EP-aware placement.

The paper's operational guidance: characterize each server's
efficiency curve and place load so every active server sits in its
high-efficiency working region (~70-100% utilization for modern
machines) instead of packing servers to 100%.

* :mod:`repro.cluster.regions` -- interpolated power, throughput and
  efficiency at any utilization of a measured curve;
* :mod:`repro.cluster.placement` -- EP-aware placement vs. the
  pack-to-full baseline, under throughput demand or a power cap;
* :mod:`repro.cluster.fleet_arrays` -- the columnar struct-of-arrays
  fleet view behind the vectorized fast paths;
* :mod:`repro.cluster.batch_placement` /
  :mod:`repro.cluster.batch_trace` -- bit-identical columnar engines
  for placement, job scheduling, and trace replay;
* :mod:`repro.cluster.sharded` -- the sharded, out-of-core tier:
  million-server fleets streamed shard by shard through the same day
  loop and cap search, still bit-identical to the columnar engine;
* :mod:`repro.cluster.engines` -- :func:`fleet_engine`, the one place
  that picks the columnar or sharded engine for a fleet, by its size
  alone (there is no user-facing switch), and refuses with
  ``ValueError`` the fleets the columns cannot represent (empty,
  mixed load grids, duplicate ids);
* :mod:`repro.cluster.reference` -- the per-server scalar loops the
  engines replaced, kept as the parity tests' oracle.
"""

from repro.cluster.batch_placement import BatchPlacementEngine
from repro.cluster.batch_trace import BatchTraceReplay
from repro.cluster.engines import fleet_engine
from repro.cluster.fleet_arrays import FleetArrays, TiledFleetView, tile_fleet
from repro.cluster.sharded import (
    ShardedFleetEngine,
    ShardedTraceReplay,
    SummaryOutcome,
)
from repro.cluster.placement import (
    PlacementOutcome,
    ep_aware_placement,
    pack_to_full_placement,
    max_throughput_under_cap,
)
from repro.cluster.trace import (
    DemandTrace,
    compare_policies,
    daily_saving,
    diurnal_trace,
    replay_trace,
)

__all__ = [
    "BatchPlacementEngine",
    "BatchTraceReplay",
    "FleetArrays",
    "ShardedFleetEngine",
    "ShardedTraceReplay",
    "SummaryOutcome",
    "TiledFleetView",
    "PlacementOutcome",
    "DemandTrace",
    "compare_policies",
    "daily_saving",
    "diurnal_trace",
    "fleet_engine",
    "replay_trace",
    "ep_aware_placement",
    "max_throughput_under_cap",
    "pack_to_full_placement",
    "tile_fleet",
]
