"""A SPECpower_ssj2008-style benchmark simulator.

SPECpower_ssj2008 (Section II.A of the paper) drives a server-side
Java transaction workload through a graduated series of target loads --
calibrated maximum first, then 100% down to 10% in ten steps, then
active idle -- while an external power analyzer records wall power.
The published FDR (full disclosure report) contains, per level, the
achieved throughput (ssj_ops) and average power, from which every
metric in the paper derives.

This package reproduces that measurement *protocol* against the
component power models of :mod:`repro.power`:

* :mod:`repro.ssj.transactions` -- the six-transaction workload mix;
* :mod:`repro.ssj.workload` -- Poisson open-loop transaction source;
* :mod:`repro.ssj.engine` -- the discrete-event multi-core service
  simulation;
* :mod:`repro.ssj.calibration` -- saturation run locating the 100%
  throughput target;
* :mod:`repro.ssj.load_levels` -- the measurement plan (target loads,
  interval lengths);
* :mod:`repro.ssj.power_meter` -- sampled wall-power integration with
  analyzer noise;
* :mod:`repro.ssj.report` -- FDR-style result records;
* :mod:`repro.ssj.runner` -- the director tying it all together.
"""

from repro.ssj.calibration import calibrate
from repro.ssj.engine import EngineResult, ServiceEngine
from repro.ssj.load_levels import MeasurementPlan
from repro.ssj.power_meter import PowerMeter
from repro.ssj.report import BenchmarkReport, LevelMeasurement
from repro.ssj.runner import SsjRunner
from repro.ssj.transactions import SSJ_MIX, TransactionType
from repro.ssj.variants import VARIANTS, WorkloadVariant, get_variant
from repro.ssj.workload import TransactionSource

__all__ = [
    "BenchmarkReport",
    "EngineResult",
    "LevelMeasurement",
    "MeasurementPlan",
    "PowerMeter",
    "SSJ_MIX",
    "VARIANTS",
    "ServiceEngine",
    "SsjRunner",
    "TransactionSource",
    "TransactionType",
    "WorkloadVariant",
    "calibrate",
    "get_variant",
]
