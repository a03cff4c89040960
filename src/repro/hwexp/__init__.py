"""The paper's hardware experiments (Section V, Figs. 18-21), simulated.

The paper ran SPECpower (OpenJDK 1.8, no tuning) on four 2U rack
servers (Table II), sweeping installed memory per core and pinned CPU
frequency plus the ondemand governor.  This package models those four
machines with the component power models of :mod:`repro.power` and a
throughput model with frequency sublinearity and heap-pressure (GC)
effects, then replays the same sweeps:

* :mod:`repro.hwexp.perf_model` -- the throughput model;
* :mod:`repro.hwexp.testbed` -- the four Table II configurations;
* :mod:`repro.hwexp.sweeps` -- the memory-per-core x frequency grid,
  evaluated analytically (deterministic, fast);
* :mod:`repro.hwexp.workloads` -- per-workload EP/EE characterization;
* :mod:`repro.hwexp.reference` -- the same cells through the full
  discrete-event benchmark, kept as the tests' oracle.
"""

from repro.hwexp.perf_model import ServerThroughputProfile
from repro.hwexp.sweeps import SweepCell, SweepResult, run_sweep
from repro.hwexp.testbed import TESTBED, TestbedServer, testbed_table
from repro.hwexp.workloads import characterize, compare_workloads, ep_spread

__all__ = [
    "ServerThroughputProfile",
    "SweepCell",
    "SweepResult",
    "TESTBED",
    "TestbedServer",
    "characterize",
    "compare_workloads",
    "ep_spread",
    "run_sweep",
    "testbed_table",
]
