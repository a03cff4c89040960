"""Reproduction of "Energy Proportional Servers: Where Are We in 2016?".

This package reproduces the ICDCS 2017 measurement study by Jiang et al.
It contains:

* :mod:`repro.metrics` -- energy-proportionality (EP) and energy-efficiency
  (EE) metrics, curve analysis, correlation and regression tools.
* :mod:`repro.power` -- component-level server power models (CPU with DVFS,
  DRAM, disks, fans, PSU) and frequency governors.
* :mod:`repro.ssj` -- a discrete-event SPECpower_ssj2008-style benchmark
  simulator (calibration, graduated load levels, power metering, reports),
  the oracle the tests hold the analytic Table II sweeps to.
* :mod:`repro.dataset` -- a calibrated synthetic corpus of 477 SPECpower
  results matching the statistical shape of the published results the
  paper analyses.
* :mod:`repro.analysis` -- the paper's analyses: hardware-availability-year
  reorganization, trend statistics, CDFs, grouping, peak-EE shifting,
  asynchrony, and the idle-power regression (Eq. 2).
* :mod:`repro.hwexp` -- models of the paper's 4-server testbed (Table II)
  and the memory-per-core / DVFS sweep experiments (Figs. 18-21).
* :mod:`repro.cluster` -- Section V operational guidance: EP-aware
  workload placement, power capping, scheduling and trace replay.
* :mod:`repro.core` -- the one-call study pipeline: a declarative
  artifact registry, a parallel execution engine with a
  content-addressed artifact cache, and the Study facade regenerating
  every figure and table in the paper.
* :mod:`repro.api` -- the unified query layer: typed ``QueryRequest``
  families, one dispatch table, and provenance-stamped ``QueryResult``
  envelopes shared by the CLI, :class:`Study`, and the daemon.
* :mod:`repro.serve` -- the async HTTP query daemon (``repro serve``)
  with request coalescing, fleet-query batching, and a response memo.
"""

from repro.api import QueryResult, execute, request_from_dict
from repro.core.cache import ArtifactCache
from repro.core.ensemble import EnsembleResult, run_ensemble
from repro.core.executor import ArtifactExecutor, RunReport
from repro.core.registry import ArtifactSpec
from repro.core.study import FigureResult, Study
from repro.dataset.corpus import Corpus
from repro.dataset.synthesis import generate_corpus
from repro.metrics.ee import overall_score, peak_efficiency
from repro.metrics.ep import energy_proportionality

__version__ = "1.2.0"

__all__ = [
    "ArtifactCache",
    "ArtifactExecutor",
    "ArtifactSpec",
    "Corpus",
    "EnsembleResult",
    "FigureResult",
    "QueryResult",
    "RunReport",
    "Study",
    "__version__",
    "energy_proportionality",
    "execute",
    "generate_corpus",
    "overall_score",
    "peak_efficiency",
    "request_from_dict",
    "run_ensemble",
]
