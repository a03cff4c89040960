"""The discrete-event oracle for the analytic Table II sweeps.

Mirror of :mod:`repro.dataset.reference` and
:mod:`repro.cluster.reference` for the hardware experiments: the
paper measured its four Table II servers with SPECpower, and the
reproduction substitutes the analytic model of
:mod:`repro.hwexp.sweeps` and :mod:`repro.hwexp.workloads` for that
testbed.  The functions here run the same cells through the full
discrete-event benchmark of :mod:`repro.ssj` instead -- queueing,
calibration and a noisy power analyzer included -- so the tests can
hold the analytic cells to a measurement within its noise.

No production module runs them: every artifact, query and sweep takes
the analytic route.  Only the test suite and the benchmark harness
call into this module.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.hwexp.sweeps import SweepCell, SweepResult, _grid
from repro.hwexp.testbed import TestbedServer
from repro.hwexp.workloads import WorkloadCharacterization, _configured
from repro.metrics.ep import energy_proportionality
from repro.power.governors import Governor, OndemandGovernor
from repro.power.server import ServerPowerModel
from repro.ssj.load_levels import MeasurementPlan
from repro.ssj.runner import SsjRunner
from repro.ssj.variants import WorkloadVariant

#: The measurement plan the simulated cells run when none is given.
DEFAULT_PLAN = MeasurementPlan(interval_s=3.0, ramp_s=0.5)


def simulated_cell(
    server: TestbedServer,
    power_model: ServerPowerModel,
    memory_per_core_gb: float,
    governor: Governor,
    frequency_label: Union[float, str],
    plan: MeasurementPlan,
    seed: int,
) -> SweepCell:
    """Evaluate one cell through the discrete-event benchmark."""
    runner = SsjRunner(
        server=power_model,
        profile=server.profile_for(memory_per_core_gb),
        governor=governor,
        plan=plan,
        seed=seed,
    )
    report = runner.run()
    return SweepCell(
        memory_per_core_gb=memory_per_core_gb,
        frequency=frequency_label,
        overall_efficiency=report.overall_score(),
        peak_power_w=max(level.average_power_w for level in report.levels),
        idle_power_w=report.active_idle_power_w,
        max_throughput_ops=report.calibrated_max_ops_per_s,
    )


def simulate_sweep(
    server: TestbedServer,
    memory_per_core: Optional[Sequence[float]] = None,
    frequencies: Optional[Sequence[float]] = None,
    include_ondemand: bool = True,
    plan: Optional[MeasurementPlan] = None,
    seed: int = 2016,
) -> SweepResult:
    """The :func:`~repro.hwexp.sweeps.run_sweep` grid, every cell simulated."""
    if plan is None:
        plan = DEFAULT_PLAN
    cells = [
        simulated_cell(server, power_model, mpc, governor, label, plan, seed)
        for power_model, mpc, governor, label in _grid(
            server, memory_per_core, frequencies, include_ondemand
        )
    ]
    return SweepResult(server=server, cells=cells)


def simulate_characterization(
    server: TestbedServer,
    variant: WorkloadVariant,
    plan: Optional[MeasurementPlan] = None,
    seed: int = 2016,
) -> WorkloadCharacterization:
    """:func:`~repro.hwexp.workloads.characterize` through the simulator."""
    power_model, profile = _configured(server, variant)
    runner = SsjRunner(
        server=power_model,
        profile=profile,
        governor=OndemandGovernor(),
        plan=plan or DEFAULT_PLAN,
        seed=seed,
        mix=variant.mix,
    )
    report = runner.run()
    loads = [0.0] + sorted(level.target_load for level in report.levels)
    by_load = {level.target_load: level for level in report.levels}
    powers = [report.active_idle_power_w] + [
        by_load[load].average_power_w for load in loads[1:]
    ]
    ops = [by_load[load].throughput_ops_per_s for load in loads[1:]]
    return WorkloadCharacterization(
        server_name=server.name,
        workload=variant.name,
        utilization=tuple(loads),
        power_w=tuple(powers),
        throughput_ops=tuple(ops),
        active_idle_w=report.active_idle_power_w,
        ep=energy_proportionality(loads, powers),
        overall_ee=report.overall_score(),
        peak_spots=tuple(report.peak_efficiency_spots(rtol=5e-3)),
    )
