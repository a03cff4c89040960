"""Harness fidelity: the discrete-event benchmark vs. the analytic path.

Not a paper artifact: validates that the discrete-event benchmark, the
oracle of :mod:`repro.hwexp.reference`, agrees with the analytic sweep
cell, and times a full simulated benchmark run.
"""

import pytest

from repro.hwexp.sweeps import run_sweep
from repro.hwexp.testbed import TESTBED
from repro.power.governors import OndemandGovernor
from repro.ssj.load_levels import MeasurementPlan
from repro.ssj.runner import SsjRunner


def test_simulated_run_matches_analytic_sweep(benchmark):
    server = TESTBED[4]
    mpc = 2.67
    analytic = run_sweep(
        server, memory_per_core=[mpc], frequencies=[2.4], include_ondemand=True
    )

    def simulated_run():
        runner = SsjRunner(
            server=server.power_model(server.memory_gb_for(mpc)),
            profile=server.profile_for(mpc),
            governor=OndemandGovernor(),
            plan=MeasurementPlan(interval_s=3.0, ramp_s=0.5),
        )
        return runner.run()

    report = benchmark(simulated_run)
    simulated_ee = report.overall_score()
    analytic_ee = analytic.cell(mpc, "ondemand").overall_efficiency
    assert simulated_ee == pytest.approx(analytic_ee, rel=0.10)
    assert 0.0 < report.energy_proportionality() < 2.0
