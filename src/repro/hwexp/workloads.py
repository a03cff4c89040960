"""Per-workload EP/EE characterization of a testbed server.

Implements the paper's Section VII future-work agenda and the Section
V.C caveat ("for specific applications, the server may exhibit energy
proportionality and energy efficiency curve different from that of
SPECpower workload"): the same physical server, driven by different
workload variants (:mod:`repro.ssj.variants`), yields different
power--utilization and efficiency curves and therefore different EP.

The characterization evaluates the models analytically, as the
Table II sweeps do; :mod:`repro.hwexp.reference` keeps the
discrete-event route as the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence

from repro.hwexp.testbed import TestbedServer
from repro.metrics.ee import peak_efficiency_spots
from repro.metrics.ep import TARGET_LOADS_DESCENDING, energy_proportionality
from repro.power.governors import OndemandGovernor
from repro.ssj.variants import WorkloadVariant


@dataclass(frozen=True)
class WorkloadCharacterization:
    """One (server, workload) energy characterization."""

    server_name: str
    workload: str
    utilization: tuple
    power_w: tuple
    throughput_ops: tuple
    active_idle_w: float
    ep: float
    overall_ee: float
    peak_spots: tuple


def _configured(server: TestbedServer, variant: WorkloadVariant):
    """Power model and throughput profile tuned to the workload."""
    power_model = server.power_model()
    power_model.memory_intensity_ratio = variant.memory_intensity
    profile = replace(server.profile, compute_fraction=variant.compute_fraction)
    return power_model, profile


def characterize(
    server: TestbedServer, variant: WorkloadVariant
) -> WorkloadCharacterization:
    """Measure one server's EP/EE curves under one workload."""
    power_model, profile = _configured(server, variant)
    governor = OndemandGovernor()
    cpu = power_model.cpus[0]
    cores = server.total_cores
    top = governor.select_frequency(cpu, 1.0)
    max_ops = cores * profile.ops_per_second_per_core(top)
    loads = [0.0] + sorted(TARGET_LOADS_DESCENDING)
    powers = []
    ops = []
    for load in loads:
        frequency = governor.select_frequency(cpu, load)
        capacity = cores * profile.ops_per_second_per_core(frequency)
        achieved = min(load * max_ops, capacity)
        utilization = min(1.0, (load * max_ops) / capacity)
        powers.append(power_model.wall_power_w(utilization, frequency))
        if load > 0.0:
            ops.append(achieved)
    return WorkloadCharacterization(
        server_name=server.name,
        workload=variant.name,
        utilization=tuple(loads),
        power_w=tuple(powers),
        throughput_ops=tuple(ops),
        active_idle_w=powers[0],
        ep=energy_proportionality(loads, powers),
        overall_ee=sum(ops) / sum(powers),
        peak_spots=tuple(peak_efficiency_spots(loads[1:], ops, powers[1:])),
    )


def compare_workloads(
    server: TestbedServer, variants: Sequence[WorkloadVariant]
) -> Dict[str, WorkloadCharacterization]:
    """Characterize one server under several workloads."""
    results: Dict[str, WorkloadCharacterization] = {}
    for variant in variants:
        results[variant.name] = characterize(server, variant)
    return results


def ep_spread(results: Dict[str, WorkloadCharacterization]) -> float:
    """Largest EP difference across the characterized workloads."""
    values: List[float] = [r.ep for r in results.values()]
    if not values:
        raise ValueError("no characterizations to compare")
    return max(values) - min(values)
