"""The memory-per-core x frequency sweep (Figs. 18-21).

Every cell of the grid configures the server (installed memory, pinned
frequency or the ondemand governor) and measures its energy efficiency
and peak power *analytically*: the power and throughput models are
evaluated at each target load directly, deterministic and fast.  The
cell follows the SPECpower measurement protocol: ten target loads plus
active idle, overall efficiency as the ratio of sums.  The full
discrete-event benchmark of :mod:`repro.ssj` runs the same protocol
with queueing and measurement noise; it lives on as the oracle the
tests hold these cells to (:mod:`repro.hwexp.reference`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.hwexp.testbed import TestbedServer
from repro.metrics.ep import TARGET_LOADS_DESCENDING
from repro.power.governors import FixedFrequencyGovernor, Governor, OndemandGovernor
from repro.power.server import ServerPowerModel

#: Sentinel frequency key for the ondemand governor column.
ONDEMAND = "ondemand"


@dataclass(frozen=True)
class SweepCell:
    """One (memory-per-core, frequency) measurement."""

    memory_per_core_gb: float
    frequency: Union[float, str]
    overall_efficiency: float
    peak_power_w: float
    idle_power_w: float
    max_throughput_ops: float

    @property
    def is_ondemand(self) -> bool:
        return isinstance(self.frequency, str)


@dataclass
class SweepResult:
    """The full grid for one server."""

    server: TestbedServer
    cells: List[SweepCell]

    def cell(
        self, memory_per_core_gb: float, frequency: Union[float, str]
    ) -> SweepCell:
        """Look up one grid cell (frequency may be "ondemand")."""
        for cell in self.cells:
            if abs(cell.memory_per_core_gb - memory_per_core_gb) > 1e-9:
                continue
            if cell.frequency == frequency:
                return cell
            if (
                not cell.is_ondemand
                and not isinstance(frequency, str)
                and abs(float(cell.frequency) - float(frequency)) < 1e-9
            ):
                return cell
        raise KeyError((memory_per_core_gb, frequency))

    def efficiency_by_memory(
        self, frequency: Union[float, str]
    ) -> Dict[float, float]:
        """EE per memory-per-core at one frequency (one Fig. 18-20 line)."""
        return {
            cell.memory_per_core_gb: cell.overall_efficiency
            for cell in self.cells
            if cell.frequency == frequency
        }

    def efficiency_by_frequency(self, memory_per_core_gb: float) -> Dict[float, float]:
        """EE per pinned frequency at one memory configuration."""
        return {
            float(cell.frequency): cell.overall_efficiency
            for cell in self.cells
            if cell.memory_per_core_gb == memory_per_core_gb
            and not cell.is_ondemand
        }

    def peak_power_by_frequency(self, memory_per_core_gb: float) -> Dict[float, float]:
        """Peak power per pinned frequency (the Fig. 21 right axis)."""
        return {
            float(cell.frequency): cell.peak_power_w
            for cell in self.cells
            if cell.memory_per_core_gb == memory_per_core_gb
            and not cell.is_ondemand
        }

    def best_memory_per_core(self) -> float:
        """The EE-best memory configuration at the top frequency."""
        top = max(
            float(cell.frequency) for cell in self.cells if not cell.is_ondemand
        )
        by_memory = self.efficiency_by_memory(top)
        return max(by_memory, key=by_memory.get)

    def ondemand_tracks_top_frequency(self, rtol: float = 0.06) -> bool:
        """Section V.B: ondemand EE within ``rtol`` of the top frequency's."""
        top = max(
            float(cell.frequency) for cell in self.cells if not cell.is_ondemand
        )
        for cell in self.cells:
            if not cell.is_ondemand:
                continue
            reference = self.cell(cell.memory_per_core_gb, top)
            if abs(cell.overall_efficiency - reference.overall_efficiency) > (
                rtol * reference.overall_efficiency
            ):
                return False
        return True


def _analytic_cell(
    server: TestbedServer,
    power_model: ServerPowerModel,
    memory_per_core_gb: float,
    governor: Governor,
    frequency_label: Union[float, str],
) -> SweepCell:
    """Evaluate one cell from the models directly (no event simulation)."""
    profile = server.profile_for(memory_per_core_gb)
    cpu = power_model.cpus[0]
    cores = server.total_cores
    top_frequency = governor.select_frequency(cpu, 1.0)
    max_ops = cores * profile.ops_per_second_per_core(top_frequency)

    total_ops = 0.0
    total_power = 0.0
    peak_power = 0.0
    for load in TARGET_LOADS_DESCENDING:
        frequency = governor.select_frequency(cpu, load)
        # At a pinned lower frequency the same offered load occupies
        # proportionally more core time.
        capacity = cores * profile.ops_per_second_per_core(frequency)
        offered = load * max_ops
        utilization = min(1.0, offered / capacity)
        achieved = min(offered, capacity)
        power = power_model.wall_power_w(utilization, frequency)
        total_ops += achieved
        total_power += power
        peak_power = max(peak_power, power)
    idle_frequency = governor.select_frequency(cpu, 0.0)
    idle_power = power_model.wall_power_w(0.0, idle_frequency)
    total_power += idle_power
    return SweepCell(
        memory_per_core_gb=memory_per_core_gb,
        frequency=frequency_label,
        overall_efficiency=total_ops / total_power,
        peak_power_w=peak_power,
        idle_power_w=idle_power,
        max_throughput_ops=max_ops,
    )


def _grid(
    server: TestbedServer,
    memory_per_core: Optional[Sequence[float]],
    frequencies: Optional[Sequence[float]],
    include_ondemand: bool,
) -> Iterator[Tuple[ServerPowerModel, float, Governor, Union[float, str]]]:
    """Every cell's configuration, in sweep order."""
    memory_list = list(
        server.tested_memory_per_core if memory_per_core is None else memory_per_core
    )
    frequency_list = list(
        server.frequencies_ghz if frequencies is None else frequencies
    )
    for mpc in memory_list:
        capacity = server.memory_gb_for(mpc)
        power_model = server.power_model(memory_gb=capacity)
        columns: List[Tuple[Governor, Union[float, str]]] = [
            (FixedFrequencyGovernor(frequency_ghz=f), f) for f in frequency_list
        ]
        if include_ondemand:
            columns.append((OndemandGovernor(), ONDEMAND))
        for governor, label in columns:
            yield power_model, mpc, governor, label


def run_sweep(
    server: TestbedServer,
    memory_per_core: Optional[Sequence[float]] = None,
    frequencies: Optional[Sequence[float]] = None,
    include_ondemand: bool = True,
) -> SweepResult:
    """Run the full grid for one testbed server."""
    cells = [
        _analytic_cell(server, power_model, mpc, governor, label)
        for power_model, mpc, governor, label in _grid(
            server, memory_per_core, frequencies, include_ondemand
        )
    ]
    return SweepResult(server=server, cells=cells)
