"""A measured curve read at any utilization.

Section V.C: "if a server has peak energy efficiency at 70% utilization
... the 70% to 100% utilization region is better working region".
Job scheduling, procurement and the placement oracle read a server's
power, throughput and efficiency between the eleven measured levels;
these interpolators supply them.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.dataset.schema import SpecPowerResult


def efficiency_levels(result: SpecPowerResult) -> List[Tuple[float, float]]:
    """(utilization, ops/W) per measured level, ascending utilization."""
    return [
        (level.target_load, level.efficiency) for level in result.sorted_levels()
    ]


def efficiency_at(result: SpecPowerResult, utilization: float) -> float:
    """Linearly interpolated ops/W at any utilization in (0, 1]."""
    if not 0.0 < utilization <= 1.0:
        raise ValueError("utilization must lie in (0, 1]")
    levels = efficiency_levels(result)
    loads = [u for u, _ in levels]
    effs = [ee for _, ee in levels]
    return float(np.interp(utilization, loads, effs))


def power_at(result: SpecPowerResult, utilization: float) -> float:
    """Linearly interpolated wall power at any utilization in [0, 1]."""
    loads, powers = result.curve()
    if not 0.0 <= utilization <= 1.0:
        raise ValueError("utilization must lie in [0, 1]")
    return float(np.interp(utilization, loads, powers))


def throughput_at(result: SpecPowerResult, utilization: float) -> float:
    """Interpolated ssj_ops/s at a utilization (0 at idle)."""
    levels = result.sorted_levels()
    loads = [0.0] + [level.target_load for level in levels]
    ops = [0.0] + [level.ssj_ops for level in levels]
    return float(np.interp(utilization, loads, ops))
