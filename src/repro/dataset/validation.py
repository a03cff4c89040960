"""Corpus linting: integrity checks for externally supplied data.

Users can load their own result sets (CSV via :mod:`repro.dataset.io`)
and push them through the analyses.  The analyses assume FDR-shaped data;
:func:`validate_corpus` checks those assumptions explicitly and returns
human-readable findings instead of letting a malformed record surface
as a cryptic numerical artifact three layers deeper.

Severity levels:

* ``error`` -- the record violates an assumption the metrics rely on
  (non-monotone power curve, throughput not tracking target load, EP
  outside its mathematical range);
* ``warning`` -- legal but suspicious (idle above 95% of peak power,
  published year far from availability, efficiency ties).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.dataset.corpus import Corpus
from repro.dataset.schema import SpecPowerResult


@dataclass(frozen=True)
class Finding:
    """One validation finding."""

    result_id: str
    severity: str  # "error" | "warning"
    message: str

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"[{self.severity}] {self.result_id}: {self.message}"


def _check_levels(result: SpecPowerResult, findings: List[Finding]) -> None:
    loads = [level.target_load for level in result.sorted_levels()]
    expected = [round(0.1 * i, 1) for i in range(1, 11)]
    if loads != expected:
        findings.append(
            Finding(
                result.result_id,
                "error",
                f"non-standard target loads {loads} (expected 10%..100%)",
            )
        )


def _check_power_monotone(result: SpecPowerResult, findings: List[Finding]) -> None:
    _loads, powers = result.curve()
    drops = [
        (a, b) for a, b in zip(powers, powers[1:]) if b < a * (1.0 - 0.02)
    ]
    if drops:
        findings.append(
            Finding(
                result.result_id,
                "error",
                f"power decreases with load at {len(drops)} step(s) "
                f"(beyond metering tolerance)",
            )
        )


def _check_throughput_tracks_load(
    result: SpecPowerResult, findings: List[Finding]
) -> None:
    levels = result.sorted_levels()
    top = levels[-1]
    implied_max = top.ssj_ops / top.target_load
    for level in levels:
        expected = implied_max * level.target_load
        if expected <= 0:
            continue
        if abs(level.ssj_ops - expected) > 0.25 * expected:
            findings.append(
                Finding(
                    result.result_id,
                    "error",
                    f"throughput at {level.target_load:.0%} off the target "
                    f"by {(level.ssj_ops / expected - 1):+.0%}",
                )
            )
            return


def _check_ep_range(result: SpecPowerResult, findings: List[Finding]) -> None:
    if not 0.0 <= result.ep < 2.0:
        findings.append(
            Finding(
                result.result_id,
                "error",
                f"EP {result.ep:.3f} outside [0, 2)",
            )
        )
    bound = 2.0 * (1.0 - result.idle_fraction)
    if result.ep > bound + 1e-6:
        findings.append(
            Finding(
                result.result_id,
                "error",
                f"EP {result.ep:.3f} exceeds the idle bound {bound:.3f}",
            )
        )


def _check_suspicious(result: SpecPowerResult, findings: List[Finding]) -> None:
    if result.idle_fraction > 0.95:
        findings.append(
            Finding(
                result.result_id,
                "warning",
                f"idle power is {result.idle_fraction:.0%} of peak",
            )
        )
    lag = result.publication_lag_years
    if lag > 6 or lag < -1:
        findings.append(
            Finding(
                result.result_id,
                "warning",
                f"publication lag of {lag} years is outside the published "
                f"population's range",
            )
        )
    if len(result.peak_ee_spots) > 2:
        findings.append(
            Finding(
                result.result_id,
                "warning",
                f"{len(result.peak_ee_spots)} tied peak-efficiency levels",
            )
        )
    if result.memory_per_core_gb > 32.0:
        findings.append(
            Finding(
                result.result_id,
                "warning",
                f"{result.memory_per_core_gb:.1f} GB/core is implausibly high",
            )
        )


def validate_result(result: SpecPowerResult) -> List[Finding]:
    """Lint one result."""
    findings: List[Finding] = []
    _check_levels(result, findings)
    _check_power_monotone(result, findings)
    _check_throughput_tracks_load(result, findings)
    _check_ep_range(result, findings)
    _check_suspicious(result, findings)
    return findings


def validate_corpus(corpus: Corpus) -> List[Finding]:
    """Lint every result; an empty list means a clean corpus."""
    findings: List[Finding] = []
    for result in corpus:
        findings.extend(validate_result(result))
    return findings


def errors_only(findings: List[Finding]) -> List[Finding]:
    """Just the error-severity findings."""
    return [finding for finding in findings if finding.severity == "error"]
