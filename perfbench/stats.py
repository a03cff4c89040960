"""Percentiles under the ten-beyond rule, and span self-time arithmetic.

A percentile is only reported when at least :data:`MIN_BEYOND` samples
lie beyond it, so a p99 needs 1000 samples.  A failed request enters a
latency sample as ``+inf``: it misses every latency limit, and enough
failures push the percentile itself to infinity.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, List, Sequence, Tuple

INF = float("inf")

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` quantile (0 < q < 1) of ``values``.

    Raises :class:`TooFewSamples` unless at least :data:`MIN_BEYOND`
    samples rank above the chosen one.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    count = len(values)
    rank = max(1, math.ceil(q * count))
    beyond = count - rank
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} of {count} samples has {beyond} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return sorted(values)[rank - 1]


def latencies_with_failures(
    latencies: Iterable[float], failures: int
) -> List[float]:
    """The latency sample with each failure counted as ``+inf``."""
    return list(latencies) + [INF] * failures


def median(values: Sequence[float]) -> float:
    """Plain median of a non-empty sample (no ten-beyond rule)."""
    return statistics.median(values)


def covered_ns(start: int, end: int, intervals: Iterable[Tuple[int, int]]) -> int:
    """Nanoseconds of ``[start, end)`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for lo, hi in intervals
        if hi > start and lo < end
    )
    total = 0
    cursor = start
    for lo, hi in clipped:
        lo = max(lo, cursor)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_time_ns(start: int, end: int, children: Iterable[Tuple[int, int]]) -> int:
    """A span's duration minus the part of it its children cover."""
    return (end - start) - covered_ns(start, end, children)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when the base is empty."""
    return numerator / denominator if denominator else 0.0


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else INF

