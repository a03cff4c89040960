"""Correlation coefficients used by the paper's quantitative claims.

The paper reports Pearson correlations between EP and the idle power
percentage (-0.92, Section III.D) and between EP and the overall
SPECpower score (0.741, Section I).  Both are implemented here directly
on numpy primitives so the computation is transparent and dependency
free.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _paired(x: Sequence[float], y: Sequence[float]):
    a = np.asarray(x, dtype=float)
    b = np.asarray(y, dtype=float)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("inputs must be one-dimensional")
    if a.shape != b.shape:
        raise ValueError(
            f"inputs must have equal length, got {a.shape[0]} and {b.shape[0]}"
        )
    if a.shape[0] < 2:
        raise ValueError("correlation needs at least two observations")
    return a, b


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson product-moment correlation coefficient."""
    a, b = _paired(x, y)
    a = a - a.mean()
    b = b - b.mean()
    denominator = float(np.sqrt((a * a).sum() * (b * b).sum()))
    if denominator == 0.0:
        raise ValueError("correlation is undefined for a constant series")
    return float((a * b).sum() / denominator)


def _ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based), with ties sharing their mean rank.

    Each run of equal values in sorted order gets ``(first + last) / 2
    + 1`` over its sorted positions; the ranks are half-integers, so
    every one is exact.
    """
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    lasts = np.append(starts[1:], len(values)) - 1
    ranks = np.empty(len(values), dtype=float)
    ranks[order] = np.repeat(0.5 * (starts + lasts) + 1.0, lasts - starts + 1)
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation (Pearson on average ranks)."""
    a, b = _paired(x, y)
    return pearson(_ranks(a), _ranks(b))
