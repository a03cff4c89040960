"""Comparison of the proportionality-metric family (Hsu & Poole).

Ref. [16] of the paper compares "a wide range of metrics for measuring
energy proportionality, such as ER, EP, IPR, and LD".  This module
computes the whole family over a corpus and their mutual (rank)
correlation matrix, making the metric-choice question the prior work
debates inspectable:

* EP and ER must agree perfectly (both are monotone transforms of the
  same curve area);
* IPR anti-correlates strongly with EP (the Eq. 2 mechanism);
* LD captures *shape* information the scalar metrics ignore -- two
  servers with equal EP can differ in LD (Section III.C's point about
  the two EP=0.75 curves).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.dataset.corpus import Corpus
from repro.metrics.correlation import spearman

#: Metric extractors over one result's power curve.
METRIC_FAMILY = ("ep", "er", "ipr", "ld", "pg_low")


@dataclass(frozen=True)
class MetricTable:
    """Every family metric for every server."""

    ids: Tuple[str, ...]
    values: Dict[str, Tuple[float, ...]]

    def column(self, metric: str) -> List[float]:
        """One metric's values, corpus order."""
        return list(self.values[metric])


def metric_table(corpus: Corpus) -> MetricTable:
    """The full metric family over the corpus.

    Read from the corpus columns' memoized array pass
    (:meth:`repro.dataset.columns.CorpusColumns.curve_metrics`), so
    every caller on one corpus shares a single computation.
    """
    columns = corpus.columns()
    metrics = columns.curve_metrics()
    return MetricTable(
        ids=tuple(columns.array("result_id").tolist()),
        values={
            metric: tuple(getattr(metrics, metric).tolist())
            for metric in METRIC_FAMILY
        },
    )


def rank_correlation_matrix(
    corpus: Corpus,
) -> Dict[Tuple[str, str], float]:
    """Spearman correlations between every pair of family metrics."""
    table = metric_table(corpus)
    matrix: Dict[Tuple[str, str], float] = {}
    for i, a in enumerate(METRIC_FAMILY):
        for b in METRIC_FAMILY[i:]:
            value = (
                1.0
                if a == b
                else spearman(table.column(a), table.column(b))
            )
            matrix[(a, b)] = value
            matrix[(b, a)] = value
    return matrix


def equal_ep_different_ld(
    corpus: Corpus, ep_tolerance: float = 0.01, ld_gap: float = 0.03
) -> List[Tuple[str, str]]:
    """Pairs of servers with (near-)equal EP but clearly different LD.

    These are the pairs Section III.C uses to argue that the scalar EP
    conceals shape: same headline number, different curve.
    """
    table = metric_table(corpus)
    entries = sorted(
        zip(table.ids, table.column("ep"), table.column("ld")),
        key=lambda row: row[1],
    )
    pairs: List[Tuple[str, str]] = []
    for (id_a, ep_a, ld_a), (id_b, ep_b, ld_b) in zip(entries, entries[1:]):
        if abs(ep_a - ep_b) <= ep_tolerance and abs(ld_a - ld_b) >= ld_gap:
            pairs.append((id_a, id_b))
    return pairs
