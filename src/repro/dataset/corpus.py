"""The corpus: a queryable collection of SPECpower results.

The analyses in Sections III-V repeatedly slice the same population:
by hardware-availability year, by published year, by microarchitecture
family or codename, by node and chip counts, and by memory-per-core
ratio.  :class:`Corpus` provides those slices as cheap filtered views.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from repro.dataset.schema import SpecPowerResult
from repro.power.microarch import Codename, Family


class Corpus:
    """An immutable, order-preserving collection of results.

    Lookup by id is O(1) through an index built at construction, and
    the whole filter API is *chainable*: every filter method
    (:meth:`filter`, :meth:`by_hw_year`, :meth:`by_published_year`,
    :meth:`by_hw_year_range`, :meth:`by_family`, :meth:`by_codename`,
    :meth:`single_node`, :meth:`multi_node`, :meth:`by_nodes`,
    :meth:`by_chips`, :meth:`by_memory_per_core`,
    :meth:`top_fraction_by`) takes only its selection criteria and
    returns a new ``Corpus`` view, so slices compose::

        corpus.by_hw_year_range(2013, 2016).single_node().by_chips(2)

    :meth:`fingerprint` returns a stable content hash of the member
    records (see :mod:`repro.dataset.fingerprint`); the artifact cache
    keys entries on it.
    """

    def __init__(self, results: Iterable[SpecPowerResult]):
        self._results: List[SpecPowerResult] = list(results)
        self._index: Dict[str, int] = {
            result.result_id: position
            for position, result in enumerate(self._results)
        }
        if len(self._index) != len(self._results):
            raise ValueError("duplicate result ids in corpus")
        self._fingerprint: Optional[str] = None
        self._columns = None

    # -- collection protocol -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._results)

    def __iter__(self) -> Iterator[SpecPowerResult]:
        return iter(self._results)

    def __getitem__(self, index: int) -> SpecPowerResult:
        return self._results[index]

    def __contains__(self, result_id: object) -> bool:
        return result_id in self._index

    def get(self, result_id: str) -> SpecPowerResult:
        """The result with this id (O(1)); raises ``KeyError`` if absent."""
        return self._results[self._index[result_id]]

    def fingerprint(self) -> str:
        """Stable sha256 content hash of the member records (memoized)."""
        if self._fingerprint is None:
            from repro.dataset.fingerprint import corpus_fingerprint

            self._fingerprint = corpus_fingerprint(self._results)
        return self._fingerprint

    def results(self) -> List[SpecPowerResult]:
        """A fresh list of the member results."""
        return list(self._results)

    def columns(self):
        """The lazily-built column store over this corpus (memoized).

        Returns a :class:`repro.dataset.columns.CorpusColumns` keyed on
        this corpus' content fingerprint; a cached store whose
        fingerprint no longer matches is rebuilt, so stale column data
        can never be served.  Filtered views are separate ``Corpus``
        objects and build their own stores.
        """
        from repro.dataset.columns import CorpusColumns

        fingerprint = self.fingerprint()
        if self._columns is None or self._columns.fingerprint != fingerprint:
            self._columns = CorpusColumns(self._results, fingerprint)
        return self._columns

    # -- filtering ---------------------------------------------------------------

    def filter(self, predicate: Callable[[SpecPowerResult], bool]) -> "Corpus":
        """A sub-corpus of the results satisfying the predicate."""
        return Corpus(result for result in self._results if predicate(result))

    def by_hw_year(self, year: int) -> "Corpus":
        """Results whose hardware became available in ``year``."""
        return self.filter(lambda r: r.hw_year == year)

    def by_published_year(self, year: int) -> "Corpus":
        """Results submitted in ``year``."""
        return self.filter(lambda r: r.published_year == year)

    def by_hw_year_range(self, first: int, last: int) -> "Corpus":
        """Results with hardware years in [first, last]."""
        return self.filter(lambda r: first <= r.hw_year <= last)

    def by_family(self, family: Family) -> "Corpus":
        """Results of one microarchitecture family (Fig. 6 grouping)."""
        return self.filter(lambda r: r.family is family)

    def by_codename(self, codename: Codename) -> "Corpus":
        """Results of one codename (Fig. 7 grouping)."""
        return self.filter(lambda r: r.codename is codename)

    def single_node(self) -> "Corpus":
        """The single-node systems (403 of 477 in the calibrated corpus)."""
        return self.filter(lambda r: r.is_single_node)

    def multi_node(self) -> "Corpus":
        """The multi-node systems."""
        return self.filter(lambda r: not r.is_single_node)

    def by_nodes(self, nodes: int) -> "Corpus":
        """Results with exactly ``nodes`` nodes."""
        return self.filter(lambda r: r.nodes == nodes)

    def by_chips(self, chips_per_node: int) -> "Corpus":
        """Results with exactly ``chips_per_node`` sockets per node."""
        return self.filter(lambda r: r.chips_per_node == chips_per_node)

    def by_memory_per_core(
        self, ratio: float, tolerance: float = 0.02
    ) -> "Corpus":
        """Results in the Table I bucket around ``ratio`` GB/core."""
        return self.filter(
            lambda r: abs(r.memory_per_core_gb - ratio) <= tolerance
        )

    # -- enumeration ---------------------------------------------------------------

    def hw_years(self) -> List[int]:
        """Distinct hardware-availability years, ascending."""
        return sorted({result.hw_year for result in self._results})

    def published_years(self) -> List[int]:
        """Distinct published years, ascending."""
        return sorted({result.published_year for result in self._results})

    def families(self) -> List[Family]:
        """Distinct microarchitecture families present."""
        seen = {result.family for result in self._results}
        return sorted(seen, key=lambda family: family.value)

    def codenames(self) -> List[Codename]:
        """Distinct codenames present."""
        seen = {result.codename for result in self._results}
        return sorted(seen, key=lambda codename: codename.value)

    def node_counts(self) -> List[int]:
        """Distinct node counts present, ascending."""
        return sorted({result.nodes for result in self._results})

    def chip_counts(self) -> List[int]:
        """Distinct chips-per-node values present, ascending."""
        return sorted({result.chips_per_node for result in self._results})

    # -- aggregate views -------------------------------------------------------------

    def count_by_hw_year(self) -> Dict[int, int]:
        """Result counts per hardware year."""
        return dict(Counter(result.hw_year for result in self._results))

    def count_by_family(self) -> Dict[Family, int]:
        """Result counts per family (Fig. 6)."""
        return dict(Counter(result.family for result in self._results))

    def count_by_codename(self) -> Dict[Codename, int]:
        """Result counts per codename."""
        return dict(Counter(result.codename for result in self._results))

    def eps(self) -> List[float]:
        """Every member's EP, corpus order."""
        return [result.ep for result in self._results]

    def scores(self) -> List[float]:
        """Every member's overall score, corpus order."""
        return [result.overall_score for result in self._results]

    def idle_fractions(self) -> List[float]:
        """Every member's idle power percentage, corpus order."""
        return [result.idle_fraction for result in self._results]

    def top_fraction_by(
        self, key: Callable[[SpecPowerResult], float], fraction: float
    ) -> "Corpus":
        """The top ``fraction`` of the corpus under ``key`` (descending)."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must lie in (0, 1]")
        count = max(1, round(len(self._results) * fraction))
        ranked = sorted(self._results, key=key, reverse=True)
        return Corpus(ranked[:count])
