"""Content-addressed on-disk cache for regenerated artifacts.

Every cache entry is one pickled :class:`~repro.core.study.FigureResult`
stored under ``.repro_cache/`` (or any directory you point the cache
at).  The entry key is a sha256 over the triple

    (corpus fingerprint, artifact id, engine version)

so a warm :meth:`Study.run_all <repro.core.study.Study.run_all>` is
near-instant, editing a single figure builder (and bumping
:data:`ENGINE_VERSION`) only invalidates that build logic, and any
change to the corpus — a different seed, an edited record — misses the
cache automatically through the fingerprint.

The cache is defensive: a corrupted, truncated, or stale-format entry
is treated as a miss, deleted, and transparently recomputed by the
executor.  Writes go through a temp file + atomic rename so a crashed
writer can never leave a half-written entry behind.  Store-level I/O
failures (a full disk, a permission change under a running engine)
never crash a run either: reads degrade to misses, and after
:data:`MAX_WRITE_FAILURES` consecutive write errors the cache disables
itself with a warning and the run continues cache-off.  The
``cache.read`` / ``cache.write`` fault-injection sites
(:mod:`repro.core.faults`) exercise exactly these paths.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Union

from repro.core.faults import FaultPlan, fire, should_corrupt
from repro.core.resilience import CacheError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.study import FigureResult

#: Version of the artifact-build logic.  Bump whenever a builder's
#: output changes so stale entries stop matching.
ENGINE_VERSION = "3"

#: Default cache directory, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro_cache"

#: Consecutive write failures tolerated before the store disables
#: itself for the rest of the process (ENOSPC rarely clears mid-run).
MAX_WRITE_FAILURES = 3


def cache_key(fingerprint: str, artifact_id: str,
              engine_version: str = ENGINE_VERSION) -> str:
    """The hex entry key for (corpus fingerprint, artifact, engine)."""
    digest = hashlib.sha256()
    digest.update(fingerprint.encode())
    digest.update(b"|")
    digest.update(artifact_id.encode())
    digest.update(b"|")
    digest.update(engine_version.encode())
    return digest.hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/write counters for one :class:`ArtifactCache`."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    evictions: int = 0
    write_failures: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def lookups(self) -> int:
        """Total probes (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of probes served from disk (0.0 with no probes)."""
        return self.hits / self.lookups if self.lookups else 0.0


class ArtifactCache:
    """Content-addressed pickle store for :class:`FigureResult` entries.

    Thread-safe: the executor's pool probes and writes concurrently,
    so every stats mutation and the disable latch sit under one lock.
    ``faults`` optionally threads a :class:`~repro.core.faults.FaultPlan`
    through the ``cache.read``/``cache.write`` injection sites (the
    ambient plan, if installed, applies even without it).
    """

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR,
                 engine_version: str = ENGINE_VERSION,
                 faults: Optional[FaultPlan] = None):
        self.root = Path(root)
        self.engine_version = engine_version
        self.stats = CacheStats()
        self.faults = faults
        self.disabled = False
        self._lock = threading.Lock()

    def path_for(self, fingerprint: str, artifact_id: str) -> Path:
        """The on-disk path an entry would occupy."""
        key = cache_key(fingerprint, artifact_id, self.engine_version)
        return self.root / f"{key}.pkl"

    def _record_miss(self, note: Optional[str] = None) -> None:
        with self._lock:
            self.stats.misses += 1
            if note is not None:
                self.stats.errors.append(note)

    def get(self, fingerprint: str, artifact_id: str) -> Optional[object]:
        """The cached result, or ``None`` on miss/corruption/I/O error.

        Entries are either ``FigureResult`` artifacts (written by the
        executor) or pickled :class:`repro.api.result.QueryResult`
        envelopes (written by the query dispatch layer); either must
        prove it belongs to the requested key or it is treated as
        corruption.  A corrupt or unreadable entry is evicted so the
        next write replaces it cleanly; a store-level I/O failure
        (permissions, injected ``cache.read`` fault) degrades to a
        plain miss.
        """
        from repro.core.study import FigureResult

        if self.disabled:
            self._record_miss()
            return None
        path = self.path_for(fingerprint, artifact_id)
        try:
            fire("cache.read", self.faults)
        except (CacheError, OSError) as exc:
            self._record_miss(f"{artifact_id}: read fault {exc!r}")
            return None
        try:
            with path.open("rb") as handle:
                result = pickle.load(handle)
        except FileNotFoundError:
            self._record_miss()
            return None
        except Exception as exc:  # corrupted/truncated/stale pickle, EIO
            self._record_miss(f"{artifact_id}: {exc!r}")
            self._evict(path)
            return None
        if should_corrupt("cache.read", self.faults):
            self._record_miss(f"{artifact_id}: injected payload corruption")
            self._evict(path)
            return None
        if not self._payload_matches(result, fingerprint, artifact_id, FigureResult):
            self._record_miss(f"{artifact_id}: entry payload mismatch")
            self._evict(path)
            return None
        with self._lock:
            self.stats.hits += 1
        return result

    def _payload_matches(self, result: object, fingerprint: str,
                         artifact_id: str, figure_type: type) -> bool:
        """Whether a loaded entry proves it belongs to the given key."""
        if isinstance(result, figure_type):
            return result.figure_id == artifact_id
        from repro.api.result import QueryResult

        if isinstance(result, QueryResult):
            expected = cache_key(fingerprint, artifact_id, self.engine_version)
            return result.provenance.spec_key == expected
        return False

    def put(self, fingerprint: str, artifact_id: str,
            result: object) -> Optional[Path]:
        """Persist one result atomically; returns the entry path.

        Never raises on store-level I/O failure: a full disk or revoked
        permission records the error, counts toward the
        :data:`MAX_WRITE_FAILURES` disable latch, and returns ``None``
        — the engine keeps running, merely uncached.
        """
        if self.disabled:
            return None
        path = self.path_for(fingerprint, artifact_id)
        try:
            fire("cache.write", self.faults)
            self.root.mkdir(parents=True, exist_ok=True)
            handle, temp_name = tempfile.mkstemp(
                dir=str(self.root), suffix=".tmp"
            )
        except (CacheError, OSError) as exc:
            self._note_write_failure(artifact_id, exc)
            return None
        try:
            with os.fdopen(handle, "wb") as stream:
                pickle.dump(result, stream, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp_name, path)
        except BaseException as exc:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            if isinstance(exc, (CacheError, OSError)):
                self._note_write_failure(artifact_id, exc)
                return None
            raise  # non-I/O failures (e.g. unpicklable result) are bugs
        with self._lock:
            self.stats.writes += 1
            self.stats.write_failures = 0  # healthy write resets the latch
        return path

    def _note_write_failure(self, artifact_id: str, error: BaseException) -> None:
        """Count a write error; disable the store once they persist."""
        with self._lock:
            self.stats.write_failures += 1
            self.stats.errors.append(f"{artifact_id}: write fault {error!r}")
            if self.stats.write_failures < MAX_WRITE_FAILURES or self.disabled:
                return
            self.disabled = True
        warnings.warn(
            f"artifact cache at {self.root} disabled after "
            f"{MAX_WRITE_FAILURES} consecutive write failures "
            f"(last: {error!r}); continuing cache-off",
            RuntimeWarning,
            stacklevel=3,
        )

    def _evict(self, path: Path) -> None:
        try:
            path.unlink()
            with self._lock:
                self.stats.evictions += 1
        except OSError:  # pragma: no cover - concurrent eviction
            pass

    def entries(self) -> List[Path]:
        """Every entry file currently in the store."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.pkl"))

    def size_bytes(self) -> int:
        """Total bytes held by the store."""
        return sum(path.stat().st_size for path in self.entries())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - concurrent eviction
                pass
        return removed
