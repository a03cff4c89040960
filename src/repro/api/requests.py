"""The typed query surface: one frozen request dataclass per family.

Every way of asking this repo a question -- a CLI subcommand, a
:meth:`repro.core.study.Study.query` call, an HTTP ``POST /query`` to
the :mod:`repro.serve` daemon -- builds one of these requests and
hands it to :func:`repro.api.dispatch.execute`.  A request is a frozen
dataclass with explicit ``seed`` / ``format`` fields, validated at
construction, so there is exactly one place where argument plumbing
and defaulting happen.  Validation starts from the field annotations:
a value of the wrong type (``bool`` for a number, ``2.5`` for an int,
``"0.5"`` for a float, ``None`` for a non-``Optional`` field) or a
non-finite float is refused with ``ValueError`` -- never coerced, so a
valid request's spec key is exactly what the caller sent.  No request
names a fleet engine: the cluster layer picks one per fleet, and
provenance reports which one ran.

Identity: :func:`canonical_spec` renders the request as canonical JSON
*excluding* ``format`` (a rendering preference).  The spec hash
derived from it keys the artifact cache, the daemon's coalescing map,
and its response memo.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, Optional, Tuple, Type

#: Accepted ``format`` values (CLI rendering preference).
FORMATS = ("text", "json")

#: Placement policies understood by the fleet query families.
POLICIES = ("ep-aware", "pack-to-full")

#: Metrics the stats/cdf families can slice.
METRICS = ("ep", "score", "peak_ee", "idle_fraction", "memory_per_core_gb")

#: Groupings the group family understands.
GROUP_KEYS = ("family", "codename", "memory_per_core")

#: Field annotation -> the Python types its values may have.  ``bool``
#: is an ``int`` subclass, so it is refused for every non-bool field.
_FIELD_TYPES: Dict[str, Tuple[type, ...]] = {
    "int": (int,),
    "float": (int, float),
    "str": (str,),
    "bool": (bool,),
}


@dataclass(frozen=True)
class QueryRequest:
    """Base of every query family.

    Subclasses set the class-level ``family`` tag plus three traits:
    ``servable`` (the daemon accepts it), ``cacheable`` (results may be
    memoized / written to the artifact cache), and ``needs_corpus``
    (the handler touches the seeded corpus, so provenance carries its
    fingerprint).  Instances are frozen and validated on construction.
    """

    family: ClassVar[str] = ""
    servable: ClassVar[bool] = True
    cacheable: ClassVar[bool] = True
    needs_corpus: ClassVar[bool] = True

    seed: int = 2016
    format: str = "text"

    def __post_init__(self) -> None:
        for name, kind, optional in _field_kinds(type(self)):
            _check_type(name, kind, optional, getattr(self, name))
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.format not in FORMATS:
            raise ValueError(
                f"unknown format {self.format!r}; choose from {list(FORMATS)}"
            )
        self.validate()

    def validate(self) -> None:
        """Family-specific field validation; raises ``ValueError``."""

    def spec_fields(self) -> Dict[str, Any]:
        """The identity-bearing fields (all but ``format``)."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "format"
        }

    def to_dict(self) -> Dict[str, Any]:
        """The wire form: every field plus the ``family`` tag."""
        payload: Dict[str, Any] = {"family": type(self).family}
        for f in fields(self):
            payload[f.name] = getattr(self, f.name)
        return payload


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


@functools.lru_cache(maxsize=None)
def _field_kinds(cls: type) -> Tuple[Tuple[str, str, bool], ...]:
    """``(name, kind, optional)`` of each field, read off its annotation."""
    kinds = []
    for f in fields(cls):
        optional = f.type.startswith("Optional[")
        kind = f.type[len("Optional["):-1] if optional else f.type
        kinds.append((f.name, kind, optional))
    return tuple(kinds)


def _check_type(name: str, kind: str, optional: bool, value: Any) -> None:
    """Refuse a field value its annotation does not admit, or a NaN/inf."""
    if value is None:
        if not optional:
            raise ValueError(f"{name} must not be null")
    elif not isinstance(value, _FIELD_TYPES[kind]) or (
        kind != "bool" and isinstance(value, bool)
    ):
        raise ValueError(
            f"{name} must be of type {kind}, got {type(value).__name__}"
        )
    elif kind == "float" and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ListArtifactsQuery(QueryRequest):
    """Enumerate the registered artifacts (``repro list``)."""

    family: ClassVar[str] = "list"
    cacheable: ClassVar[bool] = False
    needs_corpus: ClassVar[bool] = False


@dataclass(frozen=True)
class ArtifactQuery(QueryRequest):
    """Regenerate one registered artifact (``repro figure <id>``)."""

    family: ClassVar[str] = "artifact"

    artifact_id: str = ""

    def validate(self) -> None:
        """Require a non-empty artifact id."""
        _require(bool(self.artifact_id), "artifact_id must be non-empty")


@dataclass(frozen=True)
class StatsQuery(QueryRequest):
    """Summary statistics of one metric over a corpus slice."""

    family: ClassVar[str] = "stats"

    metric: str = "ep"
    hw_year_min: Optional[int] = None
    hw_year_max: Optional[int] = None

    def validate(self) -> None:
        """Require a known metric and an ordered year range."""
        _require(
            self.metric in METRICS,
            f"unknown metric {self.metric!r}; choose from {list(METRICS)}",
        )
        if self.hw_year_min is not None and self.hw_year_max is not None:
            _require(
                self.hw_year_min <= self.hw_year_max,
                "hw_year_min must not exceed hw_year_max",
            )


@dataclass(frozen=True)
class CdfQuery(QueryRequest):
    """Empirical-CDF landmarks of one metric (Fig. 5 family)."""

    family: ClassVar[str] = "cdf"

    metric: str = "ep"
    lo: Optional[float] = None
    hi: Optional[float] = None

    def validate(self) -> None:
        """Require a known metric and an ordered [lo, hi) band."""
        _require(
            self.metric in METRICS,
            f"unknown metric {self.metric!r}; choose from {list(METRICS)}",
        )
        _require(
            (self.lo is None) == (self.hi is None),
            "pass both of lo/hi or neither",
        )
        if self.lo is not None and self.hi is not None:
            _require(self.lo < self.hi, "need lo < hi")


@dataclass(frozen=True)
class GroupQuery(QueryRequest):
    """Population/EP breakdown by family, codename, or GB-per-core."""

    family: ClassVar[str] = "group"

    by: str = "family"

    def validate(self) -> None:
        """Require a known grouping key."""
        _require(
            self.by in GROUP_KEYS,
            f"unknown grouping {self.by!r}; choose from {list(GROUP_KEYS)}",
        )


@dataclass(frozen=True)
class PlacementQuery(QueryRequest):
    """A placement what-if at one demand level (Section V.C)."""

    family: ClassVar[str] = "placement"

    policy: str = "ep-aware"
    demand_fraction: float = 0.5
    hw_year_min: int = 2013
    hw_year_max: int = 2016
    servers: Optional[int] = None
    power_off_unused: bool = False

    def validate(self) -> None:
        """Require a known policy, a sane demand, an ordered cohort."""
        _require(
            self.policy in POLICIES,
            f"unknown policy {self.policy!r}; choose from {list(POLICIES)}",
        )
        _require(
            0.0 <= self.demand_fraction <= 1.0,
            "demand_fraction must lie in [0, 1]",
        )
        _require(
            self.hw_year_min <= self.hw_year_max,
            "hw_year_min must not exceed hw_year_max",
        )
        _require(
            self.servers is None or self.servers > 0,
            "servers must be positive when given",
        )


@dataclass(frozen=True)
class CapQuery(QueryRequest):
    """``max_throughput_under_cap`` under a fixed power budget."""

    family: ClassVar[str] = "cap"

    power_cap_w: float = 0.0
    policy: str = "ep-aware"
    hw_year_min: int = 2013
    hw_year_max: int = 2016
    servers: Optional[int] = None
    power_off_unused: bool = False

    def validate(self) -> None:
        """Require a positive cap, known policy, ordered cohort."""
        _require(self.power_cap_w > 0.0, "power_cap_w must be positive")
        _require(
            self.policy in POLICIES,
            f"unknown policy {self.policy!r}; choose from {list(POLICIES)}",
        )
        _require(
            self.hw_year_min <= self.hw_year_max,
            "hw_year_min must not exceed hw_year_max",
        )
        _require(
            self.servers is None or self.servers > 0,
            "servers must be positive when given",
        )


@dataclass(frozen=True)
class ReplayQuery(QueryRequest):
    """A diurnal-day trace replay over a tiled fleet."""

    family: ClassVar[str] = "replay"

    servers: int = 1000
    steps: int = 96
    policy: str = "ep-aware"
    power_off_unused: bool = False
    hw_year_min: int = 2016
    hw_year_max: int = 2016

    def validate(self) -> None:
        """Require positive sizes, a known policy, ordered cohort."""
        _require(self.servers > 0, "servers must be positive")
        _require(self.steps >= 4, "need at least four trace steps")
        _require(
            self.policy in POLICIES,
            f"unknown policy {self.policy!r}; choose from {list(POLICIES)}",
        )
        _require(
            self.hw_year_min <= self.hw_year_max,
            "hw_year_min must not exceed hw_year_max",
        )


@dataclass(frozen=True)
class SweepQuery(QueryRequest):
    """A Table II memory x frequency sweep (``repro sweep N``)."""

    family: ClassVar[str] = "sweep"
    needs_corpus: ClassVar[bool] = False

    server: int = 4

    def validate(self) -> None:
        """Require a Table II server number."""
        _require(
            self.server in (1, 2, 3, 4),
            f"unknown testbed server {self.server}; choose from [1, 2, 3, 4]",
        )


@dataclass(frozen=True)
class EnsembleQuery(QueryRequest):
    """The paper's claims rows across seeds (``repro ensemble``)."""

    family: ClassVar[str] = "ensemble"
    servable: ClassVar[bool] = False  # spawns a process pool
    cacheable: ClassVar[bool] = False

    seeds: int = 5
    jobs: int = 1
    per_seed: bool = False

    def validate(self) -> None:
        """Require positive ensemble size and worker count."""
        _require(self.seeds > 0, "seeds must be positive")
        _require(self.jobs > 0, "jobs must be positive")


@dataclass(frozen=True)
class GenerateQuery(QueryRequest):
    """Write the calibrated corpus to CSV (``repro generate``)."""

    family: ClassVar[str] = "generate"
    servable: ClassVar[bool] = False  # writes to the local filesystem
    cacheable: ClassVar[bool] = False

    out: str = "corpus.csv"


@dataclass(frozen=True)
class ValidateQuery(QueryRequest):
    """Lint a corpus CSV for integrity problems (``repro validate``)."""

    family: ClassVar[str] = "validate"
    servable: ClassVar[bool] = False  # reads the local filesystem
    cacheable: ClassVar[bool] = False
    needs_corpus: ClassVar[bool] = False

    path: str = ""

    def validate(self) -> None:
        """Require a corpus path."""
        _require(bool(self.path), "path must be non-empty")


@dataclass(frozen=True)
class ReportQuery(QueryRequest):
    """Write the paper-vs-measured report (``repro report``)."""

    family: ClassVar[str] = "report"
    servable: ClassVar[bool] = False  # writes to the local filesystem
    cacheable: ClassVar[bool] = False

    out: str = "EXPERIMENTS.md"


@dataclass(frozen=True)
class RunAllQuery(QueryRequest):
    """Render every artifact to files (``repro run-all``)."""

    family: ClassVar[str] = "run_all"
    servable: ClassVar[bool] = False  # writes to the local filesystem
    cacheable: ClassVar[bool] = False

    output_dir: str = "artifacts"
    show_report: bool = False
    on_error: str = "raise"
    retry: Optional[int] = None
    timeout_s: Optional[float] = None
    inject: Optional[str] = None
    use_cache: bool = False
    cache_dir: Optional[str] = None

    def validate(self) -> None:
        """Require known failure semantics and positive bounds."""
        _require(
            self.on_error in ("raise", "isolate"),
            "on_error must be 'raise' or 'isolate'",
        )
        _require(
            self.retry is None or self.retry > 0,
            "retry must be positive when given",
        )


@dataclass(frozen=True)
class CacheQuery(QueryRequest):
    """Inspect or empty the artifact cache (``repro cache``)."""

    family: ClassVar[str] = "cache"
    servable: ClassVar[bool] = False  # mutates the local store
    cacheable: ClassVar[bool] = False
    needs_corpus: ClassVar[bool] = False

    action: str = "stats"
    cache_dir: Optional[str] = None

    def validate(self) -> None:
        """Require a known cache action."""
        _require(
            self.action in ("stats", "clear"),
            "action must be 'stats' or 'clear'",
        )


#: Every request family, in catalog order.
REQUEST_TYPES: Tuple[Type[QueryRequest], ...] = (
    ListArtifactsQuery,
    ArtifactQuery,
    StatsQuery,
    CdfQuery,
    GroupQuery,
    PlacementQuery,
    CapQuery,
    ReplayQuery,
    SweepQuery,
    EnsembleQuery,
    GenerateQuery,
    ValidateQuery,
    ReportQuery,
    RunAllQuery,
    CacheQuery,
)

#: family tag -> request type.
FAMILIES: Dict[str, Type[QueryRequest]] = {
    cls.family: cls for cls in REQUEST_TYPES
}

#: The families the cluster batching layer may merge (they share one
#: fleet/engine per cohort).
FLEET_FAMILIES = ("placement", "cap", "replay")

#: Wire fields that address the *transport*, not the query: the serve
#: layer strips these before strict decoding.  ``deadline_ms`` bounds
#: one exchange and never participates in spec identity.
TRANSPORT_FIELDS = ("deadline_ms",)


def request_from_dict(payload: Dict[str, Any]) -> QueryRequest:
    """Build a request from its wire form; strict about field names."""
    if not isinstance(payload, dict):
        raise ValueError("query payload must be a JSON object")
    family = payload.get("family")
    if family not in FAMILIES:
        raise ValueError(
            f"unknown query family {family!r}; "
            f"choose from {sorted(FAMILIES)}"
        )
    cls = FAMILIES[family]
    known = {f.name for f in fields(cls)}
    kwargs = {key: value for key, value in payload.items() if key != "family"}
    unknown = sorted(set(kwargs) - known)
    if unknown:
        hint = ""
        if any(name in TRANSPORT_FIELDS for name in unknown):
            hint = (
                " (transport fields like 'deadline_ms' are only understood "
                "by the serve daemon)"
            )
        raise ValueError(
            f"unknown field(s) {unknown} for query family {family!r}; "
            f"known fields: {sorted(known)}{hint}"
        )
    return cls(**kwargs)


def canonical_spec(request: QueryRequest) -> str:
    """Canonical JSON identity of a request (family + spec fields)."""
    document = {"family": type(request).family}
    document.update(request.spec_fields())
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def spec_suffix(request: QueryRequest) -> str:
    """The artifact-cache id this request's result is stored under.

    Artifact queries reuse the bare artifact id so they share disk
    entries with ``Study.run_all`` warm caches; every other family
    hashes its canonical spec under an ``api:`` namespace.
    """
    if isinstance(request, ArtifactQuery):
        return request.artifact_id
    digest = hashlib.sha256(canonical_spec(request).encode()).hexdigest()
    return f"api:{type(request).family}:{digest[:16]}"
