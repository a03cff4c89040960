"""The unified query API: ``QueryRequest`` in, ``QueryResult`` out.

Every way of asking this repo a question -- the CLI, an interactive
:class:`~repro.core.study.Study`, the :mod:`repro.serve` daemon --
routes through one dispatch table keyed by frozen request dataclasses:

>>> from repro.api import ReplayQuery, execute
>>> result = execute(ReplayQuery(servers=30, steps=8))
>>> result.payload["unserved_steps"]
0

Requests carry explicit ``seed`` and ``format`` fields; results carry
the structured payload, the terminal text rendering, and a provenance
block (fingerprint, spec key, engine version, the fleet engine that
served the query, cache hit, wall time).

A call without a ``context`` runs in a fresh
:class:`~repro.api.dispatch.QueryContext`, which attaches the corpus
the process already generated for that seed: each seed's corpus is
generated once per process.  ``Study(seed=...)`` still generates its
own.
"""

from repro.api.dispatch import (
    DISPATCH,
    Built,
    QueryContext,
    build_artifact,
    execute,
)
from repro.api.requests import (
    ArtifactQuery,
    CacheQuery,
    CapQuery,
    CdfQuery,
    EnsembleQuery,
    FAMILIES,
    FLEET_FAMILIES,
    FORMATS,
    GenerateQuery,
    GroupQuery,
    ListArtifactsQuery,
    PlacementQuery,
    QueryRequest,
    ReplayQuery,
    ReportQuery,
    RunAllQuery,
    SweepQuery,
    StatsQuery,
    ValidateQuery,
    canonical_spec,
    request_from_dict,
    spec_suffix,
)
from repro.api.result import API_VERSION, Provenance, QueryResult
from repro.api.serialize import jsonify

__all__ = [
    "API_VERSION",
    "ArtifactQuery",
    "Built",
    "CacheQuery",
    "CapQuery",
    "CdfQuery",
    "DISPATCH",
    "EnsembleQuery",
    "FAMILIES",
    "FLEET_FAMILIES",
    "FORMATS",
    "GenerateQuery",
    "GroupQuery",
    "ListArtifactsQuery",
    "PlacementQuery",
    "Provenance",
    "QueryContext",
    "QueryRequest",
    "QueryResult",
    "ReplayQuery",
    "ReportQuery",
    "RunAllQuery",
    "SweepQuery",
    "StatsQuery",
    "ValidateQuery",
    "build_artifact",
    "canonical_spec",
    "execute",
    "jsonify",
    "request_from_dict",
    "spec_suffix",
]
