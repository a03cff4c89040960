"""The uniform answer envelope: payload plus provenance.

Every query family returns a :class:`QueryResult` -- the structured
``payload`` (plain dicts/lists/floats), the terminal ``text``
rendering (byte-identical to the pre-redesign CLI output where tests
pin it), a process ``exit_code``, and a :class:`Provenance` block
recording exactly how the answer was produced: corpus fingerprint,
spec key, engine/API versions, the fleet engine that served it,
whether the disk cache hit, and the wall time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict

from repro.api.serialize import jsonify

#: Version of the query API envelope.
API_VERSION = "4"


@dataclass(frozen=True)
class Provenance:
    """How one :class:`QueryResult` came to be."""

    fingerprint: str
    spec_key: str
    engine_version: str
    api_version: str = API_VERSION
    #: The fleet engine that ran: ``columnar`` or ``sharded`` for the
    #: fleet families, ``-`` for every other family.
    fleet_backend: str = "-"
    cache_hit: bool = False
    wall_time_ms: float = 0.0
    #: Which serve worker executed the query: ``w<N>`` under the
    #: process-pool tier, ``-`` for in-thread execution (and for
    #: everything outside the daemon).  Excluded from byte-identity
    #: comparisons across ``--workers`` settings.
    worker: str = "-"

    def to_dict(self) -> Dict[str, Any]:
        """The JSON form of the provenance block."""
        return {
            "fingerprint": self.fingerprint,
            "spec_key": self.spec_key,
            "engine_version": self.engine_version,
            "api_version": self.api_version,
            "fleet_backend": self.fleet_backend,
            "cache_hit": self.cache_hit,
            "wall_time_ms": self.wall_time_ms,
            "worker": self.worker,
        }


@dataclass(frozen=True)
class QueryResult:
    """One answered query: payload + text + provenance + exit code."""

    family: str
    payload: Dict[str, Any] = field(default_factory=dict)
    text: str = ""
    provenance: Provenance = Provenance("", "", "")
    exit_code: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """The JSON envelope (payload passed through :func:`jsonify`)."""
        return {
            "family": self.family,
            "payload": jsonify(self.payload),
            "text": self.text,
            "provenance": self.provenance.to_dict(),
            "exit_code": self.exit_code,
        }

    def to_json(self, indent: int = 2) -> str:
        """The envelope rendered as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)
