"""Answer checks: served (or cached) answers against fresh in-process ones."""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Tuple

#: Provenance fields outside the byte-identity contract: how long the
#: answer took and which worker process produced it.
IGNORED_PROVENANCE = ("wall_time_ms", "worker")


def canonical(envelope: Dict[str, Any]) -> str:
    """An envelope as sorted JSON, minus the timing/worker provenance."""
    document = dict(envelope)
    provenance = dict(document.get("provenance") or {})
    for name in IGNORED_PROVENANCE:
        provenance.pop(name, None)
    document["provenance"] = provenance
    return json.dumps(document, sort_keys=True)


def recheck(samples: Iterable[Tuple[Dict[str, Any], int, bytes]]
            ) -> Tuple[int, List[str]]:
    """Re-run each sampled request through ``repro.api.execute``.

    Returns ``(checked, mismatches)``.  Requests that already failed on
    the wire are skipped: they are counted as failures where they
    happened.
    """
    from repro.api.dispatch import QueryContext, execute
    from repro.api.requests import request_from_dict

    context = QueryContext()
    checked = 0
    mismatches: List[str] = []
    for payload, status, body in samples:
        if status != 200:
            continue
        checked += 1
        expected = execute(request_from_dict(dict(payload)), context).to_dict()
        try:
            served = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            mismatches.append(f"{payload}: response is not JSON")
            continue
        if canonical(served) != canonical(expected):
            mismatches.append(f"{payload}: served answer differs from execute()")
    return checked, mismatches
