"""Per-layer metrics, derived from spans, client records and ``/stats``.

:data:`PER_LAYER` is the one list of layer metrics; a traced run prints
every one of them for every workload, with ``0`` where the workload
does not reach that layer (for example, the executor on a serve
workload).  Each comment names the end-to-end metric the layer metric
should move, and on which workload.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from perfbench.stats import TooFewSamples, median, percentile, ratio, self_time_ns
from perfbench.spans import Span

#: (name, unit, better) for every per-layer metric.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    # validity only: how late the open-loop generator handed out requests
    ("loadgen.late_p99_ms", "ms", "lower"),
    # -> p50_ms, capacity_qps, build_warm_s on serve_compute
    ("serve.daemon.overhead_p50_ms", "ms", "lower"),
    ("serve.app.handle_p50_ms", "ms", "lower"),
    ("serve.app.handle_p99_ms", "ms", "lower"),
    ("serve.app.memo_hit_ratio", "ratio", "higher"),
    ("serve.app.encode_ms", "ms", "lower"),
    ("serve.app.response_bytes", "B", "lower"),
    # -> p99_ms on serve_compute
    ("serve.resilience.admit_wait_p99_ms", "ms", "lower"),
    ("serve.resilience.shed", "count", "lower"),
    # -> p50_ms on serve_compute
    ("serve.coalesce.run_p50_ms", "ms", "lower"),
    ("serve.coalesce.coalesced_ratio", "ratio", "higher"),
    ("serve.batch.window_wait_p50_ms", "ms", "lower"),
    ("serve.batch.merge_ratio", "ratio", "higher"),
    ("serve.batch.group_size_mean", "count", "higher"),
    # -> p50_ms, capacity_qps, setup_s, peak_rss_mb on serve_compute
    ("serve.workers.exchange_p50_ms", "ms", "lower"),
    ("serve.workers.ipc_p50_ms", "ms", "lower"),
    ("serve.workers.restarts", "count", "lower"),
    # -> p99_ms, capacity_qps on serve_compute; p50_ms on offline_build
    ("api.dispatch.execute_self_ms", "ms", "lower"),
    ("api.dispatch.engine_builds", "count", "lower"),
    ("api.dispatch.engine_build_ms", "ms", "lower"),
    ("api.dispatch.fleet_tile_ms", "ms", "lower"),
    # -> capacity_qps, p99_ms on serve_compute; replay_s on offline_build
    ("cluster.place_ms", "ms", "lower"),
    ("cluster.cap_ms", "ms", "lower"),
    ("cluster.replay_ms", "ms", "lower"),
    ("cluster.sharded_replay_s", "s", "lower"),
    ("cluster.server_steps_per_s", "1/s", "higher"),
    # -> build_cold_s on offline_build
    ("core.executor.run_s", "s", "lower"),
    ("core.executor.built", "count", "lower"),
    ("core.executor.cache_hits", "count", "higher"),
    ("core.executor.slowest_artifact_s", "s", "lower"),
    # -> build_warm_s (get) and build_cold_s (put) on offline_build
    ("core.cache.get_ms", "ms", "lower"),
    ("core.cache.hit_ratio", "ratio", "higher"),
    ("core.cache.put_ms", "ms", "lower"),
    ("core.cache.bytes_written", "B", "lower"),
    # -> setup_s on every workload, build_warm_s on offline_build
    ("dataset.generate_corpus_s", "s", "lower"),
    ("dataset.columns_s", "s", "lower"),
    ("dataset.fingerprint_ms", "ms", "lower"),
)

#: End-to-end metrics whose tracing cost a traced run reports (all).
OVERHEAD_OF = ("setup_s", "capacity_qps", "p50_ms", "p99_ms", "ok_ratio",
               "peak_rss_mb", "build_cold_s", "build_warm_s", "replay_s")

Stats = Dict[str, Any]


def overhead_names() -> List[str]:
    return [f"trace.overhead_ratio.{name}" for name in OVERHEAD_OF]


def overhead(traced: Dict[str, float], untraced: Dict[str, float],
             better: Dict[str, str]) -> Dict[str, float]:
    """Cost of tracing per metric: > 1 means the traced run did worse.

    Base: the untraced pass of the same run.  For a higher-is-better
    metric the ratio is untraced / traced, otherwise traced / untraced.
    """
    out = {}
    for name in OVERHEAD_OF:
        a, b = traced[name], untraced[name]
        out[f"trace.overhead_ratio.{name}"] = (
            ratio(b, a) if better[name] == "higher" else ratio(a, b)
        )
    return out


def _ms(ns: float) -> float:
    return ns / 1e6


def _p(values: Sequence[float], q: float, notes: List[str], what: str) -> float:
    """Median (plain, any sample size) or a tail percentile (ten-beyond rule)."""
    if not values:
        return 0.0
    if q == 0.5:
        return median(values)
    try:
        return percentile(values, q)
    except TooFewSamples as exc:
        notes.append(f"{what}: {exc}")
        return 0.0


def _duration(span: Span) -> int:
    return span[5] - span[4]


class SpanIndex:
    """Spans grouped by name and by parent, for self-time and pairing."""

    def __init__(self, spans: Iterable[Span]) -> None:
        self.spans = list(spans)
        self.by_name: Dict[str, List[Span]] = defaultdict(list)
        self.children: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            self.by_name[span[3]].append(span)
            if span[1] is not None:
                self.children[span[1]].append(span)
        self._names = {span[0]: span[3] for span in self.spans}

    def named(self, name: str) -> List[Span]:
        return self.by_name.get(name, [])

    def top_level(self, name: str, family: str) -> List[Span]:
        """``name`` spans not nested under another ``family.*`` span."""
        return [s for s in self.named(name)
                if s[1] is None or not self._names.get(s[1], "").startswith(family)]

    def self_ns(self, span: Span) -> int:
        kids = [(c[4], c[5]) for c in self.children.get(span[0], [])]
        return self_time_ns(span[4], span[5], kids)

    def durations_ms(self, spans: Iterable[Span]) -> List[float]:
        return [_ms(_duration(s)) for s in spans]


def _attr(span: Span, key: str, default: Any = None) -> Any:
    return (span[6] or {}).get(key, default)


def common_layers(index: SpanIndex, notes: List[str]) -> Dict[str, float]:
    """Dispatch, cluster, cache and dataset metrics (any process)."""
    out: Dict[str, float] = {}
    executes = index.named("api.dispatch.execute")
    out["api.dispatch.execute_self_ms"] = _p(
        [_ms(index.self_ns(s)) for s in executes], 0.5, notes, "execute self")
    builds = [s for s in index.named("api.dispatch.engine") if _attr(s, "miss")]
    out["api.dispatch.engine_builds"] = float(len(builds))
    out["api.dispatch.engine_build_ms"] = _p(
        index.durations_ms(builds), 0.5, notes, "engine build")
    tiles = [s for s in index.named("api.dispatch.fleet") if _attr(s, "miss")]
    out["api.dispatch.fleet_tile_ms"] = _p(
        index.durations_ms(tiles), 0.5, notes, "fleet tile")
    for metric, name in (("cluster.place_ms", "cluster.place"),
                         ("cluster.cap_ms", "cluster.cap"),
                         ("cluster.replay_ms", "cluster.replay")):
        out[metric] = _p(index.durations_ms(index.top_level(name, "cluster.")),
                         0.5, notes, name)
    sharded = index.named("cluster.sharded_replay")
    out["cluster.sharded_replay_s"] = _p(
        [d / 1000.0 for d in index.durations_ms(sharded)], 0.5, notes, "sharded replay")
    replays = index.named("cluster.replay") + sharded
    out["cluster.server_steps_per_s"] = ratio(
        sum(_attr(s, "work", 0) for s in replays),
        sum(_duration(s) for s in replays) / 1e9)
    gets = index.named("core.cache.get")
    puts = index.named("core.cache.put")
    out["core.cache.get_ms"] = _p(index.durations_ms(gets), 0.5, notes, "cache get")
    out["core.cache.hit_ratio"] = ratio(sum(1 for s in gets if _attr(s, "hit")), len(gets))
    out["core.cache.put_ms"] = _p(index.durations_ms(puts), 0.5, notes, "cache put")
    corpora = index.named("dataset.generate_corpus")
    out["dataset.generate_corpus_s"] = _p(
        [d / 1000.0 for d in index.durations_ms(corpora)], 0.5, notes, "generate corpus")
    columns = index.top_level("dataset.columns", "dataset.columns")
    out["dataset.columns_s"] = ratio(
        sum(_duration(s) for s in columns) / 1e9, max(1, len(corpora)))
    out["dataset.fingerprint_ms"] = _p(
        index.durations_ms(index.named("dataset.fingerprint")), 0.5, notes,
        "fingerprint")
    return out


def serve_layers(index: SpanIndex, records: Sequence[Any], late_ns: Sequence[int],
                 delta: Stats, notes: List[str]) -> Dict[str, float]:
    """Serve-path metrics for the measured window of one traced daemon.

    ``records`` are the client's view of the same requests (paired with
    ``ServeApp.handle`` spans by request id); ``delta`` is the change
    in ``/stats`` counters across the window.
    """
    out = common_layers(index, notes)
    out["loadgen.late_p99_ms"] = _p([_ms(n) for n in late_ns], 0.99, notes, "lateness")
    handles = index.named("serve.app.handle")
    by_rid = {s[2]: s for s in handles if s[2] is not None}
    overheads = []
    for record in records:
        span = by_rid.get(f"{record.conn_port}:{record.seq}")
        if span is not None and record.ok:
            overheads.append(_ms(record.done_ns - record.sent_ns - _duration(span)))
    out["serve.daemon.overhead_p50_ms"] = _p(overheads, 0.5, notes, "daemon overhead")
    handle_ms = index.durations_ms(handles)
    out["serve.app.handle_p50_ms"] = _p(handle_ms, 0.5, notes, "handle")
    out["serve.app.handle_p99_ms"] = _p(handle_ms, 0.99, notes, "handle")
    out["serve.app.memo_hit_ratio"] = ratio(delta["memo_hits"], delta["queries"])
    out["serve.app.encode_ms"] = _p(
        index.durations_ms(index.named("serve.app.encode")), 0.5, notes, "encode")
    out["serve.app.response_bytes"] = ratio(
        sum(_attr(s, "bytes", 0) for s in handles), len(handles))
    out["serve.resilience.admit_wait_p99_ms"] = _p(
        index.durations_ms(index.named("serve.resilience.admit_wait")), 0.99,
        notes, "admission wait")
    out["serve.resilience.shed"] = float(delta["shed"])
    out["serve.coalesce.run_p50_ms"] = _p(
        index.durations_ms(index.named("serve.coalesce.run")), 0.5, notes, "coalesce")
    out["serve.coalesce.coalesced_ratio"] = ratio(delta["coalesced"], delta["admitted"])

    exchanges = index.named("serve.workers.exchange")
    executes = index.named("api.dispatch.execute")
    group_of: Dict[int, Span] = {}
    for span in exchanges:
        for req in _attr(span, "reqs", []):
            group_of[req] = span
    waits = []
    submits = index.named("serve.batch.submit")
    for span in submits:
        group = group_of.get(_attr(span, "req"))
        if group is not None:
            waits.append(_ms(_duration(span) - _duration(group)))
    out["serve.batch.window_wait_p50_ms"] = _p(waits, 0.5, notes, "batch window wait")
    out["serve.batch.merge_ratio"] = ratio(delta["batched"], len(submits))
    out["serve.batch.group_size_mean"] = ratio(len(submits), delta["batch_groups"])
    out["serve.workers.exchange_p50_ms"] = _p(
        index.durations_ms(exchanges), 0.5, notes, "worker exchange")
    ordered = sorted(executes, key=lambda s: s[4])
    starts = [s[4] for s in ordered]
    ipc = [_ms(_duration(span) - _contained_ns(ordered, starts, span))
           for span in exchanges]
    out["serve.workers.ipc_p50_ms"] = _p(ipc, 0.5, notes, "worker ipc")
    out["serve.workers.restarts"] = float(delta["worker_restarts"])
    return out


def _contained_ns(ordered: Sequence[Span], starts: Sequence[int],
                  outer: Span) -> int:
    """Summed duration of start-ordered spans lying wholly inside ``outer``."""
    total = 0
    for span in ordered[bisect.bisect_left(starts, outer[4]):]:
        if span[4] > outer[5]:
            break
        if span[5] <= outer[5]:
            total += _duration(span)
    return total


def executor_layers(cold_reports: Sequence[Any],
                    warm_reports: Sequence[Any]) -> Dict[str, float]:
    """``RunReport`` figures: medians over the cold (and warm) builds."""
    if not cold_reports:
        return {}
    return {
        "core.executor.run_s": median([r.total_seconds for r in cold_reports]),
        "core.executor.built": median([float(r.built) for r in cold_reports]),
        "core.executor.cache_hits": median(
            [float(r.cache_hits) for r in warm_reports]) if warm_reports else 0.0,
        "core.executor.slowest_artifact_s": median(
            [max(m.seconds for m in r.metrics.values()) for r in cold_reports]),
    }


def cache_bytes_per_build(index: SpanIndex, cold_builds: int) -> Dict[str, float]:
    written = sum(_attr(s, "bytes", 0) for s in index.named("core.cache.put"))
    return {"core.cache.bytes_written": ratio(written, cold_builds)}


def complete(values: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric, 0 for a layer this workload does not reach."""
    out = {name: float(values.get(name, 0.0)) for name, _unit, _b in PER_LAYER}
    for name in overhead_names():
        out[name] = float(values.get(name, 0.0))
    return out


def window(spans: Iterable[Span], start_ns: int, end_ns: int,
           prefixes: Tuple[str, ...]) -> List[Span]:
    """Spans with a ``prefixes`` name inside ``[start, end]``, plus all others."""
    return [s for s in spans
            if not s[3].startswith(prefixes) or (s[4] >= start_ns and s[5] <= end_ns)]


def stats_delta(before: Stats, after: Stats) -> Stats:
    keys = ("queries", "memo_hits", "coalesced", "admitted", "shed",
            "batched", "batch_groups", "worker_restarts", "errors")
    return {key: after.get(key, 0) - before.get(key, 0) for key in keys}


def unit_of(name: str) -> str:
    for metric, unit, _better in PER_LAYER:
        if metric == name:
            return unit
    return "ratio"

