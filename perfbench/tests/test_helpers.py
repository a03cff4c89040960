"""Tests for the benchmark's own helpers: python3 -m pytest perfbench/tests"""

import asyncio
import itertools
import json
import math
import time

import pytest

from perfbench import check, hostspeed, layers, procs, run, spans, workloads
from perfbench.stats import (
    INF,
    TooFewSamples,
    latencies_with_failures,
    percentile,
    self_time_ns,
    spread,
)


def _take(stream, count):
    return list(itertools.islice(stream, count))


# -- generators ---------------------------------------------------------------


def test_stream_same_seed_same_payloads():
    assert _take(workloads.compute_stream(7), 500) == _take(workloads.compute_stream(7), 500)


def test_stream_other_seed_other_payloads():
    assert _take(workloads.compute_stream(7), 500) != _take(workloads.compute_stream(8), 500)


def test_arrivals_probe_and_offline_seeds_follow_the_seed():
    assert workloads.arrivals(1, "w", 50.0, 5.0) == workloads.arrivals(1, "w", 50.0, 5.0)
    assert workloads.arrivals(1, "w", 50.0, 5.0) != workloads.arrivals(2, "w", 50.0, 5.0)
    assert workloads.compute_probe(3) == workloads.compute_probe(3)
    assert workloads.compute_probe(3) != workloads.compute_probe(4)
    assert workloads.offline_seeds(3, 5) == workloads.offline_seeds(3, 5)
    assert workloads.offline_seeds(3, 5) != workloads.offline_seeds(4, 5)


def test_compute_stream_never_repeats_a_key_nor_a_probe_key():
    payloads = _take(workloads.compute_stream(5), 3000)
    keys = {json.dumps(p, sort_keys=True) for p in payloads}
    assert len(keys) == len(payloads)
    probe = {json.dumps(p, sort_keys=True) for p in workloads.compute_probe(5)}
    assert not keys & probe
    sets = [workloads.compute_probe(5, shift, f"warm-{shift}") for shift in (1, 2, 3)]
    warm = {json.dumps(p, sort_keys=True) for payloads in sets for p in payloads}
    assert len(warm) == 3 * len(probe) and not warm & (keys | probe)


def test_compute_stream_holds_its_mix_in_every_block():
    families = [p["family"] for p in _take(workloads.compute_stream(5), 200)]
    for start in range(0, 200, 20):
        block = families[start:start + 20]
        assert {f: block.count(f) for f in set(block)} == {
            "placement": 10, "cdf": 7, "cap": 1, "replay": 2}


# -- percentiles --------------------------------------------------------------


def test_p99_needs_ten_samples_beyond_it():
    assert percentile(list(range(1000)), 0.99) == 989
    with pytest.raises(TooFewSamples):
        percentile(list(range(999)), 0.99)


def test_median_needs_ten_samples_beyond_it():
    assert percentile(list(range(20)), 0.5) == 9
    with pytest.raises(TooFewSamples):
        percentile(list(range(19)), 0.5)


def test_failures_count_as_infinite_latency():
    ten_failed = latencies_with_failures([1.0] * 990, 10)
    assert percentile(ten_failed, 0.99) == 1.0
    eleven_failed = latencies_with_failures([1.0] * 989, 11)
    assert percentile(eleven_failed, 0.99) == INF
    assert math.isinf(percentile(latencies_with_failures([1.0] * 10, 30), 0.5))


def test_spread_is_interquartile_over_median():
    assert spread([10.0] * 10) == 0.0
    assert spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(3.0 / 10.0)


# -- host speed ---------------------------------------------------------------


def _speed(samples):
    speed = hostspeed.HostSpeed()
    speed.samples = [(t, i * hostspeed.INTERPRETER_REFERENCE_S, a * hostspeed.ARRAY_REFERENCE_S)
                     for t, i, a in samples]
    return speed


def test_slowdowns_are_medians_of_the_nearest_samples():
    speed = _speed([(0.0, 1.0, 1.0), (1.0, 1.0, 1.0), (2.0, 2.0, 1.0), (3.0, 2.0, 3.0),
                    (4.0, 2.0, 3.0), (9.0, 5.0, 5.0)])
    assert speed.slowdowns(3.1) == pytest.approx((2.0, 2.0))  # samples at 1, 2, 3 and 4
    assert speed.slowdowns(-5.0) == pytest.approx((1.5, 1.0))  # the first four
    assert speed.slowdowns(50.0) == pytest.approx((2.0, 3.0))  # the last four
    assert _speed([(0.0, 3.0, 2.0)]).slowdowns(7.0) == pytest.approx((3.0, 2.0))


def test_slowdown_blends_the_kernels_by_array_share():
    speed = _speed([(0.0, 4.0, 1.0)])
    assert speed.slowdown(0.0, 0.0) == pytest.approx(4.0)
    assert speed.slowdown(0.0, 0.5) == pytest.approx(2.0)
    assert speed.slowdown(0.0, 1.0) == pytest.approx(1.0)


def test_scaled_divides_by_the_slowdown_at_the_midpoint():
    speed = _speed([(0.0, 1.0, 1.0)] * 4 + [(10.0, 2.0, 2.0)] * 4)
    assert speed.scaled(1.0, 0.0, 0.5) == pytest.approx(1.0)
    assert speed.scaled(2.0, 9.0, 0.5) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        hostspeed.HostSpeed().slowdowns(0.0)


def test_sampler_process_samples_until_stopped(tmp_path):
    sampler = hostspeed.Sampler(tmp_path / "speed.txt", procs.child_env(run.ROOT, tmp_path))
    process = sampler.process
    deadline = time.monotonic() + 30.0
    while not (tmp_path / "speed.txt").exists() or not (tmp_path / "speed.txt").read_text():
        assert time.monotonic() < deadline
        time.sleep(0.05)
    speed = sampler.stop()
    assert process.poll() is not None
    assert speed.samples and all(i > 0 and a > 0 for _t, i, a in speed.samples)
    assert sampler.stop().samples == speed.samples  # a second stop is harmless


# -- self time ----------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    # children overlap each other and one runs past the parent's end
    assert self_time_ns(0, 100, [(10, 30), (20, 50), (80, 120)]) == 40
    assert self_time_ns(0, 100, []) == 100
    assert self_time_ns(0, 100, [(200, 300)]) == 100
    assert self_time_ns(0, 100, [(0, 100), (10, 20)]) == 0


def test_span_index_self_time_and_top_level():
    parent = (1, None, "r", "api.dispatch.execute", 0, 100, None)
    kids = [(2, 1, "r", "cluster.cap", 10, 60, None),
            (3, 2, "r", "cluster.place", 20, 30, None),
            (4, 1, "r", "cluster.place", 70, 80, None)]
    index = layers.SpanIndex([parent] + kids)
    assert index.self_ns(parent) == 100 - 50 - 10
    assert [s[0] for s in index.top_level("cluster.place", "cluster.")] == [4]


def test_recorder_nests_spans_across_await():
    recorder = spans.Recorder()

    async def inner():
        await asyncio.sleep(0)
        return 3

    async def outer():
        return await traced_inner() + 1

    traced_inner = recorder.wrap(inner, "inner")
    traced_outer = recorder.wrap(outer, "outer", lambda args: {"rid": "c:1"})
    assert asyncio.run(traced_outer()) == 4
    by_name = {span[3]: span for span in recorder.spans}
    assert by_name["inner"][1] == by_name["outer"][0]
    assert by_name["inner"][2] == by_name["outer"][2] == "c:1"
    assert by_name["outer"][4] <= by_name["inner"][4] <= by_name["inner"][5] <= by_name["outer"][5]


# -- answer check and metric lists --------------------------------------------


def test_canonical_ignores_timing_and_worker_only():
    envelope = {"family": "stats", "payload": {"mean": 0.5}, "text": "t",
                "exit_code": 0,
                "provenance": {"spec_key": "k", "wall_time_ms": 1.0, "worker": "w0"}}
    retimed = json.loads(json.dumps(envelope))
    retimed["provenance"].update(wall_time_ms=9.0, worker="-")
    assert check.canonical(envelope) == check.canonical(retimed)
    changed = json.loads(json.dumps(envelope))
    changed["payload"]["mean"] = 0.5000001
    assert check.canonical(envelope) != check.canonical(changed)


def test_benchmark_json_lists_every_metric_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [m[0] for m in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [m[1] for m in run.END_TO_END]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(layers.complete({}))
