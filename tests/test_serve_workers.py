"""The serve worker pool: forked workers, routing, crash recovery."""

import asyncio
import json
import tempfile
import threading

import pytest

from repro.core import faults
from repro.core.faults import FaultPlan, FaultSpec
from repro.serve import EngineWorkerPool, ServeApp
from repro.serve.workers import _Worker

REPLAY = {"family": "replay", "servers": 30, "steps": 8}
STATS = {"family": "stats", "metric": "ep"}
PLACEMENT = {"family": "placement", "servers": 48, "demand_fraction": 0.4}


def drive(app, payloads):
    async def go():
        return [await app.handle_query(dict(p)) for p in payloads]

    return asyncio.run(go())


def pooled_app(workers=2, **kwargs):
    app = ServeApp(workers=workers, **kwargs)
    app.warm()
    return app


def normalized(body):
    """Decode a response, dropping the volatile provenance fields."""
    document = json.loads(body)
    document["provenance"].pop("worker")
    document["provenance"].pop("wall_time_ms")
    return document


class TestPoolExecution:
    def test_responses_bit_identical_to_in_thread(self):
        payloads = [REPLAY, STATS, PLACEMENT]
        pooled = pooled_app(workers=2)
        try:
            pooled_answers = drive(pooled, payloads)
        finally:
            pooled.stop_workers()
        baseline = pooled_app(workers=0)
        baseline_answers = drive(baseline, payloads)
        for (ps, pb), (bs, bb) in zip(pooled_answers, baseline_answers):
            assert ps == bs == 200
            assert normalized(pb) == normalized(bb)

    def test_provenance_carries_worker_stamp(self):
        app = pooled_app(workers=2)
        try:
            [(status, body)] = drive(app, [STATS])
        finally:
            app.stop_workers()
        assert status == 200
        worker = json.loads(body)["provenance"]["worker"]
        assert worker in ("w0", "w1")

    def test_in_thread_provenance_is_unstamped(self):
        app = pooled_app(workers=0)
        [(status, body)] = drive(app, [STATS])
        assert status == 200
        assert json.loads(body)["provenance"]["worker"] == "-"

    def test_sticky_routing_is_deterministic(self):
        pool = EngineWorkerPool(context=None, size=4)
        first = pool.route_index("spec-key-a")
        assert pool.route_index("spec-key-a") == first
        routes = {pool.route_index(f"spec-key-{i}") for i in range(64)}
        assert routes == {0, 1, 2, 3}  # distinct keys spread the pool

    def test_worker_stats_count_served(self):
        app = pooled_app(workers=2)
        try:
            answers = drive(app, [REPLAY, PLACEMENT, STATS])
        finally:
            app.stop_workers()
        assert all(status == 200 for status, _body in answers)
        document = app.stats_payload()
        workers = document["workers"]
        assert [entry["index"] for entry in workers] == [0, 1]
        assert set(workers[0]) == {
            "index", "pid", "alive", "inflight", "served", "restarts",
        }
        assert sum(entry["served"] for entry in workers) == len(answers)
        assert document["stats"]["worker_restarts"] == 0


def written_files(root):
    return [path for path in root.rglob("*") if path.is_file()]


class TestForkInheritance:
    def test_pool_writes_no_files(self, tmp_path, monkeypatch):
        # fork inheritance is the only way warm state reaches the
        # workers: nothing is written under the temp root (forked
        # workers inherit tempfile.tempdir, the spawned replacement
        # TMPDIR), forked workers start with the parent's curve
        # matrices, and a spawned replacement rebuilds the same answers
        # from the seed
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        monkeypatch.setenv("TMPDIR", str(scratch))
        app = pooled_app(workers=1)
        plan = FaultPlan(
            [FaultSpec(site="serve.worker", mode="fail-once")], seed=7
        )
        try:
            assert written_files(scratch) == []
            built = app.context.corpus(app.seed).columns()._arrays
            assert {"load_grid", "power_matrix", "ops_matrix"} <= set(built)
            forked = drive(app, [REPLAY, STATS])
            with faults.install(plan):
                respawned = drive(app, [PLACEMENT])
            assert app._pool.restarts == 1
        finally:
            app.stop_workers()
        assert written_files(scratch) == []
        baseline = drive(pooled_app(workers=0), [REPLAY, STATS, PLACEMENT])
        for (status, body), (_status, expected) in zip(
            forked + respawned, baseline
        ):
            assert status == 200
            assert json.dumps(normalized(body)) == json.dumps(
                normalized(expected)
            )


class TestWorkerDeath:
    def test_single_death_is_masked_bit_identically(self):
        app = pooled_app(workers=2)
        plan = FaultPlan(
            [FaultSpec(site="serve.worker", mode="fail-once")], seed=7
        )
        try:
            with faults.install(plan):
                [(status, body)] = drive(app, [REPLAY])
        finally:
            app.stop_workers()
        assert status == 200
        assert app._pool.restarts == 1
        clean = pooled_app(workers=0)
        [(_status, clean_body)] = drive(clean, [REPLAY])
        assert normalized(body) == normalized(clean_body)

    def test_double_death_is_a_transient_503(self):
        app = pooled_app(workers=2)
        plan = FaultPlan(
            [FaultSpec(site="serve.worker", mode="fail-n", times=2)], seed=7
        )
        try:
            with faults.install(plan):
                [(status, body)] = drive(app, [REPLAY])
            assert status == 503
            assert "died twice" in json.loads(body)["error"]
            assert app._pool.restarts == 2
            # worker death is transient: the breaker must NOT trip,
            # and the respawned worker answers the retry normally
            assert app.stats_payload()["stats"]["breaker_trips"] == 0
            [(again, again_body)] = drive(app, [REPLAY])
        finally:
            app.stop_workers()
        assert again == 200
        assert json.loads(again_body)["payload"]

    def test_replacement_workers_come_up_via_spawn(self):
        # respawn runs on an executor thread while the parent is
        # multithreaded: forking there can deadlock the child, so
        # replacements must use the spawn context
        app = pooled_app(workers=2)
        plan = FaultPlan(
            [FaultSpec(site="serve.worker", mode="fail-once")], seed=7
        )
        try:
            with faults.install(plan):
                [(status, _body)] = drive(app, [REPLAY])
            assert status == 200
            replaced = [w for w in app._pool._workers if w.restarts]
            assert replaced
            assert all(
                type(w.process).__name__ == "SpawnProcess" for w in replaced
            )
        finally:
            app.stop_workers()

    def test_stop_reaps_workers_without_touching_a_busy_pipe(self):
        # an abandoned exchange may still own a worker's pipe at
        # shutdown; stop() must skip the polite stop message (the
        # Connection is not thread-safe) and still reap the worker
        app = pooled_app(workers=1)
        pool = app._pool
        worker = pool._workers[0]
        assert worker.io_lock.acquire(timeout=1.0)
        try:
            pool.stop(timeout_s=0.5)
        finally:
            worker.io_lock.release()
        assert all(not entry["alive"] for entry in pool.worker_stats())

    def test_stop_workers_is_idempotent(self):
        app = pooled_app(workers=2)
        app.stop_workers()
        app.stop_workers()
        pool = app._pool
        assert all(not entry["alive"] for entry in pool.worker_stats())


def gated_pool():
    """A started pool whose (fake) pipe exchange blocks on an event.

    White-box: replaces the exchange with a gate the test controls, so
    cancellation-vs-lock ordering is asserted without racing real
    compute times.
    """
    gate = threading.Event()
    pool = EngineWorkerPool(context=None, size=1)
    pool._exchange_with_recovery = lambda worker, requests: [
        f"answer:{request}" for request in requests
    ] if gate.wait(10.0) else None
    pool._stamp = lambda result, worker: result
    pool._workers = [_Worker(0, None, None)]
    pool._started = True
    return pool, gate


class TestAbandonedExchange:
    def test_cancelled_submit_holds_lock_until_exchange_done(self):
        # a deadline-cancelled submit abandons the flight, but the
        # executor thread is still on the pipe: the worker lock must
        # stay held until the exchange finishes, or the next request
        # would interleave with (and steal the reply of) the old one
        pool, gate = gated_pool()
        worker = pool._workers[0]

        async def go():
            lock = worker.lock_for(asyncio.get_running_loop())
            first = asyncio.create_task(pool.submit("slow", "key"))
            await asyncio.sleep(0.05)  # exchange thread is inside the gate
            assert worker.inflight == 1
            first.cancel()
            with pytest.raises(asyncio.CancelledError):
                await first
            await asyncio.sleep(0)  # let any (buggy) done callback run
            assert lock.locked(), "lock freed while exchange still running"
            assert worker.inflight == 1
            second = asyncio.create_task(pool.submit("fast", "key"))
            await asyncio.sleep(0.05)
            assert not second.done()  # queued behind the abandoned flight
            gate.set()
            return await second

        assert asyncio.run(go()) == "answer:fast"
        assert worker.inflight == 0

    def test_executor_refusal_releases_lock(self):
        # loop.run_in_executor raising synchronously (executor shut
        # down during drain) must not wedge the worker's route
        pool, gate = gated_pool()
        gate.set()
        worker = pool._workers[0]

        async def go():
            loop = asyncio.get_running_loop()

            def refuse(executor, fn, *args):
                raise RuntimeError("executor shut down")

            loop.run_in_executor = refuse
            with pytest.raises(RuntimeError):
                await pool.submit("x", "key")
            assert worker.inflight == 0
            assert not worker.lock_for(loop).locked()

        asyncio.run(go())


class TestPoolLifecycle:
    def test_submit_before_start_raises(self):
        pool = EngineWorkerPool(context=None, size=1)

        async def go():
            await pool.submit(object(), "key")

        with pytest.raises(RuntimeError):
            asyncio.run(go())

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            EngineWorkerPool(context=None, size=0)

    def test_app_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            ServeApp(workers=-1)
