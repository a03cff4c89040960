"""The serve daemon: coalescing, batching, memo, HTTP, warm restarts."""

import asyncio
import json
import threading

import pytest

from repro.api import QueryContext, execute, request_from_dict
from repro.core.cache import ArtifactCache
from repro.serve import ServeApp, ServeClient, start_daemon_thread

REPLAY = {"family": "replay", "servers": 30, "steps": 8}
STATS = {"family": "stats", "metric": "ep"}


def run_async(coro):
    return asyncio.run(coro)


def decode(body):
    return json.loads(body.decode("utf-8"))


def payload_and_text(document):
    return (
        json.dumps(document["payload"], sort_keys=True),
        document["text"],
    )


class TestCoalescing:
    def test_concurrent_identical_queries_share_one_computation(self):
        app = ServeApp()
        app.warm()

        async def burst():
            return await asyncio.gather(
                *(app.handle_query(dict(REPLAY)) for _ in range(64))
            )

        answers = run_async(burst())
        assert {status for status, _body in answers} == {200}
        bodies = {payload_and_text(decode(body)) for _status, body in answers}
        assert len(bodies) == 1
        assert app.stats.computations == 1
        assert app.stats.coalesced + app.stats.memo_hits == 63

    def test_memo_serves_repeats_without_computing(self):
        app = ServeApp()
        app.warm()

        async def twice():
            first = await app.handle_query(dict(REPLAY))
            second = await app.handle_query(dict(REPLAY))
            return first, second

        first, second = run_async(twice())
        assert first[1] == second[1]  # byte-identical response
        assert app.stats.computations == 1
        assert app.stats.memo_hits == 1

    def test_memo_is_bounded(self):
        app = ServeApp(memo_size=2)
        app._memo_put("a", b"1")
        app._memo_put("b", b"2")
        app._memo_put("c", b"3")
        assert app._memo_get("a") is None
        assert app._memo_get("c") == b"3"

    def test_fingerprint_map_is_bounded_by_memo_size(self):
        # the map is keyed by the client-controlled seed: a daemon
        # that never evicted it would grow without limit
        app = ServeApp(memo_size=2)

        def key(seed):
            request = request_from_dict({**STATS, "seed": seed})
            return run_async(app._spec_key(request))

        first = {seed: key(seed) for seed in (1, 2, 3)}
        assert len(app._fingerprints) == 2
        assert list(app._fingerprints) == [2, 3]
        assert key(1) == first[1]  # dropped, so recomputed
        assert list(app._fingerprints) == [3, 1]

    def test_memo_is_bounded_by_bytes(self):
        app = ServeApp(memo_size=100, memo_bytes=10)
        app._memo_put("a", b"xxxx")
        app._memo_put("b", b"yyyy")
        app._memo_put("c", b"zzzz")  # 12 bytes total: evict oldest
        assert app._memo_get("a") is None
        assert app._memo_get("b") == b"yyyy"
        assert app._memo_get("c") == b"zzzz"
        assert app._memo_total == 8

    def test_memo_replacement_keeps_byte_count_exact(self):
        app = ServeApp(memo_bytes=100)
        app._memo_put("a", b"xxxx")
        app._memo_put("a", b"yy")
        assert app._memo_total == 2

    def test_oversized_body_is_not_retained(self):
        app = ServeApp(memo_bytes=4)
        app._memo_put("a", b"way too large to memoize")
        assert app._memo_get("a") is None
        assert app._memo_total == 0

    def test_stats_expose_memo_bytes(self):
        app = ServeApp()
        app._memo_put("a", b"xxxx")
        extra = app.stats_payload()["stats"]
        assert extra["memo_bytes"] == 4
        assert extra["memo_entries"] == 1


class TestBatching:
    def test_window_merges_compatible_queries_into_groups(self):
        app = ServeApp()
        app.warm()
        cohort = {"servers": 30, "hw_year_min": 2016, "hw_year_max": 2016}
        payloads = [
            {"family": "replay", "steps": 8, **cohort},
            {"family": "replay", "steps": 8, "policy": "pack-to-full",
             **cohort},
            {"family": "placement", "demand_fraction": 0.25, **cohort},
            {"family": "placement", "demand_fraction": 0.75, **cohort},
            {"family": "cap", "power_cap_w": 5000.0, **cohort},
        ]

        async def burst():
            return await asyncio.gather(
                *(app.handle_query(dict(p)) for p in payloads)
            )

        answers = run_async(burst())
        assert {status for status, _ in answers} == {200}
        # same cohort (seed, years, servers) -> one merged group
        assert app._batch.groups == 1
        assert app._batch.batched == len(payloads)

    def test_batched_results_equal_serial_execution(self):
        app = ServeApp()
        app.warm()
        payloads = [
            {"family": "placement", "servers": 30, "demand_fraction": f}
            for f in (0.2, 0.4, 0.6, 0.8)
        ]

        async def burst():
            return await asyncio.gather(
                *(app.handle_query(dict(p)) for p in payloads)
            )

        answers = run_async(burst())
        serial = QueryContext()
        for payload, (status, body) in zip(payloads, answers):
            assert status == 200
            batched = decode(body)["payload"]
            from repro.api import request_from_dict

            reference = execute(request_from_dict(dict(payload)), serial)
            assert batched == json.loads(
                json.dumps(reference.to_dict()["payload"])
            )

    def test_incompatible_cohorts_split_groups(self):
        app = ServeApp()
        app.warm()
        payloads = [
            {"family": "replay", "servers": 30, "steps": 8},
            {"family": "replay", "servers": 40, "steps": 8},
        ]

        async def burst():
            return await asyncio.gather(
                *(app.handle_query(dict(p)) for p in payloads)
            )

        run_async(burst())
        assert app._batch.groups == 2
        assert app._batch.batched == 0


class TestWarmRestart:
    def test_restarted_daemon_serves_identical_bytes(self, tmp_path):
        cache_dir = tmp_path / "store"
        first_app = ServeApp(cache=ArtifactCache(cache_dir))
        first_app.warm()
        status, body = run_async(first_app.handle_query(dict(REPLAY)))
        assert status == 200
        cold = payload_and_text(decode(body))
        assert first_app.stats.disk_hits == 0

        second_app = ServeApp(cache=ArtifactCache(cache_dir))
        second_app.warm()
        status, body = run_async(second_app.handle_query(dict(REPLAY)))
        assert status == 200
        warm = payload_and_text(decode(body))
        assert warm == cold
        assert second_app.stats.disk_hits == 1
        assert decode(body)["provenance"]["cache_hit"] is True


class TestErrors:
    def test_unknown_family_is_400(self):
        app = ServeApp()
        status, body = run_async(app.handle_query({"family": "bogus"}))
        assert status == 400 and "error" in decode(body)

    def test_unservable_family_is_400(self):
        app = ServeApp()
        status, body = run_async(app.handle_query({"family": "run_all"}))
        assert status == 400
        assert "not servable" in decode(body)["error"]

    def test_bad_field_is_400(self):
        app = ServeApp()
        status, body = run_async(
            app.handle_query({"family": "stats", "metric": "wattage"})
        )
        assert status == 400
        assert app.stats.errors == 1


    def test_negative_seed_is_400_naming_the_field(self):
        app = ServeApp()
        status, body = run_async(app.handle_query({"family": "stats", "seed": -1}))
        assert status == 400
        assert decode(body)["error"] == "seed must be non-negative, got -1"


@pytest.fixture(scope="module")
def daemon():
    handle = start_daemon_thread()
    yield handle
    handle.stop()


class TestDaemonHttp:
    def test_healthz(self, daemon):
        assert ServeClient(port=daemon.port).healthz() == {"status": "ok"}

    def test_query_envelope(self, daemon):
        client = ServeClient(port=daemon.port)
        status, document = client.query(dict(REPLAY))
        assert status == 200
        assert document["family"] == "replay"
        assert document["provenance"]["fleet_backend"] == "columnar"

    def test_fleet_backend_field_is_400(self, daemon):
        # The engine is picked per fleet; a request that still names
        # one is an unknown field like any other.
        client = ServeClient(port=daemon.port)
        status, document = client.query(dict(REPLAY, fleet_backend="scalar"))
        assert status == 400
        assert "unknown field(s) ['fleet_backend']" in document["error"]

    def test_artifacts_listing(self, daemon):
        listing = ServeClient(port=daemon.port).artifacts()
        assert any(a["id"] == "fig3" for a in listing["artifacts"])

    def test_stats_counters_exposed(self, daemon):
        client = ServeClient(port=daemon.port)
        client.query(dict(REPLAY))
        stats = client.stats()["stats"]
        assert stats["queries"] >= 1
        for counter in ("memo_hits", "coalesced", "computations",
                        "batched", "batch_groups", "errors"):
            assert counter in stats

    def test_invalid_json_is_400(self, daemon):
        import http.client

        connection = http.client.HTTPConnection(
            "127.0.0.1", daemon.port, timeout=30
        )
        connection.request("POST", "/query", body=b"{nope")
        response = connection.getresponse()
        assert response.status == 400
        assert b"valid JSON" in response.read()
        connection.close()

    def test_non_finite_and_mistyped_fields_are_400(self, daemon):
        import http.client

        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        for body in (
            b'{"family": "cap", "power_cap_w": Infinity, "servers": 20}',
            b'{"family": "replay", "servers": 30, "steps": 4.5}',
        ):
            connection = http.client.HTTPConnection(
                "127.0.0.1", daemon.port, timeout=30
            )
            connection.request("POST", "/query", body=body)
            response = connection.getresponse()
            assert response.status == 400
            # The answer is strict JSON: no Infinity/NaN constants.
            document = json.loads(response.read(), parse_constant=refuse)
            assert "error" in document
            connection.close()

    def test_unknown_route_is_404(self, daemon):
        import http.client

        connection = http.client.HTTPConnection(
            "127.0.0.1", daemon.port, timeout=30
        )
        connection.request("GET", "/nope")
        assert connection.getresponse().status == 404
        connection.close()

    def test_sixty_four_concurrent_clients_one_computation(self):
        app = ServeApp()
        handle = start_daemon_thread(app)
        try:
            answers = [None] * 64

            def worker(index):
                client = ServeClient(port=handle.port)
                answers[index] = client.query(dict(REPLAY))
                client.close()

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(64)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert {status for status, _ in answers} == {200}
            bodies = {
                payload_and_text(document) for _status, document in answers
            }
            assert len(bodies) == 1
            assert app.stats.computations == 1
        finally:
            handle.stop()
