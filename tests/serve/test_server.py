"""End-to-end HTTP tests of the characterization service."""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np
import pytest

from repro.measures.report import characterize
from repro.obs.metrics import MetricsRegistry, collecting_metrics
from repro.scheduling.selection import recommend_from_measures
from repro.serve import SCHEMA, CharacterizationServer, ServeConfig, ServerThread

from .conftest import batch_size_snapshot, cache_events, kernel_invocations


@pytest.fixture
def env_matrix():
    return np.random.default_rng(21).uniform(0.5, 10.0, (6, 5))


class TestEndpoints:
    def test_characterize_matches_the_library(self, live_server, env_matrix):
        status, body = live_server.post_json(
            "characterize", {"matrix": env_matrix.tolist()}
        )
        assert status == 200
        document = json.loads(body)
        assert document["schema"] == SCHEMA
        assert document["endpoint"] == "characterize"
        result = document["result"]
        profile = characterize(env_matrix)
        assert result["mph"] == pytest.approx(profile.mph, rel=1e-9)
        assert result["tdh"] == pytest.approx(profile.tdh, rel=1e-9)
        assert result["tma"] == pytest.approx(profile.tma, rel=1e-6)
        assert result["n_tasks"] == 6
        assert result["n_machines"] == 5
        assert result["converged"] is True

    def test_standardize_returns_a_standard_form(
        self, live_server, env_matrix
    ):
        status, body = live_server.post_json(
            "standardize", {"matrix": env_matrix.tolist()}
        )
        assert status == 200
        result = json.loads(body)["result"]
        standard = np.asarray(result["matrix"])
        assert standard.shape == env_matrix.shape
        assert result["converged"] is True
        # Equal margins: every row sums to row_target, every column to
        # col_target (the standard-form invariant).
        np.testing.assert_allclose(
            standard.sum(axis=1), result["row_target"], rtol=1e-6
        )
        np.testing.assert_allclose(
            standard.sum(axis=0), result["col_target"], rtol=1e-6
        )

    def test_recommend_heuristic_applies_the_rule(
        self, live_server, env_matrix
    ):
        status, body = live_server.post_json(
            "recommend-heuristic", {"matrix": env_matrix.tolist()}
        )
        assert status == 200
        result = json.loads(body)["result"]
        measures = result["measures"]
        name, reason = recommend_from_measures(
            measures["mph"], measures["tdh"], measures["tma"]
        )
        assert result["heuristic"] == name
        assert result["reason"] == reason

    def test_options_are_honoured(self, live_server, env_matrix):
        status, body = live_server.post_json(
            "standardize",
            {"matrix": env_matrix.tolist(), "max_iterations": 2},
        )
        assert status == 200
        result = json.loads(body)["result"]
        assert result["iterations"] <= 2
        assert result["converged"] is False


class TestCachingOverHttp:
    def test_cache_hit_is_bit_identical_with_zero_kernel_work(
        self, live_server, env_matrix
    ):
        payload = {"matrix": env_matrix.tolist()}
        status1, body1 = live_server.post_json("characterize", payload)
        invocations = kernel_invocations(
            live_server.registry, "characterize"
        )
        status2, body2 = live_server.post_json("characterize", payload)
        assert (status1, status2) == (200, 200)
        assert body1 == body2
        assert (
            kernel_invocations(live_server.registry, "characterize")
            == invocations
        )
        assert cache_events(live_server.registry, "hit-memory") >= 1

    def test_disk_hit_is_labelled_cache_disk(self, metrics_registry, tmp_path):
        rng = np.random.default_rng(22)
        first, second = (
            json.dumps({"matrix": m.tolist()}).encode()
            for m in rng.uniform(0.5, 10.0, (2, 4, 4))
        )

        async def run():
            server = CharacterizationServer(
                ServeConfig(cache_dir=str(tmp_path), cache_entries=1)
            )
            for body in (first, second, first):  # second spills first
                status, _, _, _ = await server.exchange(
                    "POST", "/v1/characterize", body
                )
                assert status == 200
            await server.stop()

        asyncio.run(run())
        assert cache_events(metrics_registry, "hit-disk") == 1.0
        latency = metrics_registry.get("repro_serve_request_seconds")
        counts = {
            source: latency.snapshot(endpoint="characterize", source=source)["count"]
            for source in ("cache-disk", "cache-memory")
        }
        assert counts == {"cache-disk": 1, "cache-memory": 0}

    def test_different_options_miss_the_cache(self, live_server, env_matrix):
        live_server.post_json("characterize", {"matrix": env_matrix.tolist()})
        before = kernel_invocations(live_server.registry, "characterize")
        live_server.post_json(
            "characterize",
            {"matrix": env_matrix.tolist(), "tol": 1e-6},
        )
        assert (
            kernel_invocations(live_server.registry, "characterize")
            == before + 1
        )


class CallCountingRegistry(MetricsRegistry):
    """A registry that keeps the family names of every record call."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: list[set[str]] = []

    def record(self, *updates) -> None:
        self.calls.append({update[0] for update in updates})
        super().record(*updates)


class TestOneRecordPerExit:
    """Cache and admission counts, and the admission-limit gauge, ride
    the request's exit record call."""

    N = 4
    FOLDED = {
        "repro_serve_cache_events_total",
        "repro_serve_admitted_total",
        "repro_serve_admission_limit",
    }

    def test_record_calls_per_compute_request_and_per_cache_hit(self):
        rng = np.random.default_rng(23)
        bodies = [
            json.dumps({"matrix": m.tolist()}).encode()
            for m in rng.uniform(0.5, 10.0, (self.N, 4, 4))
        ]
        registry = CallCountingRegistry()

        async def burst(server):
            await asyncio.gather(*(
                server.exchange("POST", "/v1/characterize", body)
                for body in bodies
            ))

        async def run():
            server = CharacterizationServer(ServeConfig())
            await burst(server)  # N misses coalesced into one batch
            computed = list(registry.calls)
            registry.calls.clear()
            await burst(server)  # N cache hits
            return computed, list(registry.calls)

        with collecting_metrics(registry):
            computed, hits = asyncio.run(run())
        serve = [c for c in computed if any(n.startswith("repro_serve_") for n in c)]
        # Per compute request: its exit; per batch: the coalescer's
        # batch-size call.
        assert len(serve) == self.N + 1
        exits = [c for c in serve if "repro_serve_requests_total" in c]
        assert len(exits) == self.N
        assert all(not c & self.FOLDED for c in computed if c not in exits)
        assert set().union(*exits) >= self.FOLDED
        # A cache hit makes exactly one call: its exit.
        assert len(hits) == self.N
        assert all("repro_serve_requests_total" in c for c in hits)
        events = registry.counter(
            "repro_serve_cache_events_total", labelnames=("event",)
        )
        assert {
            event: events.value(event=event)
            for event in ("miss", "store", "hit-memory")
        } == {"miss": self.N, "store": self.N, "hit-memory": self.N}
        admitted = registry.counter(
            "repro_serve_admitted_total", labelnames=("endpoint",)
        )
        assert admitted.value(endpoint="characterize") == self.N

    def test_scrape_shows_events_of_an_unfinished_exit(self):
        registry = MetricsRegistry()

        async def run():
            server = CharacterizationServer(ServeConfig())
            server.cache.get("absent")  # tallied, no exit yet
            _s, _ct, body, _h = await server.exchange("GET", "/metrics", b"")
            return body.decode()

        with collecting_metrics(registry):
            text = asyncio.run(run())
        assert 'repro_serve_cache_events_total{event="miss"} 1' in text


class TestHttpSurface:
    def test_unknown_endpoint_404(self, live_server):
        status, body = live_server.post_json("summarize", {"matrix": [[1.0]]})
        assert status == 404
        assert json.loads(body)["error"]["category"] == "not-found"

    def test_unknown_path_404(self, live_server):
        status, body = live_server.request("GET", "/nope")
        assert status == 404

    def test_get_on_endpoint_405(self, live_server):
        status, body = live_server.request("GET", "/v1/characterize")
        assert status == 405
        assert json.loads(body)["error"]["category"] == "bad-request"

    def test_bad_json_400(self, live_server):
        status, body = live_server.request(
            "POST", "/v1/characterize", b"{not json"
        )
        assert status == 400
        assert json.loads(body)["error"]["category"] == "bad-request"

    def test_validation_error_400(self, live_server):
        status, body = live_server.post_json(
            "characterize", {"matrix": [[1.0, 2.0]], "tol": 7}
        )
        assert status == 400
        assert "tol" in json.loads(body)["error"]["message"]

    def test_oversized_body_413(self, live_server):
        async def oversized():
            reader, writer = await asyncio.open_connection(
                live_server.host, live_server.port
            )
            writer.write(
                b"POST /v1/characterize HTTP/1.1\r\n"
                b"Content-Length: 99999999999\r\n\r\n"
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            return raw

        raw = asyncio.run(oversized())
        assert b"413" in raw.split(b"\r\n", 1)[0]

    def test_negative_content_length_400(self, live_server):
        async def negative():
            reader, writer = await asyncio.open_connection(
                live_server.host, live_server.port
            )
            writer.write(
                b"POST /v1/characterize HTTP/1.1\r\n"
                b"Content-Length: -5\r\n\r\n"
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            return raw

        head, _, body = asyncio.run(negative()).partition(b"\r\n\r\n")
        assert head.split(b"\r\n", 1)[0] == b"HTTP/1.1 400 Bad Request"
        assert json.loads(body)["error"] == {
            "category": "bad-request",
            "message": "Content-Length must be >= 0, got -5",
        }

    def test_healthz_reports_cache_and_coalescer(self, live_server):
        live_server.post_json("characterize", {"matrix": [[1.0, 2.0], [3.0, 4.0]]})
        status, body = live_server.request("GET", "/healthz")
        assert status == 200
        result = json.loads(body)["result"]
        assert result["status"] == "ok"
        assert result["requests_served"] >= 1
        assert "hits_memory" in result["cache"]
        assert result["coalescer"]["characterize"]["batches_flushed"] >= 1

    def test_metrics_scrape_exposes_serve_families(self, live_server):
        live_server.post_json(
            "characterize", {"matrix": [[1.0, 2.0], [3.0, 4.0]]}
        )
        status, body = live_server.request("GET", "/metrics")
        assert status == 200
        text = body.decode("utf-8")
        assert "repro_serve_requests_total" in text
        assert "repro_serve_kernel_invocations_total" in text
        assert "repro_serve_coalesce_batch_size" in text
        assert (
            'repro_serve_requests_total{endpoint="characterize",'
            'status="200"}' in text
        )


class TestConcurrentHttpBurst:
    def test_burst_of_identical_requests_over_real_sockets(
        self, live_server
    ):
        matrix = (
            np.random.default_rng(31).uniform(0.5, 10.0, (5, 5)).tolist()
        )
        before = kernel_invocations(live_server.registry, "characterize")
        responses = live_server.post_many(
            [("characterize", {"matrix": matrix})] * 6
        )
        assert {status for status, _ in responses} == {200}
        assert len({body for _, body in responses}) == 1
        # All six callers shared one batched kernel invocation.
        assert (
            kernel_invocations(live_server.registry, "characterize")
            == before + 1
        )


class TestIdleFlushOverSockets:
    """The coalescer's idle flush waits for requests still being read."""

    @staticmethod
    def _post(host, port, body: bytes, split: int, pause_s: float):
        """POST ``body`` to characterize, holding back all but its first
        ``split`` bytes for ``pause_s``; returns (status line, seconds)."""

        async def main():
            reader, writer = await asyncio.open_connection(host, port)
            t0 = time.perf_counter()
            writer.write(
                b"POST /v1/characterize HTTP/1.1\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body[:split]
            )
            await writer.drain()
            await asyncio.sleep(pause_s)
            writer.write(body[split:])
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            return raw.split(b"\r\n", 1)[0], time.perf_counter() - t0

        return main()

    def test_request_still_being_read_joins_the_batch(self, metrics_registry):
        handle = ServerThread(ServeConfig(port=0, linger_s=5.0))
        host, port = handle.start()
        rng = np.random.default_rng(41)
        slow, fast = (
            json.dumps({"matrix": rng.uniform(0.5, 10.0, (4, 4)).tolist()})
            .encode()
            for _ in range(2)
        )

        async def main():
            # ``slow`` sends half its body, pauses, then the rest; ``fast``
            # arrives whole while ``slow`` is still being read.
            slow_task = asyncio.ensure_future(
                self._post(host, port, slow, len(slow) // 2, 0.6)
            )
            await asyncio.sleep(0.2)
            fast_task = asyncio.ensure_future(
                self._post(host, port, fast, len(fast), 0.0)
            )
            return await asyncio.gather(slow_task, fast_task)

        try:
            (slow_status, _), (fast_status, fast_s) = asyncio.run(main())
            reading = [c.reading for c in handle.server.coalescers.values()]
        finally:
            handle.stop()
        assert b"200" in slow_status and b"200" in fast_status
        # One kernel call for both: ``fast`` waited for ``slow``'s body ...
        assert kernel_invocations(metrics_registry, "characterize") == 1
        snapshot = batch_size_snapshot(metrics_registry, "characterize")
        assert (snapshot["count"], snapshot["sum"]) == (1, 2)
        assert fast_s >= 0.3
        # ... and no longer: the idle check flushed, not the 5 s cap.
        assert fast_s < 3.0
        assert reading == [0, 0]

    def test_reading_count_returns_to_zero(self, live_server):
        async def main():
            for raw in (
                b"\r\n",  # malformed request line
                b"POST /v1/characterize HTTP/1.1\r\n"
                b"Content-Length: 99999999999\r\n\r\n",  # 413
            ):
                reader, writer = await asyncio.open_connection(
                    live_server.host, live_server.port
                )
                writer.write(raw)
                await writer.drain()
                await reader.read()
                writer.close()
                await writer.wait_closed()

        asyncio.run(main())
        status, _ = live_server.post_json(
            "characterize", {"matrix": [[1.0, 2.0], [3.0, 4.0]]}
        )
        assert status == 200
        coalescers = live_server.handle.server.coalescers.values()
        assert [c.reading for c in coalescers] == [0, 0]
