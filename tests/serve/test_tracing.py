"""Request tracing through the serving stack.

Every ``/v1`` exchange — success or failure — answers with an
``X-Repro-Trace-Id`` header; with ``trace_path`` set the request also
emits a span tree (request root, cache/kernel children, batch fan-in
links) queryable offline, and ``debug_timings: true`` returns a stage
breakdown that sums to the measured total.  Tracing must never change
the served bytes.
"""

from __future__ import annotations

import asyncio
import json
import logging

import numpy as np
import pytest

from repro.obs import LoggingSink, load_spans, recording
from repro.obs.export import render_prometheus
from repro.serve import CharacterizationServer, ServeConfig

_MATRIX = [[4.0, 2.0], [1.0, 3.0], [2.0, 2.0]]
_BODY = json.dumps({"matrix": _MATRIX}).encode("utf-8")


def _run(coro):
    return asyncio.run(coro)


async def _with_server(config, fn):
    server = CharacterizationServer(config)
    try:
        return await fn(server)
    finally:
        await server.stop()


def _burst(config, size=3):
    """One concurrent burst of ``size`` distinct characterize requests
    (no cache or singleflight dedup), so it coalesces into one batch."""

    async def _go(server):
        bodies = [
            json.dumps({
                "matrix": (np.asarray(_MATRIX) + i).tolist()
            }).encode("utf-8")
            for i in range(size)
        ]
        return await asyncio.gather(*(
            server.exchange("POST", "/v1/characterize", body)
            for body in bodies
        ))

    return _run(_with_server(config, _go))


def _kernel_of(record, by_id):
    """The ``serve.kernel`` span on ``record``'s parent chain, if any."""
    while record is not None and record["name"] != "serve.kernel":
        record = by_id.get(record.get("parent_id"))
    return record


def _exchange_sync(config, requests):
    """Run ``(method, path, body, headers)`` exchanges on a fresh server."""

    async def _go(server):
        out = []
        for method, path, body, headers in requests:
            out.append(await server.exchange(method, path, body, headers))
        return out

    return _run(_with_server(config, _go))


class TestTraceIdHeader:
    def test_every_v1_response_carries_a_trace_id(self, metrics_registry):
        bad_json = b"{nope"
        responses = _exchange_sync(ServeConfig(linger_s=0.001), [
            ("POST", "/v1/characterize", _BODY, None),        # 200
            ("POST", "/v1/characterize", bad_json, None),     # 400
            ("POST", "/v1/unknown", _BODY, None),             # 404
            ("GET", "/v1/characterize", b"", None),           # 405
        ])
        statuses = [r[0] for r in responses]
        assert statuses == [200, 400, 404, 405]
        for status, _, _, headers in responses:
            trace_id = headers["X-Repro-Trace-Id"]
            assert len(trace_id) == 32
            int(trace_id, 16)

    def test_trace_ids_are_distinct_per_request(self, metrics_registry):
        responses = _exchange_sync(ServeConfig(linger_s=0.001), [
            ("POST", "/v1/characterize", _BODY, None),
            ("POST", "/v1/characterize", _BODY, None),
        ])
        ids = {r[3]["X-Repro-Trace-Id"] for r in responses}
        assert len(ids) == 2

    def test_traceparent_ingress_is_adopted(self, metrics_registry, tmp_path):
        remote_trace = "ab" * 16
        remote_span = "cd" * 8
        header = {"traceparent": f"00-{remote_trace}-{remote_span}-01"}
        config = ServeConfig(
            linger_s=0.001, trace_path=str(tmp_path / "spans.jsonl")
        )
        [(status, _, _, headers)] = _exchange_sync(
            config, [("POST", "/v1/characterize", _BODY, header)]
        )
        assert status == 200
        assert headers["X-Repro-Trace-Id"] == remote_trace
        spans = load_spans(config.trace_path)
        root = next(s for s in spans if s["name"] == "serve.request")
        assert root["trace_id"] == remote_trace
        assert root["parent_id"] == remote_span

    def test_malformed_traceparent_is_tolerated(self, metrics_registry):
        [(status, _, _, headers)] = _exchange_sync(
            ServeConfig(linger_s=0.001),
            [("POST", "/v1/characterize", _BODY, {"traceparent": "junk"})],
        )
        assert status == 200
        assert headers["X-Repro-Trace-Id"] != "junk"

    def test_scrapes_carry_no_trace_id(self, metrics_registry):
        responses = _exchange_sync(ServeConfig(linger_s=0.001), [
            ("GET", "/healthz", b"", None),
            ("GET", "/metrics", b"", None),
        ])
        for status, _, _, headers in responses:
            assert status == 200
            assert "X-Repro-Trace-Id" not in headers


class TestSpanTree:
    def test_request_emits_root_cache_and_kernel_spans(
        self, metrics_registry, tmp_path
    ):
        config = ServeConfig(
            linger_s=0.001, trace_path=str(tmp_path / "spans.jsonl")
        )
        [(status, _, _, headers)] = _exchange_sync(
            config, [("POST", "/v1/characterize", _BODY, None)]
        )
        assert status == 200
        spans = load_spans(config.trace_path)
        trace_id = headers["X-Repro-Trace-Id"]
        assert all(s["trace_id"] == trace_id for s in spans)
        by_name = {s["name"]: s for s in spans}
        assert {"serve.request", "serve.cache", "serve.kernel"} <= set(by_name)
        root = by_name["serve.request"]
        assert root["parent_id"] is None
        assert root["meta"]["endpoint"] == "characterize"
        assert root["meta"]["status"] == 200
        assert set(root["meta"]["timings"]) >= {"kernel_s", "other_s"}
        # Children hang off the request span.
        assert by_name["serve.cache"]["parent_id"] == root["span_id"]
        assert by_name["serve.cache"]["meta"]["outcome"] == "miss"

    def test_cache_hit_span(self, metrics_registry, tmp_path):
        config = ServeConfig(
            linger_s=0.001, trace_path=str(tmp_path / "spans.jsonl")
        )
        responses = _exchange_sync(config, [
            ("POST", "/v1/characterize", _BODY, None),
            ("POST", "/v1/characterize", _BODY, None),
        ])
        assert [r[0] for r in responses] == [200, 200]
        spans = load_spans(config.trace_path)
        second_id = responses[1][3]["X-Repro-Trace-Id"]
        hit = next(
            s for s in spans
            if s["name"] == "serve.cache" and s["trace_id"] == second_id
        )
        assert hit["meta"]["outcome"].startswith("hit")

    def test_coalesced_batch_links_member_requests(self, metrics_registry):
        """One burst → one ``serve.kernel`` span whose links name every
        member request span it served."""

        async def _go(server):
            # Distinct matrices: no cache/singleflight dedup, so the
            # burst really coalesces three separate computations.
            bodies = [
                json.dumps({
                    "matrix": (np.asarray(_MATRIX) + i).tolist()
                }).encode("utf-8")
                for i in range(3)
            ]
            return await asyncio.gather(*(
                server.exchange("POST", "/v1/characterize", body)
                for body in bodies
            ))

        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            config = ServeConfig(
                linger_s=0.1, trace_path=f"{tmp}/spans.jsonl"
            )
            responses = _run(_with_server(config, _go))
            assert all(r[0] == 200 for r in responses)
            spans = load_spans(config.trace_path)

        kernel_spans = [s for s in spans if s["name"] == "serve.kernel"]
        batched = max(kernel_spans, key=lambda s: len(s.get("links", [])))
        assert batched["meta"]["batch_size"] == 3
        linked_traces = {l["trace_id"] for l in batched["links"]}
        member_traces = {r[3]["X-Repro-Trace-Id"] for r in responses}
        assert linked_traces == member_traces

    def test_kernel_spans_nest_under_their_batch(
        self, metrics_registry, tmp_path
    ):
        """The batch kernel runs in its first traced member's context, so
        its Sinkhorn and SVD spans are children of ``serve.kernel``."""
        config = ServeConfig(
            linger_s=0.1, trace_path=str(tmp_path / "spans.jsonl")
        )
        responses = _burst(config)
        assert all(r[0] == 200 for r in responses)
        spans = load_spans(config.trace_path)
        by_id = {s["span_id"]: s for s in spans}
        [kernel] = [s for s in spans if s["name"] == "serve.kernel"]
        assert kernel["meta"]["batch_size"] == 3
        for name in ("sinkhorn.batched", "svd.batched"):
            [inner] = [s for s in spans if s["name"] == name]
            assert _kernel_of(inner, by_id) is kernel
            assert inner["trace_id"] == kernel["trace_id"]
            assert inner["depth"] > kernel["depth"]
        # The kernel hangs off one member's request span.
        roots = {s["span_id"] for s in spans if s["name"] == "serve.request"}
        assert kernel["parent_id"] in roots

    def test_recording_collects_the_served_kernel_spans(
        self, metrics_registry, tmp_path
    ):
        config = ServeConfig(
            linger_s=0.1, trace_path=str(tmp_path / "spans.jsonl")
        )
        with recording() as rec:
            responses = _burst(config)
        assert all(r[0] == 200 for r in responses)
        names = [e.name for e in rec.events]
        assert names.count("serve.request") == 3
        assert names.count("serve.kernel") == 1
        [kernel] = rec.spans("serve.kernel")
        for name in ("sinkhorn.batched", "svd.batched"):
            [inner] = rec.spans(name)
            assert inner.trace_id == kernel.trace_id
            assert inner.depth > kernel.depth

    def test_logging_sink_formats_every_served_record(
        self, metrics_registry, tmp_path, caplog
    ):
        logger = logging.getLogger("repro.obs.test_served")
        config = ServeConfig(
            linger_s=0.1, trace_path=str(tmp_path / "spans.jsonl")
        )
        with caplog.at_level(logging.DEBUG, logger=logger.name):
            with recording(sinks=[LoggingSink(logger)]):
                responses = _burst(config)
        assert all(r[0] == 200 for r in responses)
        logged = [r.getMessage() for r in caplog.records]
        for name in ("serve.request", "serve.kernel", "sinkhorn.batched"):
            assert any(line.startswith(f"span {name} ") for line in logged)

    def test_untraced_server_emits_nothing(self, metrics_registry, tmp_path):
        _exchange_sync(
            ServeConfig(linger_s=0.001),
            [("POST", "/v1/characterize", _BODY, None)],
        )
        assert list(tmp_path.iterdir()) == []


class TestDebugTimings:
    def _payload(self, debug=True):
        return json.dumps(
            {"matrix": _MATRIX, "debug_timings": debug}
        ).encode("utf-8")

    def test_breakdown_sums_to_total(self, metrics_registry):
        [(status, _, body, headers)] = _exchange_sync(
            ServeConfig(linger_s=0.001),
            [("POST", "/v1/characterize", self._payload(), None)],
        )
        assert status == 200
        debug = json.loads(body)["debug"]
        assert debug["trace_id"] == headers["X-Repro-Trace-Id"]
        total = debug["total_s"]
        attributed = sum(debug["timings"].values())
        assert attributed == pytest.approx(total, rel=0.05)
        assert debug["timings"]["kernel_s"] > 0

    def test_debug_flag_is_not_part_of_cache_identity(
        self, metrics_registry
    ):
        """debug and no-debug answers share one cached computation and
        identical result bytes — the debug section is injected after
        the cache, so cached bytes stay bit-identical."""
        responses = _exchange_sync(ServeConfig(linger_s=0.001), [
            ("POST", "/v1/characterize", self._payload(False), None),
            ("POST", "/v1/characterize", self._payload(True), None),
            ("POST", "/v1/characterize", self._payload(False), None),
        ])
        assert [r[0] for r in responses] == [200, 200, 200]
        plain_1 = json.loads(responses[0][2])
        debugged = json.loads(responses[1][2])
        plain_2 = json.loads(responses[2][2])
        assert "debug" not in plain_1
        assert "debug" in debugged
        assert plain_1["result"] == debugged["result"] == plain_2["result"]
        # The cached bytes were untouched by the debug answer in between.
        assert responses[0][2] == responses[2][2]

    def test_tracing_never_changes_served_bytes(self, metrics_registry):
        """Bit-identity: the same request answers with identical body
        bytes whether span emission is on or off."""
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            [traced] = _exchange_sync(
                ServeConfig(linger_s=0.001, trace_path=f"{tmp}/s.jsonl"),
                [("POST", "/v1/characterize", _BODY, None)],
            )
        [untraced] = _exchange_sync(
            ServeConfig(linger_s=0.001),
            [("POST", "/v1/characterize", _BODY, None)],
        )
        assert traced[0] == untraced[0] == 200
        assert traced[2] == untraced[2]


class TestSlowLogAndExemplars:
    def test_slow_request_is_logged_with_breakdown(
        self, metrics_registry, tmp_path
    ):
        config = ServeConfig(
            linger_s=0.001,
            slow_log_path=str(tmp_path / "slow.jsonl"),
            slow_threshold_ms=0.0,  # everything is "slow"
        )
        [(status, _, _, headers)] = _exchange_sync(
            config, [("POST", "/v1/characterize", _BODY, None)]
        )
        assert status == 200
        [record] = [
            json.loads(line)
            for line in (tmp_path / "slow.jsonl").read_text().splitlines()
        ]
        assert record["type"] == "slow_request"
        assert record["trace_id"] == headers["X-Repro-Trace-Id"]
        assert record["endpoint"] == "characterize"
        assert record["status"] == 200
        assert record["total_s"] > 0
        assert sum(record["timings"].values()) == pytest.approx(
            record["total_s"], rel=0.05
        )

    def test_fast_requests_stay_out_of_the_slow_log(
        self, metrics_registry, tmp_path
    ):
        config = ServeConfig(
            linger_s=0.001,
            slow_log_path=str(tmp_path / "slow.jsonl"),
            slow_threshold_ms=60_000.0,
        )
        [(status, *_)] = _exchange_sync(
            config, [("POST", "/v1/characterize", _BODY, None)]
        )
        assert status == 200
        # Lazily-opened sink: nothing logged means nothing created.
        assert not (tmp_path / "slow.jsonl").exists()

    def test_latency_histogram_carries_trace_exemplar(
        self, metrics_registry
    ):
        [(status, _, _, headers)] = _exchange_sync(
            ServeConfig(linger_s=0.001),
            [("POST", "/v1/characterize", _BODY, None)],
        )
        assert status == 200
        text = render_prometheus(metrics_registry)
        trace_id = headers["X-Repro-Trace-Id"]
        exemplar_lines = [
            line for line in text.splitlines()
            if line.startswith("repro_serve_request_seconds_bucket")
            and f'# {{trace_id="{trace_id}"}}' in line
        ]
        assert len(exemplar_lines) == 1

    def test_scrapes_get_their_own_families(self, metrics_registry):
        responses = _exchange_sync(ServeConfig(linger_s=0.001), [
            ("GET", "/metrics", b"", None),
            ("GET", "/healthz", b"", None),
            ("GET", "/metrics", b"", None),
        ])
        assert [r[0] for r in responses] == [200, 200, 200]
        text = responses[-1][2].decode("utf-8")
        assert 'repro_serve_scrapes_total{kind="metrics"' in text
        assert 'repro_serve_scrapes_total{kind="healthz"' in text
        # Scrape traffic never lands in the serving latency histogram
        # the adaptive admission estimator reads.
        assert 'repro_serve_request_seconds' not in text or (
            'endpoint="metrics"' not in text
            and 'endpoint="healthz"' not in text
        )

    def test_stop_closes_the_sinks(self, metrics_registry, tmp_path):
        config = ServeConfig(
            linger_s=0.001,
            trace_path=str(tmp_path / "spans.jsonl"),
            slow_log_path=str(tmp_path / "slow.jsonl"),
        )

        async def _go(server):
            await server.exchange("POST", "/v1/characterize", _BODY)
            return server

        server = _run(_with_server(config, _go))
        assert server.trace_sink._handle is None
        assert server.slow_log._handle is None
