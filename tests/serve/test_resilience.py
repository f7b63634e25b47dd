"""Admission control, AIMD estimation, deadlines, shed-response shape."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.obs.metrics import record
from repro.robust import Deadline
from repro.serve import (
    AdmissionController,
    CapacityEstimator,
    CharacterizationServer,
    Coalescer,
    DeadlineExceeded,
    DrainState,
    ServeConfig,
    ServeRequest,
    ShedError,
    matrix_cache_key,
)
from repro.serve.protocol import ProtocolError, parse_request


def _counter(registry, name, labelnames, **labels):
    return registry.counter(name, labelnames=labelnames).value(**labels)


class TestShedError:
    def test_status_and_category(self):
        exc = ShedError("queue-full", "busy", retry_after_s=2.4)
        assert exc.status == 503
        assert exc.category == "queue-full"
        assert exc.retry_after_s == 2.4

    def test_header_is_ceiled_whole_seconds(self):
        # RFC 9110 Retry-After is integral delta-seconds, never 0.
        assert ShedError("x", "m", retry_after_s=0.2).retry_after_header == "1"
        assert ShedError("x", "m", retry_after_s=1.1).retry_after_header == "2"
        assert ShedError("x", "m", retry_after_s=3.0).retry_after_header == "3"

    def test_deadline_exceeded_is_a_shed(self):
        exc = DeadlineExceeded("too late")
        assert isinstance(exc, ShedError)
        assert exc.category == "deadline-exceeded"
        assert exc.status == 503


class TestCapacityEstimator:
    def test_validation(self):
        with pytest.raises(ValueError):
            CapacityEstimator(base_limit=4, min_limit=8)
        with pytest.raises(ValueError):
            CapacityEstimator(target_p99_s=0)
        with pytest.raises(ValueError):
            CapacityEstimator(decrease=1.5)
        with pytest.raises(ValueError):
            CapacityEstimator(window=4, adjust_every=8)

    def test_multiplicative_decrease_on_breach(self):
        est = CapacityEstimator(
            base_limit=16, min_limit=2, target_p99_s=0.1, adjust_every=4
        )
        for _ in range(4):
            est.observe(1.0)  # 10x over target
        assert est.limit == 8
        assert est.degraded
        for _ in range(4):
            est.observe(1.0)
        assert est.limit == 4
        assert est.adjustments_down == 2

    def test_limit_floors_at_min(self):
        est = CapacityEstimator(
            base_limit=4, min_limit=2, target_p99_s=0.01, adjust_every=2
        )
        for _ in range(20):
            est.observe(5.0)
        assert est.limit == 2

    def test_additive_recovery(self):
        est = CapacityEstimator(
            base_limit=8,
            min_limit=2,
            max_limit=8,
            target_p99_s=0.1,
            adjust_every=2,
            window=4,
        )
        for _ in range(2):
            est.observe(1.0)  # cut to 4
        assert est.limit == 4
        # Healthy observations first push the slow samples out of the
        # window (one more cut fires while they linger), then the limit
        # climbs back one step per adjustment.
        for _ in range(10):
            est.observe(0.001)
        # 5 adjustments: one last cut (4 -> 2), then 2 -> 3 -> 4 -> 5 -> 6.
        assert est.limit == 6
        assert est.adjustments_up == 4

    def test_never_exceeds_max(self):
        est = CapacityEstimator(
            base_limit=4, max_limit=5, target_p99_s=10.0, adjust_every=1
        )
        for _ in range(50):
            est.observe(0.001)
        assert est.limit == 5

    def test_snapshot_is_json_safe(self):
        est = CapacityEstimator(base_limit=8)
        snap = est.snapshot()
        json.dumps(snap)
        assert snap["limit"] == 8
        assert snap["degraded"] is False


class TestAdmissionController:
    def test_admits_up_to_limit_then_queues(self):
        async def _run():
            ctl = AdmissionController(max_inflight=2, queue_depth=4)
            await ctl.admit("characterize")
            await ctl.admit("characterize")
            waiter = asyncio.ensure_future(ctl.admit("characterize"))
            await asyncio.sleep(0.01)
            assert not waiter.done()  # queued, not granted
            stats = ctl.stats()["characterize"]
            assert stats["inflight"] == 2
            assert stats["queued"] == 1
            ctl.release("characterize")
            await asyncio.sleep(0)
            assert waiter.done() and waiter.exception() is None
            assert ctl.stats()["characterize"]["inflight"] == 2

        asyncio.run(_run())

    def test_queue_overflow_sheds(self):
        async def _run():
            ctl = AdmissionController(max_inflight=1, queue_depth=1)
            await ctl.admit("characterize")
            queued = asyncio.ensure_future(ctl.admit("characterize"))
            await asyncio.sleep(0.01)
            with pytest.raises(ShedError) as info:
                await ctl.admit("characterize")
            assert info.value.category == "queue-full"
            assert info.value.retry_after_s > 0
            assert ctl.stats()["characterize"]["shed"] == 1
            ctl.release("characterize")
            await queued

        asyncio.run(_run())

    def test_zero_queue_depth_sheds_immediately(self):
        async def _run():
            ctl = AdmissionController(max_inflight=1, queue_depth=0)
            await ctl.admit("characterize")
            with pytest.raises(ShedError):
                await ctl.admit("characterize")

        asyncio.run(_run())

    def test_deadline_expires_in_queue(self):
        async def _run():
            ctl = AdmissionController(max_inflight=1, queue_depth=4)
            await ctl.admit("characterize")
            with pytest.raises(DeadlineExceeded):
                await ctl.admit("characterize", Deadline(0.02))
            # The dead waiter left the queue; a release grants nobody
            # twice and a fresh admit succeeds.
            ctl.release("characterize")
            await ctl.admit("characterize")

        asyncio.run(_run())

    def test_estimator_caps_the_limit(self):
        est = CapacityEstimator(
            base_limit=8, min_limit=2, target_p99_s=0.1, adjust_every=2
        )
        ctl = AdmissionController(
            max_inflight=4, queue_depth=4, estimators={"characterize": est}
        )
        assert ctl.limit("characterize") == 4  # min(max_inflight, est)
        for _ in range(4):
            est.observe(1.0)
        assert ctl.limit("characterize") == 2
        assert ctl.degraded

    def test_shed_metrics_reach_the_registry(self, metrics_registry):
        ctl = AdmissionController(max_inflight=1, queue_depth=0)

        async def _run():
            await ctl.admit("characterize")
            with pytest.raises(ShedError):
                await ctl.admit("characterize")

        asyncio.run(_run())
        # Admissions wait in ctl.events for the owner's record call.
        record(*ctl.events.drain())
        assert _counter(
            metrics_registry,
            "repro_serve_admitted_total",
            ("endpoint",),
            endpoint="characterize",
        ) == 1
        assert _counter(
            metrics_registry,
            "repro_serve_shed_total",
            ("endpoint", "reason"),
            endpoint="characterize",
            reason="queue-full",
        ) == 1


class TestDrainState:
    def test_state_machine(self):
        state = DrainState()
        assert state.ready and not state.draining
        assert state.status() == "ok"
        assert state.status(degraded=True) == "degraded"
        assert state.begin_drain() is True
        assert state.begin_drain() is False  # idempotent
        assert state.draining and not state.ready
        # Draining wins over degraded: the server is leaving anyway.
        assert state.status(degraded=True) == "draining"
        assert state.uptime_s() >= 0


class TestDeadlineParsing:
    def test_valid_deadline_accepted(self):
        request = parse_request(
            "characterize",
            {"matrix": [[1.0, 2.0], [3.0, 4.0]], "deadline_ms": 250},
        )
        assert request.deadline_ms == 250.0

    @pytest.mark.parametrize(
        "bad", [0, -5, float("nan"), float("inf"), True, "fast", [250]]
    )
    def test_invalid_deadline_rejected(self, bad):
        with pytest.raises(ProtocolError):
            parse_request(
                "characterize",
                {"matrix": [[1.0, 2.0], [3.0, 4.0]], "deadline_ms": bad},
            )

    def test_deadline_not_part_of_cache_identity(self):
        # Two requests for the same matrix under different deadlines
        # must share a cache entry and a coalescing group.
        matrix = [[1.0, 2.0], [3.0, 4.0]]
        with_deadline = parse_request(
            "characterize", {"matrix": matrix, "deadline_ms": 100}
        )
        without = parse_request("characterize", {"matrix": matrix})
        assert "deadline_ms" not in with_deadline.options
        assert with_deadline.options == without.options
        key_a = matrix_cache_key(
            with_deadline.matrix,
            endpoint="characterize",
            options=with_deadline.options,
        )
        key_b = matrix_cache_key(
            without.matrix, endpoint="characterize", options=without.options
        )
        assert key_a == key_b


class TestCoalescerDeadlines:
    def _request(self, value: float) -> ServeRequest:
        return ServeRequest(
            endpoint="characterize",
            matrix=np.full((2, 2), value),
            options={"tol": 1e-8},
        )

    def test_expired_member_is_shed_before_the_kernel(self):
        seen_options: list[dict] = []

        def runner(options, matrices):
            seen_options.append(dict(options))
            return [{"value": float(m[0, 0])} for m in matrices]

        async def _run():
            c = Coalescer(runner, endpoint="characterize", linger_s=0.02)
            expired = asyncio.ensure_future(
                c.submit(self._request(1.0), Deadline(0.0))
            )
            loose = asyncio.ensure_future(
                c.submit(self._request(2.0), Deadline(30.0))
            )
            tight = asyncio.ensure_future(
                c.submit(self._request(3.0), Deadline(5.0))
            )
            free = asyncio.ensure_future(c.submit(self._request(4.0)))
            done = await asyncio.gather(
                expired, loose, tight, free, return_exceptions=True
            )
            return done

        expired, loose, tight, free = asyncio.run(_run())
        assert isinstance(expired, DeadlineExceeded)
        assert loose.payload == {"value": 2.0}
        assert tight.payload == {"value": 3.0}
        assert free.payload == {"value": 4.0}
        # Survivors ran as one batch of three...
        assert loose.batch_size == 3
        # ...under the tightest surviving deadline (~5s, surely < 10).
        assert len(seen_options) == 1
        assert 0 < seen_options[0]["deadline_s"] <= 5.0

    def test_all_members_expired_skips_the_kernel(self, metrics_registry):
        calls: list = []

        def runner(options, matrices):  # pragma: no cover - must not run
            calls.append(len(matrices))
            return [{} for _ in matrices]

        async def _run():
            c = Coalescer(runner, endpoint="characterize", linger_s=0.001)
            with pytest.raises(DeadlineExceeded):
                await c.submit(self._request(1.0), Deadline(0.0))
            return c

        coalescer = asyncio.run(_run())
        assert calls == []
        assert coalescer.batches_flushed == 0
        assert coalescer.deadline_shed == 1
        assert _counter(
            metrics_registry,
            "repro_serve_deadline_exceeded_total",
            ("endpoint", "stage"),
            endpoint="characterize",
            stage="coalesce",
        ) == 1


class TestServerShedding:
    """End-to-end 503 semantics through CharacterizationServer.exchange."""

    @staticmethod
    def _config(**overrides) -> ServeConfig:
        base = dict(
            enable_metrics=False,
            linger_s=0.001,
            adaptive=False,
            max_inflight=1,
            queue_depth=0,
        )
        base.update(overrides)
        return ServeConfig(**base)

    @staticmethod
    def _body(seed: int) -> bytes:
        rng = np.random.default_rng(seed)
        return json.dumps(
            {"matrix": rng.uniform(0.5, 10.0, size=(6, 6)).tolist()}
        ).encode("utf-8")

    def test_overflow_returns_structured_503(self):
        async def _run():
            server = CharacterizationServer(self._config())
            return await asyncio.gather(
                *(
                    server.exchange(
                        "POST", "/v1/characterize", self._body(i)
                    )
                    for i in range(8)
                )
            )

        results = asyncio.run(_run())
        statuses = sorted(status for status, _, _, _ in results)
        assert 200 in statuses
        assert 503 in statuses
        assert set(statuses) <= {200, 503}
        for status, ctype, body, headers in results:
            if status != 503:
                continue
            assert ctype == "application/json"
            assert int(headers["Retry-After"]) >= 1
            document = json.loads(body)
            error = document["error"]
            assert error["category"] == "queue-full"
            assert error["retry_after_s"] > 0
            assert document["endpoint"] == "characterize"

    def test_expired_deadline_sheds_at_entry(self, metrics_registry):
        async def _run():
            server = CharacterizationServer(
                self._config(enable_metrics=True)
            )
            body = json.dumps(
                {
                    "matrix": [[1.0, 2.0], [3.0, 4.0]],
                    "deadline_ms": 0.0001,
                }
            ).encode("utf-8")
            return await server.exchange("POST", "/v1/characterize", body)

        status, _, body, headers = asyncio.run(_run())
        assert status == 503
        assert json.loads(body)["error"]["category"] == "deadline-exceeded"
        assert "Retry-After" in headers
        assert _counter(
            metrics_registry,
            "repro_serve_deadline_exceeded_total",
            ("endpoint", "stage"),
            endpoint="characterize",
            stage="entry",
        ) == 1

    def test_server_default_deadline_applies(self):
        async def _run():
            server = CharacterizationServer(
                self._config(default_deadline_ms=0.0001)
            )
            body = json.dumps(
                {"matrix": [[1.0, 2.0], [3.0, 4.0]]}
            ).encode("utf-8")
            return await server.exchange("POST", "/v1/characterize", body)

        status, _, body, _ = asyncio.run(_run())
        assert status == 503
        assert json.loads(body)["error"]["category"] == "deadline-exceeded"

    def test_cache_hits_bypass_admission(self):
        async def _run():
            server = CharacterizationServer(self._config())
            body = json.dumps(
                {"matrix": [[1.0, 2.0], [3.0, 4.0]]}
            ).encode("utf-8")
            first = await server.exchange("POST", "/v1/characterize", body)
            # Saturate the only admission slot with a queued compute...
            blocker = asyncio.ensure_future(
                server.exchange("POST", "/v1/characterize", self._body(99))
            )
            await asyncio.sleep(0)
            # ...and the memoized request still answers 200.
            second = await server.exchange("POST", "/v1/characterize", body)
            await blocker
            return first, second

        first, second = asyncio.run(_run())
        assert first[0] == 200
        assert second[0] == 200
        assert second[2] == first[2]  # bit-identical cached bytes

    def test_healthz_reports_degraded_on_cache_spill_loss(self, tmp_path):
        async def _run():
            blocker = tmp_path / "blocker.txt"
            blocker.write_text("not a directory")
            with pytest.warns(RuntimeWarning):
                server = CharacterizationServer(
                    self._config(cache_dir=str(blocker / "spill"))
                )
            status, _, body, _ = await server.exchange(
                "GET", "/healthz", b""
            )
            return status, json.loads(body)["result"]

        status, result = asyncio.run(_run())
        assert status == 200
        assert result["status"] == "degraded"
        assert result["cache"]["spill_degraded"] is True
        assert result["live"] is True and result["ready"] is True
