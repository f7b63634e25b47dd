"""Chaos-in-the-loop serving tests (satellite 3).

A faulty matrix inside a coalesced batch must come back as a structured
quarantine error (a stable ``repro.robust`` taxonomy category) to *its*
caller only, while every healthy request sharing the batch succeeds —
and a loadgen trace with injected faults replays cleanly end to end.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.robust.taxonomy import FAULT_CATEGORIES
from repro.serve import CharacterizationServer, ServeConfig
from repro.serve.loadgen import generate_trace, replay_trace

from .conftest import kernel_invocations, quarantined_total


def _nan_matrix(shape=(4, 4)):
    matrix = np.ones(shape)
    matrix[0, 0] = np.nan
    return matrix


class TestFaultInCoalescedBatch:
    def _burst(self, server, matrices):
        async def main():
            return await asyncio.gather(
                *(
                    server.dispatch(
                        "POST",
                        "/v1/characterize",
                        json.dumps(
                            {"matrix": m}, allow_nan=True
                        ).encode(),
                    )
                    for m in matrices
                )
            )

        return asyncio.run(main())

    def test_faulty_member_gets_422_healthy_members_succeed(
        self, metrics_registry
    ):
        server = CharacterizationServer(
            ServeConfig(port=0, linger_s=0.05, enable_metrics=False)
        )
        rng = np.random.default_rng(41)
        healthy = [rng.uniform(0.5, 10.0, (4, 4)).tolist() for _ in range(4)]
        faulty = _nan_matrix().tolist()
        responses = self._burst(server, healthy + [faulty])

        statuses = [status for status, _, _ in responses]
        assert statuses[:4] == [200, 200, 200, 200]
        assert statuses[4] == 422
        error = json.loads(responses[4][2])["error"]
        assert error["category"] == "nan"
        assert "NaN" in error["message"]
        # The whole burst (healthy + faulty) shared ONE kernel batch:
        # quarantine cost zero extra invocations.
        assert kernel_invocations(metrics_registry, "characterize") == 1
        assert (
            quarantined_total(metrics_registry, "characterize", "nan") == 1
        )

    @pytest.mark.parametrize("endpoint", ["characterize", "standardize"])
    def test_unscalable_member_gets_422_batch_mates_their_solo_bytes(
        self, metrics_registry, endpoint
    ):
        # Finite entries whose line sums overflow to inf.
        rng = np.random.default_rng(3)
        healthy = [rng.uniform(0.5, 2.0, (8, 8)).tolist() for _ in range(2)]
        burst = [healthy[0], np.full((8, 8), 1e308).tolist(), healthy[1]]

        def exchange(matrices):
            server = CharacterizationServer(
                ServeConfig(port=0, linger_s=0.05, enable_metrics=False)
            )

            async def main():
                return await asyncio.gather(
                    *(
                        server.exchange(
                            "POST",
                            f"/v1/{endpoint}",
                            json.dumps({"matrix": m}).encode(),
                        )
                        for m in matrices
                    )
                )

            return asyncio.run(main())

        responses = exchange(burst)
        assert kernel_invocations(metrics_registry, endpoint) == 1
        assert [status for status, *_ in responses] == [200, 422, 200]
        error = json.loads(responses[1][2])["error"]
        assert error["category"] == "non-finite"
        assert "overflows" in error["message"]
        for matrix, (_, _, body, _) in zip(healthy, responses[::2]):
            ((status, _, solo, _),) = exchange([matrix])
            assert status == 200
            assert body == solo

    def test_empty_line_fault_category(self, metrics_registry):
        server = CharacterizationServer(
            ServeConfig(port=0, linger_s=0.01, enable_metrics=False)
        )
        matrix = np.ones((4, 4))
        matrix[2, :] = 0.0
        (response,) = self._burst(server, [matrix.tolist()])
        status, _, body = response
        assert status == 422
        assert json.loads(body)["error"]["category"] == "empty-line"

    def test_faults_are_never_cached(self, metrics_registry):
        server = CharacterizationServer(
            ServeConfig(port=0, linger_s=0.01, enable_metrics=False)
        )
        faulty = _nan_matrix().tolist()
        first = self._burst(server, [faulty])
        second = self._burst(server, [faulty])
        assert first[0][0] == second[0][0] == 422
        # The retry recomputed (2 kernel invocations), because a fixed
        # upstream would otherwise keep hitting a stale error.
        assert kernel_invocations(metrics_registry, "characterize") == 2

    def test_standardize_quarantines_too(self, metrics_registry):
        server = CharacterizationServer(
            ServeConfig(port=0, linger_s=0.01, enable_metrics=False)
        )

        async def main():
            return await server.dispatch(
                "POST",
                "/v1/standardize",
                json.dumps(
                    {"matrix": _nan_matrix().tolist()}, allow_nan=True
                ).encode(),
            )

        status, _, body = asyncio.run(main())
        assert status == 422
        assert json.loads(body)["error"]["category"] == "nan"


class TestChaosTraceReplay:
    def test_faulty_trace_replays_with_structured_errors(self, live_server):
        trace = generate_trace(
            requests=24,
            seed=5,
            shape=(5, 5),
            faults="nan=3,zero-row=2",
            fault_seed=7,
            endpoint_mix={"characterize": 1.0},
        )
        report = replay_trace(
            trace, live_server.host, live_server.port, time_scale=0.0
        )
        assert len(report.outcomes) == 24
        # Every injected fault came back as a structured quarantine
        # error with a taxonomy category; everything else succeeded.
        assert len(report.errors) == 5
        assert len(report.ok) == 19
        for outcome in report.errors:
            assert outcome.status == 422
            assert outcome.category in FAULT_CATEGORIES
        categories = report.by_category()
        assert categories.get("nan") == 3
        assert categories.get("empty-line") == 2

    def test_healthy_trace_is_fault_free(self, live_server):
        trace = generate_trace(
            requests=16, seed=6, shape=(4, 4), rate_hz=500.0
        )
        report = replay_trace(
            trace, live_server.host, live_server.port, time_scale=0.0
        )
        assert len(report.errors) == 0
        digest = report.to_payload()
        assert digest["ok"] == 16
        assert digest["p99_ms"] >= digest["p50_ms"] > 0
