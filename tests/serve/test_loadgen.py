"""Trace generation, persistence, determinism and the replay client."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.serve import (
    TRACE_SCHEMA,
    generate_trace,
    load_trace,
    percentile,
    save_trace,
)


class TestGenerate:
    def test_same_seed_same_trace(self):
        a = generate_trace(requests=32, seed=9)
        b = generate_trace(requests=32, seed=9)
        assert [r.to_record() for r in a] == [r.to_record() for r in b]

    def test_different_seed_different_trace(self):
        a = generate_trace(requests=16, seed=1)
        b = generate_trace(requests=16, seed=2)
        assert [r.to_record() for r in a] != [r.to_record() for r in b]

    def test_offsets_are_monotonic(self):
        trace = generate_trace(requests=32, seed=3, rate_hz=100.0)
        offsets = [r.offset_s for r in trace]
        assert offsets == sorted(offsets)
        assert offsets[0] > 0

    def test_shape_and_endpoints(self):
        trace = generate_trace(requests=40, seed=4, shape=(3, 7))
        endpoints = {r.endpoint for r in trace}
        assert endpoints <= {
            "characterize",
            "standardize",
            "recommend-heuristic",
        }
        for request in trace:
            matrix = np.asarray(request.payload["matrix"])
            assert matrix.shape == (3, 7)

    def test_duplicates_exist_for_cache_pressure(self):
        trace = generate_trace(
            requests=64, seed=5, duplicate_fraction=0.5, perturb_fraction=0.0
        )
        rendered = [json.dumps(r.payload["matrix"]) for r in trace]
        assert len(set(rendered)) < len(rendered)

    def test_endpoint_mix_is_respected(self):
        trace = generate_trace(
            requests=20, seed=6, endpoint_mix={"standardize": 1.0}
        )
        assert {r.endpoint for r in trace} == {"standardize"}

    def test_fault_injection_corrupts_a_seeded_subset(self):
        trace = generate_trace(
            requests=16, seed=7, faults="nan=2", fault_seed=3
        )
        nan_requests = [
            r
            for r in trace
            if np.isnan(np.asarray(r.payload["matrix"])).any()
        ]
        assert len(nan_requests) == 2
        again = generate_trace(
            requests=16, seed=7, faults="nan=2", fault_seed=3
        )
        # NaN != NaN, so compare the serialized text (NaN renders as a
        # stable token) rather than the raw records.
        assert [json.dumps(r.to_record()) for r in trace] == [
            json.dumps(r.to_record()) for r in again
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"requests": 0},
            {"duplicate_fraction": 0.7, "perturb_fraction": 0.7},
            {"endpoint_mix": {"characterize": -1.0}},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            generate_trace(seed=0, **kwargs)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        trace = generate_trace(requests=12, seed=8)
        path = save_trace(trace, tmp_path / "t.jsonl")
        loaded = load_trace(path)
        assert [r.to_record() for r in loaded] == [
            r.to_record() for r in trace
        ]

    def test_roundtrip_preserves_nan_faults(self, tmp_path):
        trace = generate_trace(requests=8, seed=9, faults="nan=1")
        loaded = load_trace(save_trace(trace, tmp_path / "t.jsonl"))
        nans = [
            r
            for r in loaded
            if np.isnan(np.asarray(r.payload["matrix"])).any()
        ]
        assert len(nans) == 1

    def test_header_carries_schema(self, tmp_path):
        path = save_trace(
            generate_trace(requests=3, seed=1), tmp_path / "t.jsonl"
        )
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"schema": TRACE_SCHEMA, "requests": 3}

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"offset_s": 0.1}\n')
        with pytest.raises(ValueError, match="schema"):
            load_trace(path)

    def test_bad_json_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"schema": TRACE_SCHEMA, "requests": 1})
            + "\n{oops\n"
        )
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            load_trace(path)

    def test_malformed_record_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"schema": TRACE_SCHEMA, "requests": 1})
            + "\n"
            + json.dumps({"endpoint": "characterize"})
            + "\n"
        )
        with pytest.raises(ValueError, match="malformed trace record"):
            load_trace(path)

    def test_header_without_requests_rejected(self, tmp_path):
        # Replaying an empty trace would fail later, in percentiles().
        path = tmp_path / "empty.jsonl"
        path.write_text(json.dumps({"schema": TRACE_SCHEMA}) + "\n")
        with pytest.raises(ValueError, match="trace has no requests"):
            load_trace(path)


class TestPercentile:
    def test_nearest_rank(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(values, 50) == 3.0
        assert percentile(values, 99) == 5.0
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 5.0

    def test_single_value(self):
        assert percentile([7.0], 50) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 150)


class TestReplayAndStudy:
    def test_replay_collects_latencies(self, live_server):
        trace = generate_trace(requests=10, seed=10, shape=(4, 4))
        from repro.serve import replay_trace

        report = replay_trace(
            trace, live_server.host, live_server.port, time_scale=0.0
        )
        assert len(report.outcomes) == 10
        assert all(o.latency_s > 0 for o in report.outcomes)
        assert math.isfinite(report.percentiles()["p99_ms"])
        assert "latency p50=" in report.summary()

    def test_replay_offsets_honour_time_scale_zero(self, live_server):
        # With time_scale=0 every arrival collapses into one burst;
        # wall time must be far below the trace's nominal duration.
        trace = generate_trace(
            requests=8, seed=12, shape=(3, 3), rate_hz=2.0
        )
        from repro.serve import replay_trace

        nominal = trace[-1].offset_s
        report = replay_trace(
            trace, live_server.host, live_server.port, time_scale=0.0
        )
        assert report.wall_s < nominal

    def test_estimate_capacity_reports_a_finite_positive_rate(
        self, live_server
    ):
        from repro.serve import estimate_capacity

        rate = estimate_capacity(
            live_server.host, live_server.port, shape=(4, 4), probe=8
        )
        assert math.isfinite(rate) and rate > 0.0
        # The probe was answered, not refused: every request succeeded.
        served = live_server.registry.counter(
            "repro_serve_requests_total", labelnames=("endpoint", "status")
        ).value(endpoint="characterize", status="200")
        assert served == 8
