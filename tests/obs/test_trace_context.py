"""TraceContext propagation primitives: ids, headers, spans, stages."""

from __future__ import annotations

import json
import time

import pytest

from repro.obs import (
    TIMING_STAGES,
    MemorySink,
    RequestTrace,
    TraceContext,
    Tracer,
    current_trace,
    current_tracer,
    recording,
    span,
    trace_scope,
    tracing,
)
from repro.obs.trace_context import request_ids


class TestTraceContext:
    def test_new_mints_well_formed_ids(self):
        ctx = TraceContext.new()
        assert len(ctx.trace_id) == 32
        assert len(ctx.span_id) == 16
        int(ctx.trace_id, 16), int(ctx.span_id, 16)
        assert ctx.parent_id is None

    def test_ids_are_unique(self):
        contexts = [TraceContext.new() for _ in range(64)]
        assert len({c.trace_id for c in contexts}) == 64
        assert len({c.span_id for c in contexts}) == 64

    def test_child_shares_trace_and_links_parent(self):
        parent = TraceContext.new()
        child = parent.child()
        assert child.trace_id == parent.trace_id
        assert child.parent_id == parent.span_id
        assert child.span_id != parent.span_id

    def test_traceparent_roundtrip(self):
        ctx = TraceContext.new()
        parsed = TraceContext.from_traceparent(ctx.to_traceparent())
        assert parsed is not None
        assert parsed.trace_id == ctx.trace_id
        assert parsed.span_id == ctx.span_id

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "garbage",
            "00-short-beef-01",
            "00-" + "0" * 32 + "-" + "ab" * 8 + "-01",  # zero trace id
            "00-" + "ab" * 16 + "-" + "0" * 16 + "-01",  # zero span id
            "ff-" + "ab" * 16 + "-" + "cd" * 8 + "-01",  # forbidden version
            "00-" + "gg" * 16 + "-" + "cd" * 8 + "-01",  # non-hex
        ],
        ids=[
            "none", "empty", "garbage", "short", "zero-trace",
            "zero-span", "version-ff", "non-hex",
        ],
    )
    def test_malformed_traceparent_yields_none(self, header):
        assert TraceContext.from_traceparent(header) is None

    def test_traceparent_case_insensitive(self):
        header = "00-" + "AB" * 16 + "-" + "CD" * 8 + "-01"
        parsed = TraceContext.from_traceparent(header)
        assert parsed is not None and parsed.trace_id == "ab" * 16

    def test_payload_roundtrip_is_pickle_safe(self):
        child = TraceContext.new().child()
        payload = child.to_payload()
        json.dumps(payload)  # plain-dict, JSON/pickle friendly
        back = TraceContext.from_payload(payload)
        assert back == child

    def test_from_payload_tolerates_garbage(self):
        assert TraceContext.from_payload(None) is None
        assert TraceContext.from_payload({}) is None
        assert TraceContext.from_payload({"trace_id": "x"}) is None


class TestRequestTrace:
    def test_begin_without_header_mints_root(self):
        rtrace = RequestTrace.begin()
        assert rtrace.context.parent_id is None
        assert rtrace.remote_parent is False

    def test_begin_adopts_remote_parent(self):
        remote = TraceContext.new()
        parent, trace_id = request_ids(remote.to_traceparent())
        assert trace_id == remote.trace_id
        rtrace = RequestTrace.begin(parent, trace_id)
        assert rtrace.remote_parent is True
        assert rtrace.context.trace_id == remote.trace_id
        assert rtrace.context.parent_id == remote.span_id

    def test_begin_with_bad_header_starts_fresh(self):
        parent, trace_id = request_ids("not-a-traceparent")
        assert parent is None and len(trace_id) == 32
        rtrace = RequestTrace.begin(parent, trace_id)
        assert rtrace.remote_parent is False
        assert rtrace.context.trace_id == trace_id
        assert rtrace.context.parent_id is None

    def test_begin_at_t0_backdates_the_wall_clock_start(self):
        now = time.perf_counter()
        rtrace = RequestTrace.begin(t0=now - 5.0)
        assert rtrace.t0 == now - 5.0
        assert rtrace.elapsed() >= 5.0
        assert rtrace.started_at == pytest.approx(time.time() - 5.0, abs=1.0)

    def test_timings_sum_to_total_by_construction(self):
        rtrace = RequestTrace.begin()
        rtrace.add("kernel_s", 0.2)
        rtrace.add("cache_s", 0.05)
        timings = rtrace.timings(0.5)
        assert set(timings) == set(TIMING_STAGES)
        assert sum(timings.values()) == pytest.approx(0.5)
        assert timings["other_s"] == pytest.approx(0.25)

    def test_other_s_never_negative(self):
        rtrace = RequestTrace.begin()
        rtrace.add("kernel_s", 2.0)
        assert rtrace.timings(1.0)["other_s"] == 0.0

    def test_add_accumulates_and_ignores_nonpositive(self):
        rtrace = RequestTrace.begin()
        rtrace.add("cache_s", 0.1)
        rtrace.add("cache_s", 0.2)
        rtrace.add("cache_s", 0.0)
        rtrace.add("cache_s", -1.0)
        assert rtrace.stages["cache_s"] == pytest.approx(0.3)


class TestTracer:
    def test_emit_span_writes_straight_to_sink(self):
        sink = MemorySink()
        tracer = Tracer(sink, process="unit")
        ctx = TraceContext.new()
        tracer.emit_span("demo", ctx, wall_s=0.5, meta={"k": 1})
        assert len(sink.records) == 1
        record = sink.records[0]
        assert record["type"] == "span"
        assert record["trace_id"] == ctx.trace_id
        assert record["span_id"] == ctx.span_id
        assert record["process"] == "unit"
        assert record["meta"] == {"k": 1}
        json.dumps(record)

    def test_span_context_manager_records_errors(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with pytest.raises(RuntimeError):
            with tracer.span("boom", TraceContext.new()):
                raise RuntimeError("nope")
        assert sink.records[0]["error"] == "RuntimeError: nope"

    def test_links_survive_to_the_record(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        members = [TraceContext.new() for _ in range(3)]
        tracer.emit_span(
            "fan-in",
            TraceContext.new(),
            wall_s=0.1,
            links=[m.link() for m in members],
        )
        links = sink.records[0]["links"]
        assert [l["span_id"] for l in links] == [m.span_id for m in members]

    def test_index_is_monotonic(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        for _ in range(5):
            tracer.emit_span("s", TraceContext.new(), wall_s=0.0)
        assert [r["index"] for r in sink.records] == list(range(5))


class TestAmbientState:
    def test_trace_scope_binds_and_restores(self):
        assert current_trace() is None
        ctx = TraceContext.new()
        with trace_scope(ctx):
            assert current_trace() is ctx
        assert current_trace() is None

    def test_tracing_installs_process_tracer(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        assert current_tracer() is None
        with tracing(str(path)) as tracer:
            assert current_tracer() is tracer
            assert tracer.path == str(path)
            tracer.emit_span("demo", TraceContext.new(), wall_s=0.1)
        assert current_tracer() is None
        assert path.exists()

    def test_recorder_spans_pick_up_ambient_trace(self):
        ctx = TraceContext.new()
        with recording() as rec:
            with trace_scope(ctx):
                with span("traced.step"):
                    pass
            with span("untraced.step"):
                pass
        by_name = {e.name: e for e in rec.events}
        traced = by_name["traced.step"]
        assert traced.trace_id == ctx.trace_id
        assert traced.parent_id == ctx.span_id
        record = traced.to_record()
        assert record["trace_id"] == ctx.trace_id
        untraced = by_name["untraced.step"]
        assert untraced.trace_id is None
        assert "trace_id" not in untraced.to_record()
