"""TraceContext propagation primitives: ids, headers, spans, stages."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.obs import (
    TIMING_STAGES,
    JsonlSink,
    MemorySink,
    RequestTrace,
    TraceContext,
    current_recorder,
    current_trace,
    record_span,
    recording,
    span,
    trace_scope,
)
from repro.obs.recorder import current_sinks
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
            "00-" + "ab" * 16 + "-" + "cd" * 8 + "-zz",  # non-hex flags
            "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01-extra",  # 5 fields
        ],
        ids=[
            "none", "empty", "garbage", "short", "zero-trace",
            "zero-span", "version-ff", "non-hex", "non-hex-flags",
            "version-00-extra-field",
        ],
    )
    def test_malformed_traceparent_yields_none(self, header):
        assert TraceContext.from_traceparent(header) is None

    def test_later_version_may_append_fields(self):
        header = "01-" + "ab" * 16 + "-" + "cd" * 8 + "-01-extra"
        parsed = TraceContext.from_traceparent(header)
        assert parsed is not None
        assert parsed.trace_id == "ab" * 16
        assert parsed.span_id == "cd" * 8

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


class TestRequestIds:
    """Untraced trace ids are cut from a per-thread buffer of OS random
    bytes: W3C ids, never reused across threads or forked children."""

    N_IDS = 600  # many buffers' worth

    def test_ids_are_w3c_trace_ids(self):
        ids = [request_ids(None) for _ in range(self.N_IDS)]
        assert all(parent is None for parent, _ in ids)
        trace_ids = [trace_id for _, trace_id in ids]
        assert len(set(trace_ids)) == self.N_IDS
        for trace_id in trace_ids:
            header = f"00-{trace_id}-{'1' * 16}-01"
            assert TraceContext.from_traceparent(header).trace_id == trace_id

    def test_ids_from_threads_are_unique(self):
        import sys
        import threading

        drawn = [[] for _ in range(4)]

        def draw(out):
            out.extend(request_ids(None)[1] for _ in range(self.N_IDS))

        threads = [threading.Thread(target=draw, args=(out,)) for out in drawn]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid-draw
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        ids = [trace_id for out in drawn for trace_id in out]
        ids += [request_ids(None)[1] for _ in range(self.N_IDS)]
        assert len(ids) == 5 * self.N_IDS
        assert len(set(ids)) == len(ids)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.parametrize("in_thread", [False, True], ids=["main", "thread"])
    def test_forked_child_mints_its_own_ids(self, in_thread):
        import threading

        drawn = {}

        def fork_and_draw():
            request_ids(None)  # this thread now holds a buffer of ids
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child
                try:
                    ids = " ".join(request_ids(None)[1] for _ in range(8))
                    os.write(write_end, ids.encode())
                finally:
                    os._exit(0)
            os.close(write_end)
            with os.fdopen(read_end, "rb") as pipe:
                drawn["child"] = pipe.read().decode().split()
            os.waitpid(pid, 0)
            drawn["parent"] = [request_ids(None)[1] for _ in range(8)]

        if in_thread:
            thread = threading.Thread(target=fork_and_draw)
            thread.start()
            thread.join(timeout=30)
            assert not thread.is_alive()
        else:
            fork_and_draw()
        assert len(drawn["child"]) == 8
        assert not set(drawn["child"]) & set(drawn["parent"])


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
    """Span records written through a bound sink, with no recorder."""

    def test_emit_span_writes_straight_to_sink(self):
        sink = MemorySink()
        ctx = TraceContext.new()
        with trace_scope(ctx, sink):
            assert current_recorder() is None  # nothing is retained
            record_span("demo", ctx, start=time.time(), wall_s=0.5,
                        meta={"k": 1})
        assert len(sink.records) == 1
        record = sink.records[0]
        assert record["type"] == "span"
        assert record["trace_id"] == ctx.trace_id
        assert record["span_id"] == ctx.span_id
        assert record["pid"] == os.getpid()
        assert record["meta"] == {"k": 1}
        assert record["depth"] == 0
        json.dumps(record)

    def test_span_context_manager_records_errors(self):
        sink = MemorySink()
        with trace_scope(TraceContext.new(), sink):
            with pytest.raises(RuntimeError):
                with span("boom"):
                    raise RuntimeError("nope")
        assert sink.records[0]["error"] == "RuntimeError"

    def test_links_survive_to_the_record(self):
        sink = MemorySink()
        members = [TraceContext.new() for _ in range(3)]
        with trace_scope(TraceContext.new(), sink):
            with span("fan-in") as sp:
                for member in members:
                    sp.link(member)
        links = sink.records[0]["links"]
        assert [l["span_id"] for l in links] == [m.span_id for m in members]

    def test_index_is_monotonic(self):
        sink = MemorySink()
        with trace_scope(TraceContext.new(), sink):
            for _ in range(5):
                with span("s"):
                    pass
        indices = [r["index"] for r in sink.records]
        assert indices == sorted(indices)
        assert len(set(indices)) == 5


class TestAmbientState:
    def test_trace_scope_binds_and_restores(self):
        assert current_trace() is None
        ctx = TraceContext.new()
        with trace_scope(ctx):
            assert current_trace() is ctx
        assert current_trace() is None

    def test_tracing_installs_process_tracer(self, tmp_path):
        """``recording(trace_path=...)`` binds a JSONL sink for the block
        only: nothing is bound before or after it."""
        path = tmp_path / "spans.jsonl"
        assert current_sinks() == ()
        with recording(trace_path=str(path)):
            [sink] = current_sinks()
            assert isinstance(sink, JsonlSink)
            assert sink.path == str(path)
            with span("demo"):
                pass
        assert current_sinks() == ()
        [record] = [json.loads(line) for line in path.read_text().splitlines()
                    if json.loads(line)["type"] == "span"]
        assert record["name"] == "demo"

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
        # Both share the recording's wall-clock time base.
        assert abs(traced.start - untraced.start) < 60.0
        assert abs(traced.start - time.time()) < 60.0

    def test_nested_spans_nest_under_trace_scope(self):
        ctx = TraceContext.new()
        with recording() as rec:
            with trace_scope(ctx):
                with span("outer"):
                    with span("inner"):
                        assert current_trace().trace_id == ctx.trace_id
                assert current_trace() is ctx
        by_name = {e.name: e for e in rec.events}
        outer, inner = by_name["outer"], by_name["inner"]
        assert outer.parent_id == ctx.span_id
        assert inner.parent_id == outer.span_id
        assert inner.depth == outer.depth + 1

    def test_span_under_an_idle_trace_scope_is_a_noop(self):
        with trace_scope(TraceContext.new()):
            assert span("nothing.bound").enabled is False
