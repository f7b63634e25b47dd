"""Unit tests for the repro.obs recorder core."""

import threading

import pytest

from repro.obs import (
    MemorySink,
    Recorder,
    current_recorder,
    note,
    recording,
    span,
    summary,
    traced,
)
from repro.obs.recorder import _NOOP_SPAN


class TestNoopPath:
    def test_no_ambient_recorder_by_default(self):
        assert current_recorder() is None

    def test_span_returns_shared_noop(self):
        assert span("anything") is _NOOP_SPAN
        assert span("other", key=1) is _NOOP_SPAN

    def test_noop_span_accepts_all_operations(self):
        with span("noop.block") as sp:
            assert not sp.enabled
            sp.note(key="value")
            sp.sample("series", 1.0)
            sp.sample("series", [1.0, 2.0])

    def test_noop_span_propagates_exceptions(self):
        with pytest.raises(RuntimeError):
            with span("noop.err"):
                raise RuntimeError("boom")

    def test_traced_calls_through(self):
        @traced
        def add(a, b):
            return a + b

        assert add(2, 3) == 5

    def test_summary_without_recorder_is_empty(self):
        stats = summary()
        assert len(stats) == 0
        assert not stats.covers("anything")


class TestRecording:
    def test_recording_installs_and_removes_recorder(self):
        with recording() as rec:
            assert current_recorder() is rec
        assert current_recorder() is None

    def test_span_collects_event(self):
        with recording() as rec:
            with span("unit.block", rows=3) as sp:
                assert sp.enabled
                sp.note(extra="x")
                sp.sample("vals", [1.0, 2.0])
                sp.sample("vals", 3.0)
        (event,) = rec.events
        assert event.name == "unit.block"
        assert event.wall_s >= 0 and event.cpu_s >= 0
        assert event.meta["rows"] == 3 and event.meta["extra"] == "x"
        assert event.samples["vals"] == (1.0, 2.0, 3.0)
        assert event.error is None

    def test_span_records_error_and_reraises(self):
        with recording() as rec:
            with pytest.raises(ValueError):
                with span("unit.err"):
                    raise ValueError("nope")
        assert rec.events[0].error == "ValueError"

    def test_nesting_depth(self):
        with recording() as rec:
            with span("outer"):
                with span("inner"):
                    pass
        by_name = {e.name: e for e in rec.events}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        # inner closes first, so it gets the lower index
        assert by_name["inner"].index < by_name["outer"].index

    def test_note_attaches_to_the_innermost_open_span(self):
        @traced(name="unit.noted")
        def work():
            note(members=3)

        with recording() as rec:
            with span("unit.outer"):
                work()
            note(dropped=1)  # no span open: nothing happens
        by_name = {e.name: e for e in rec.events}
        assert by_name["unit.noted"].meta == {"members": 3}
        assert by_name["unit.outer"].meta == {}

    def test_note_without_a_recording_is_a_no_op(self):
        note(members=3)

    def test_spans_prefix_filter(self):
        with recording() as rec:
            with span("a.one"):
                pass
            with span("b.two"):
                pass
        assert [e.name for e in rec.spans(prefix="a")] == ["a.one"]
        assert len(rec.spans()) == 2

    def test_traced_decorator_records(self):
        @traced(name="unit.traced_fn")
        def work(x):
            return x * 2

        with recording() as rec:
            assert work(21) == 42
        assert rec.events[0].name == "unit.traced_fn"

    def test_traced_default_name_strips_repro_prefix(self):
        from repro.batch.ensemble import characterize_ensemble

        assert (
            characterize_ensemble.__traced_span__
            == "batch.characterize_ensemble"
        )

    def test_memory_sink_receives_records(self):
        sink = MemorySink()
        with recording(sinks=[sink]):
            with span("unit.sunk"):
                pass
        assert [r["type"] for r in sink.records] == ["span"]

    def test_recorder_close_is_idempotent(self):
        rec = Recorder(sinks=[MemorySink()])
        rec.close()
        rec.close()

    def test_recording_isolated_per_thread(self):
        seen = {}

        def worker():
            seen["inner"] = current_recorder()

        with recording():
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        # a fresh thread starts from the default context: no recorder
        assert seen["inner"] is None
