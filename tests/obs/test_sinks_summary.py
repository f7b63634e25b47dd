"""Sinks and span-summary aggregation."""

import json
import logging

import pytest

from repro.obs import (
    JsonlSink,
    LoggingSink,
    MemorySink,
    Sink,
    SpanSummary,
    recording,
    span,
    summary,
)
from repro.obs.summary import _percentile


class TestSinkProtocol:
    def test_builtin_sinks_satisfy_protocol(self):
        assert isinstance(MemorySink(), Sink)
        assert isinstance(LoggingSink(), Sink)

    def test_custom_sink_satisfies_protocol(self):
        class Custom:
            def emit(self, record):
                pass

            def close(self):
                pass

        assert isinstance(Custom(), Sink)


class TestJsonlSink:
    def test_writes_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with recording(trace_path=path):
            with span("jsonl.block", rows=2):
                pass
        lines = path.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["type"] for r in records] == ["span"]
        span_rec = records[0]
        assert span_rec["name"] == "jsonl.block"
        assert span_rec["meta"]["rows"] == 2

    def test_no_file_created_when_nothing_emitted(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        sink = JsonlSink(path)
        sink.close()
        assert not path.exists()


class TestLoggingSink:
    def test_spans_logged_at_debug(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.obs"):
            with recording(logger=True):
                with span("logged.block"):
                    pass
        assert any("logged.block" in r.getMessage() for r in caplog.records)


class TestPercentile:
    def test_empty_and_single(self):
        assert _percentile([], 0.5) == 0.0
        assert _percentile([3.0], 0.95) == 3.0

    def test_interpolates(self):
        assert _percentile([0.0, 1.0], 0.5) == pytest.approx(0.5)
        assert _percentile([0.0, 1.0, 2.0, 3.0], 0.95) == pytest.approx(2.85)


class TestSummary:
    def test_aggregates_per_name(self):
        with recording() as rec:
            for _ in range(4):
                with span("agg.step", items=2, ok=True, ratio=0.5, kind="x"):
                    pass
        stats = summary(rec)
        row = stats.row("agg.step")
        assert row.count == 4
        assert row.total_s >= row.max_s >= row.p95_s >= row.p50_s >= 0
        assert row.mean_s == pytest.approx(row.total_s / 4)
        # Only int attributes are counts; a bool is not.
        assert row.totals == {"items": 8}

    def test_row_missing_name_raises(self):
        stats = SpanSummary(rows=())
        with pytest.raises(KeyError):
            stats.row("absent")

    def test_covers_matches_prefix(self):
        with recording() as rec:
            with span("svd.scalar"):
                pass
        stats = rec.summary()
        assert stats.covers("svd")
        assert stats.covers("svd.scalar")
        assert not stats.covers("svd.scal")
        assert not stats.covers("sinkhorn")

    def test_table_and_to_dict(self):
        with recording() as rec:
            with span("tbl.step", count=3, size=1):
                pass
        stats = rec.summary()
        text = stats.table()
        assert "tbl.step" in text and "totals tbl.step: count=3 size=1" in text
        doc = stats.to_dict()
        assert doc["spans"][0]["name"] == "tbl.step"
        assert doc["spans"][0]["totals"] == {"count": 3, "size": 1}
        json.dumps(doc)  # JSON-safe

    def test_empty_table_placeholder(self):
        assert "no spans" in SpanSummary(rows=()).table()
