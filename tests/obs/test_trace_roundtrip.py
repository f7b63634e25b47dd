"""JSONL trace round-trip: profile -o -> trace convert -> Chrome JSON."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.io import save_etc_csv
from repro.core.environment import ETCMatrix
from repro.exceptions import MatrixValueError
from repro.obs import convert_trace_jsonl, recording, span


@pytest.fixture
def etc_csv(tmp_path) -> str:
    etc = ETCMatrix(
        np.array([[4.0, 2.0], [1.0, 3.0], [2.0, 2.0]]),
        task_names=("t0", "t1", "t2"),
        machine_names=("m0", "m1"),
    )
    path = tmp_path / "env.csv"
    save_etc_csv(etc, path)
    return str(path)


class TestProfileToChromeTrace:
    def test_cli_roundtrip(self, tmp_path, etc_csv, capsys):
        jsonl = tmp_path / "trace.jsonl"
        out = tmp_path / "trace.json"
        assert main(["profile", etc_csv, "-o", str(jsonl)]) == 0
        assert main(["trace", "convert", str(jsonl), "-o", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "trace event(s)" in stdout

        doc = json.loads(out.read_text(encoding="utf-8"))
        events = doc["traceEvents"]
        assert events, "profile run produced no trace events"
        for event in events:
            assert event["ph"] in ("X", "M")
            if event["ph"] == "M":
                continue  # process/thread-name metadata has no ts
            assert isinstance(event["ts"], (int, float))
            if event["ph"] == "X":
                assert event["dur"] >= 0

        # Single-process run: one named lane.
        metadata = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in metadata} == {
            "process_name", "thread_name",
        }
        # The profile pipeline's spans survive the round trip ...
        span_names = {e["name"] for e in events if e["ph"] == "X"}
        assert "measures.characterize" in span_names
        assert any(n.startswith("sinkhorn") for n in span_names)
        # ... and so do the counts they carry, as span args.
        min_min = next(e for e in events if e["name"] == "scheduling.min_min")
        assert min_min["args"]["tasks"] == 3

    def test_convert_reports_malformed_line(self, tmp_path, capsys):
        jsonl = tmp_path / "trace.jsonl"
        jsonl.write_text(
            '{"type": "span", "name": "ok", "start": 0.0, "wall_s": 0.1,'
            ' "cpu_s": 0.1, "depth": 0, "meta": {}, "samples": {}}\n'
            "{broken\n",
            encoding="utf-8",
        )
        out = tmp_path / "trace.json"
        assert main(["trace", "convert", str(jsonl), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and ":2:" in err

    def test_convert_missing_input_exits_2(self, tmp_path, capsys):
        assert main([
            "trace", "convert", str(tmp_path / "nope.jsonl"),
            "-o", str(tmp_path / "out.json"),
        ]) == 2
        assert "error:" in capsys.readouterr().err


class TestExceptionPropagationPath:
    def test_sink_flushed_and_closed_on_error(self, tmp_path):
        jsonl = tmp_path / "trace.jsonl"
        with pytest.raises(MatrixValueError):
            with recording(trace_path=jsonl):
                with span("roundtrip.outer") as sp:
                    sp.note(count=2)
                    raise MatrixValueError("injected failure")

        # Every line parses: the JSONL sink was flushed and closed even
        # though the block exited by raising.
        records = [
            json.loads(line)
            for line in jsonl.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        by_type = {}
        for record in records:
            by_type.setdefault(record["type"], []).append(record)
        # The error span was recorded with its exception class ...
        outer = next(
            r for r in by_type["span"] if r["name"] == "roundtrip.outer"
        )
        assert outer["error"] == "MatrixValueError"
        # ... with the count noted before the raise, and nothing else.
        assert outer["meta"]["count"] == 2
        assert set(by_type) == {"span"}

        # The converter accepts the error-path trace unchanged (the two
        # extra events are the lane's process/thread-name metadata).
        out = tmp_path / "trace.json"
        count = convert_trace_jsonl(jsonl, out)
        assert count == len(records) + 2
        doc = json.loads(out.read_text(encoding="utf-8"))
        err_event = next(
            e for e in doc["traceEvents"] if e["name"] == "roundtrip.outer"
        )
        assert err_event["args"]["error"] == "MatrixValueError"
