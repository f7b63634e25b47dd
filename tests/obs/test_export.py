"""Prometheus exposition, the scrape endpoint and Chrome trace export."""

from __future__ import annotations

import json
import re
import urllib.request

import pytest

from repro.obs import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    chrome_trace,
    recording,
    render_prometheus,
    span,
    start_metrics_server,
)

SAMPLE_LINE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?P<labels>\{.*?\})? (?P<value>\S+)'
    r'(?P<exemplar> # \{.*\} \S+( \S+)?)?$'
)


def _parse_exposition(text: str) -> dict:
    """Parse the text format into {metric: {"type", "help", "samples"}}.

    A deliberately independent mini-parser: it checks the invariants a
    real scraper relies on (HELP/TYPE precede samples, every sample
    line matches the grammar) rather than mirroring the renderer.
    """
    families: dict[str, dict] = {}
    current = None
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            current = families.setdefault(
                name, {"help": help_text, "type": None, "samples": []}
            )
        elif line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            assert name in families, f"TYPE before HELP for {name}"
            families[name]["type"] = kind
        else:
            match = SAMPLE_LINE.match(line)
            assert match, f"malformed sample line: {line!r}"
            base = match.group("name")
            for suffix in ("_bucket", "_sum", "_count"):
                if base.endswith(suffix) and base[: -len(suffix)] in families:
                    base = base[: -len(suffix)]
                    break
            assert base in families, f"sample for undeclared metric: {line!r}"
            assert current is not None
            families[base]["samples"].append(
                (match.group("name"), match.group("labels") or "",
                 match.group("value"))
            )
            if match.group("exemplar"):
                families[base].setdefault("exemplars", []).append(
                    match.group("exemplar").strip()
                )
    return families


@pytest.fixture
def registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    runs = registry.counter(
        "demo_runs_total", "Demo runs.", labelnames=("kind",)
    )
    runs.inc(kind="fast")
    runs.inc(2, kind="slow")
    registry.gauge("demo_level", "Demo level.").set(0.5)
    hist = registry.histogram(
        "demo_seconds", "Demo durations.", labelnames=("stage",),
        buckets=(0.1, 1.0),
    )
    for value in (0.05, 0.5, 5.0):
        hist.observe(value, stage="run")
    return registry


class TestPrometheusFormat:
    def test_every_family_has_help_and_type(self, registry):
        families = _parse_exposition(render_prometheus(registry))
        assert set(families) == {
            "demo_runs_total", "demo_level", "demo_seconds",
        }
        assert families["demo_runs_total"]["type"] == "counter"
        assert families["demo_level"]["type"] == "gauge"
        assert families["demo_seconds"]["type"] == "histogram"
        for family in families.values():
            assert family["help"]

    def test_counter_and_gauge_samples(self, registry):
        text = render_prometheus(registry)
        assert 'demo_runs_total{kind="fast"} 1' in text.splitlines()
        assert 'demo_runs_total{kind="slow"} 2' in text.splitlines()
        assert "demo_level 0.5" in text.splitlines()

    def test_histogram_bucket_invariants(self, registry):
        text = render_prometheus(registry)
        buckets = re.findall(
            r'demo_seconds_bucket\{stage="run",le="([^"]+)"\} (\d+)', text
        )
        assert [b[0] for b in buckets] == ["0.1", "1", "+Inf"]
        counts = [int(b[1]) for b in buckets]
        # Cumulative and non-decreasing; +Inf equals _count.
        assert counts == sorted(counts) == [1, 2, 3]
        assert 'demo_seconds_count{stage="run"} 3' in text.splitlines()
        assert 'demo_seconds_sum{stage="run"} 5.55' in text.splitlines()

    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        counter = registry.counter(
            "esc_total", "Escapes.", labelnames=("path",)
        )
        counter.inc(path='with"quote')
        counter.inc(path="with\\slash")
        counter.inc(path="with\nnewline")
        text = render_prometheus(registry)
        assert 'esc_total{path="with\\"quote"} 1' in text.splitlines()
        assert 'esc_total{path="with\\\\slash"} 1' in text.splitlines()
        assert 'esc_total{path="with\\nnewline"} 1' in text.splitlines()
        # The document itself stays one sample per physical line.
        _parse_exposition(text)

    def test_help_newline_escaping(self):
        registry = MetricsRegistry()
        registry.counter("multi_total", "line one\nline two").inc()
        text = render_prometheus(registry)
        assert "# HELP multi_total line one\\nline two" in text.splitlines()

    def test_empty_family_renders_headers_only(self):
        registry = MetricsRegistry()
        registry.counter("quiet_total", "Never incremented.")
        families = _parse_exposition(render_prometheus(registry))
        assert families["quiet_total"]["samples"] == []

    def test_hot_path_output_parses(self):
        from repro import characterize
        from repro.obs import collecting_metrics

        with collecting_metrics(MetricsRegistry()) as reg:
            characterize([[1.0, 2.0], [2.0, 1.0]])
        families = _parse_exposition(render_prometheus(reg))
        assert "repro_sinkhorn_iterations" in families
        assert families["repro_sinkhorn_iterations"]["type"] == "histogram"


class TestExemplars:
    def _registry_with_exemplar(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        hist = registry.histogram(
            "ex_seconds", "Exemplar demo.", labelnames=("stage",),
            buckets=(0.1, 1.0),
        )
        hist.observe(0.5, exemplar={"trace_id": "abc123"}, stage="run")
        return registry

    def test_exemplar_renders_on_the_observed_bucket(self):
        text = render_prometheus(self._registry_with_exemplar())
        line = next(
            l for l in text.splitlines()
            if l.startswith("ex_seconds_bucket") and 'le="1"' in l
        )
        assert ' # {trace_id="abc123"} 0.5 ' in line

    def test_exemplar_bearing_exposition_parses(self):
        families = _parse_exposition(
            render_prometheus(self._registry_with_exemplar())
        )
        assert families["ex_seconds"]["exemplars"]

    def test_last_exemplar_per_bucket_wins(self):
        registry = self._registry_with_exemplar()
        hist = registry.histogram(
            "ex_seconds", "Exemplar demo.", labelnames=("stage",),
            buckets=(0.1, 1.0),
        )
        hist.observe(0.4, exemplar={"trace_id": "later99"}, stage="run")
        text = render_prometheus(registry)
        assert "later99" in text and "abc123" not in text

    def test_snapshot_strips_exemplars(self):
        # Exemplars are scrape-time decoration and must not leak into
        # the stable snapshot shape.
        registry = self._registry_with_exemplar()
        snapshot = registry.snapshot()
        for series in snapshot["ex_seconds"]["series"]:
            assert "exemplars" not in series

    def test_unobserved_buckets_carry_no_exemplar(self):
        text = render_prometheus(self._registry_with_exemplar())
        first = next(
            l for l in text.splitlines()
            if l.startswith("ex_seconds_bucket") and 'le="0.1"' in l
        )
        assert "#" not in first


class TestMetricsServer:
    def test_scrape_roundtrip_on_ephemeral_port(self, registry):
        server = start_metrics_server(port=0, registry=registry)
        try:
            host, port = server.server_address[:2]
            with urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=5
            ) as response:
                assert response.status == 200
                assert (
                    response.headers["Content-Type"]
                    == PROMETHEUS_CONTENT_TYPE
                )
                body = response.read().decode("utf-8")
            assert body == render_prometheus(registry)
            _parse_exposition(body)
        finally:
            server.shutdown()
            server.server_close()

    def test_unknown_path_is_404(self, registry):
        server = start_metrics_server(port=0, registry=registry)
        try:
            host, port = server.server_address[:2]
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://{host}:{port}/nope", timeout=5
                )
            assert excinfo.value.code == 404
        finally:
            server.shutdown()
            server.server_close()


class TestChromeTrace:
    def test_recorder_conversion_shape(self):
        with recording() as rec:
            with span("demo.outer"):
                with span("demo.inner", size=3) as sp:
                    sp.sample("residual", [0.5, 0.1])
        doc = chrome_trace(rec)
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["displayTimeUnit"] == "ms"
        json.dumps(doc)  # Perfetto needs plain JSON
        events = doc["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in spans} == {"demo.outer", "demo.inner"}
        assert {e["ph"] for e in events} == {"X", "M"}
        inner = next(e for e in spans if e["name"] == "demo.inner")
        assert inner["args"]["size"] == 3
        assert list(inner["args"]["samples.residual"]) == [0.5, 0.1]
        for event in spans:
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert event["pid"] == 1 and event["tid"] == 1

    def test_error_spans_carry_error_arg(self):
        with recording() as rec:
            with pytest.raises(ValueError):
                with span("demo.err"):
                    raise ValueError("boom")
        doc = chrome_trace(rec)
        event = next(e for e in doc["traceEvents"] if e["ph"] == "X")
        assert event["args"]["error"] == "ValueError"

    def test_unknown_record_types_are_skipped(self):
        records = [
            {"type": "span", "name": "s", "start": 0.0, "wall_s": 0.1,
             "cpu_s": 0.1, "depth": 0, "meta": {}, "samples": {}},
            {"type": "future-thing", "payload": 1},
        ]
        doc = chrome_trace(records)
        assert [
            e["name"] for e in doc["traceEvents"] if e["ph"] == "X"
        ] == ["s"]

    def test_process_metadata_events_name_the_lanes(self):
        with recording() as rec:
            with span("demo.step"):
                pass
        events = chrome_trace(rec)["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in metadata} == {
            "process_name", "thread_name",
        }
        process_meta = next(
            e for e in metadata if e["name"] == "process_name"
        )
        # Metadata precedes the events it names, and the lane's pid is
        # the one the span events carry.
        assert events.index(process_meta) < events.index(
            next(e for e in events if e["ph"] == "X")
        )
        span_event = next(e for e in events if e["ph"] == "X")
        assert process_meta["pid"] == span_event["pid"]
        assert process_meta["args"]["name"] == "repro"

    def test_multi_process_records_get_stable_distinct_lanes(self):
        def record(pid, process, name):
            return {
                "type": "span", "name": name, "start": 0.0,
                "wall_s": 0.1, "cpu_s": 0.1, "depth": 0, "meta": {},
                "samples": {}, "pid": pid, "process": process,
            }

        records = [
            record(4001, "repro-serve", "serve.request"),
            record(5002, "shard-worker-5002", "shard.worker"),
            record(4001, "repro-serve", "serve.kernel"),
        ]
        events = chrome_trace(records)["traceEvents"]
        spans = {e["name"]: e for e in events if e["ph"] == "X"}
        # Raw pids map to sequential trace pids in first-seen order,
        # and records from one process share a lane.
        assert spans["serve.request"]["pid"] == 1
        assert spans["serve.kernel"]["pid"] == 1
        assert spans["shard.worker"]["pid"] == 2
        names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {1: "repro-serve", 2: "shard-worker-5002"}
