"""Standard export formats for the obs layer.

Two consumers, two formats:

* **Prometheus text exposition** (:func:`render_prometheus`) of a
  :class:`~repro.obs.MetricsRegistry`, plus a stdlib-only scrape
  endpoint (:func:`start_metrics_server`) for a process that does
  library work (``repro-hc serve`` serves its own ``/metrics``).
  The rendering follows the classic ``text/plain; version=0.0.4``
  format: ``# HELP`` / ``# TYPE`` headers, escaped label values, and
  cumulative ``_bucket`` series with ``_sum`` / ``_count`` for
  histograms.
* **Chrome trace-event JSON** (:func:`chrome_trace`,
  :func:`convert_trace_jsonl`, ``repro-hc trace convert``) built from
  the span JSONL that :func:`repro.obs.recording` streams
  (``repro-hc profile -o trace.jsonl``).  The output loads directly in
  ``chrome://tracing`` and Perfetto: spans become complete (``"X"``)
  events with microsecond timestamps and their attributes as ``args``.
"""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path
from typing import TYPE_CHECKING

from .metrics import MetricsRegistry, get_registry

if TYPE_CHECKING:
    from http.server import ThreadingHTTPServer

__all__ = [
    "render_prometheus",
    "start_metrics_server",
    "chrome_trace",
    "chrome_trace_events",
    "convert_trace_jsonl",
    "PROMETHEUS_CONTENT_TYPE",
]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _labels_text(labelnames, key, extra=()) -> str:
    pairs = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in list(zip(labelnames, key)) + list(extra)
    ]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _exemplar_text(exemplar: dict | None) -> str:
    """OpenMetrics exemplar suffix for one bucket sample line.

    Renders `` # {trace_id="..."} value timestamp`` — the OpenMetrics
    exemplar syntax, which Prometheus accepts on classic histogram
    bucket lines and plain-text consumers can strip at the ``#``.
    """
    if not exemplar:
        return ""
    labels = "{" + ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in sorted(exemplar.get("labels", {}).items())
    ) + "}"
    text = f" # {labels} {_format_value(float(exemplar['value']))}"
    timestamp = exemplar.get("timestamp")
    if timestamp is not None:
        text += f" {float(timestamp):.3f}"
    return text


def render_prometheus(registry: MetricsRegistry | None = None) -> str:
    """The registry in Prometheus text exposition format (0.0.4).

    Counters and gauges render one sample per label series; histograms
    render the cumulative ``_bucket`` series (one per upper bound plus
    ``le="+Inf"``), ``_sum`` and ``_count``, preserving the invariants
    scrapers check: bucket counts non-decreasing in ``le``, and the
    ``+Inf`` bucket equal to ``_count``.

    Examples
    --------
    >>> registry = MetricsRegistry()
    >>> registry.counter("demo_total", "Demo.", ("kind",)).inc(kind="a")
    >>> print(render_prometheus(registry))
    # HELP demo_total Demo.
    # TYPE demo_total counter
    demo_total{kind="a"} 1
    <BLANKLINE>
    """
    if registry is None:
        registry = get_registry()
    lines: list[str] = []
    for family in registry.collect():
        lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for key in sorted(family.samples):
            value = family.samples[key]
            if family.kind != "histogram":
                lines.append(
                    f"{family.name}"
                    f"{_labels_text(family.labelnames, key)} "
                    f"{_format_value(value)}"
                )
                continue
            running = 0
            exemplars = value.get("exemplars") or {}
            for idx, (bound, count) in enumerate(
                zip(family.buckets, value["counts"])
            ):
                running += count
                lines.append(
                    f"{family.name}_bucket"
                    + _labels_text(
                        family.labelnames,
                        key,
                        extra=[("le", _format_value(bound))],
                    )
                    + f" {running}"
                    + _exemplar_text(exemplars.get(idx))
                )
            running += value["counts"][-1]
            lines.append(
                f"{family.name}_bucket"
                + _labels_text(family.labelnames, key, extra=[("le", "+Inf")])
                + f" {running}"
                + _exemplar_text(exemplars.get(len(family.buckets)))
            )
            lines.append(
                f"{family.name}_sum"
                f"{_labels_text(family.labelnames, key)} "
                f"{_format_value(value['sum'])}"
            )
            lines.append(
                f"{family.name}_count"
                f"{_labels_text(family.labelnames, key)} {value['count']}"
            )
    return "\n".join(lines) + "\n"


def start_metrics_server(
    port: int = 9464,
    host: str = "127.0.0.1",
    registry: MetricsRegistry | None = None,
) -> ThreadingHTTPServer:
    """Serve ``/metrics`` for the registry over stdlib ``http.server``.

    Returns the bound server (``server.server_address`` carries the
    actual port — pass ``port=0`` for an ephemeral one).  A daemon
    thread runs ``serve_forever``; the caller stops it with
    ``server.shutdown()``.  ``http.server`` is imported here, on the
    first call, so ``import repro`` never loads it.
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    bound = registry if registry is not None else get_registry()

    class _MetricsHandler(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 (stdlib handler naming)
            if self.path.split("?", 1)[0] not in ("/metrics", "/"):
                self.send_error(404, "only /metrics is served")
                return
            body = render_prometheus(bound).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", PROMETHEUS_CONTENT_TYPE)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, format, *args):  # noqa: A002 (stdlib signature)
            pass  # scrapes should not spam stderr

    server = ThreadingHTTPServer((host, port), _MetricsHandler)
    threading.Thread(
        target=server.serve_forever, name="repro-metrics", daemon=True
    ).start()
    return server


# -- Chrome trace-event conversion -------------------------------------


def _span_args(record: dict) -> dict:
    args = dict(record.get("meta", {}))
    args["cpu_s"] = record.get("cpu_s")
    args["depth"] = record.get("depth")
    if record.get("error") is not None:
        args["error"] = record["error"]
    for name, series in record.get("samples", {}).items():
        args[f"samples.{name}"] = series
    return args


def chrome_trace_events(records) -> list[dict]:
    """Trace-event dicts for an iterable of obs JSONL records.

    Spans map to complete (``ph="X"``) events — Chrome expects
    microsecond ``ts``/``dur``.  Other record types are skipped, so the
    converter tolerates trace files from other writers.

    Records from multi-process runs (traced records stamp ``pid``, and
    may name a ``process``) get a stable per-process lane: real pids
    map to sequential trace pids in first-seen order, and
    ``process_name`` / ``thread_name`` metadata (``ph="M"``) events
    name every lane, so Perfetto shows "pid 1234" rather than an
    anonymous tid.
    """
    events: list[dict] = []
    lanes: dict[object, int] = {}
    lane_names: dict[int, str] = {}

    def lane(record: dict) -> int:
        raw = record.get("pid")
        assigned = lanes.get(raw)
        if assigned is None:
            assigned = lanes[raw] = len(lanes) + 1
            name = record.get("process")
            if not name:
                name = "repro" if raw is None else f"pid {raw}"
            lane_names[assigned] = str(name)
        return assigned

    for record in records:
        kind = record.get("type")
        if kind == "span":
            pid = lane(record)
            events.append(
                {
                    "name": record["name"],
                    "cat": "span",
                    "ph": "X",
                    "ts": record["start"] * 1e6,
                    "dur": record["wall_s"] * 1e6,
                    "pid": pid,
                    "tid": 1,
                    "args": _span_args(record),
                }
            )
    metadata: list[dict] = []
    for pid in sorted(lane_names):
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": lane_names[pid]},
            }
        )
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": 1,
                "args": {"name": "main"},
            }
        )
    return metadata + events


def chrome_trace(source) -> dict:
    """A Chrome/Perfetto-loadable trace document.

    ``source`` is an iterable of JSONL records (dicts), or a
    :class:`~repro.obs.Recorder`, whose spans are converted in place.

    Examples
    --------
    >>> from repro.obs import recording, span
    >>> with recording() as rec:
    ...     with span("demo.step"):
    ...         pass
    >>> doc = chrome_trace(rec)
    >>> doc["traceEvents"][0]["name"], doc["traceEvents"][0]["ph"]
    ('process_name', 'M')
    >>> [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
    ['demo.step']
    """
    if hasattr(source, "events"):
        records = [event.to_record() for event in source.events]
    else:
        records = list(source)
    return {
        "traceEvents": chrome_trace_events(records),
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.obs"},
    }


def convert_trace_jsonl(input_path, output_path) -> int:
    """Convert a span JSONL file to Chrome trace-event JSON.

    This is ``repro-hc trace convert IN -o OUT``.  Returns the number
    of trace events written; raises :class:`ValueError` on malformed
    JSONL so the CLI can report the offending line.
    """
    records = []
    with open(input_path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{input_path}:{lineno}: not a JSON record ({exc})"
                ) from exc
    document = chrome_trace(records)
    Path(output_path).write_text(
        json.dumps(document) + "\n", encoding="utf-8"
    )
    return len(document["traceEvents"])
