"""repro.obs — zero-dependency structured tracing for the compute layers.

The observability subsystem answers "where do time and iterations go"
for the library's hot paths: Sinkhorn normalization (scalar and
batched), the SVD behind TMA, the scheduling heuristics and the
analysis fan-outs.  It is pure stdlib (contextvars + time + json +
logging) and costs almost nothing when disabled.

Quickstart
----------
>>> from repro import characterize
>>> from repro.obs import recording, summary
>>> with recording() as rec:
...     _ = characterize([[1.0, 2.0], [2.0, 1.0]])
>>> stats = summary(rec)
>>> stats.covers("sinkhorn") and stats.covers("svd")
True

Core pieces
-----------
* :func:`recording` — bind a fresh :class:`Recorder` for a ``with``
  block (optionally wiring a JSONL trace file or a :mod:`logging`
  bridge); :func:`trace_scope` — bind a :class:`TraceContext`, and
  optionally more sinks.  One contextvar holds both.
* :func:`span` / :func:`traced` — instrument a region / a function;
  no-ops when nothing is bound.  :func:`record_span` records a region
  its caller timed itself, through the same builder.
* :func:`note` — attach attributes (counts among them) to the
  innermost open span, for :func:`traced` code with no span handle;
  :func:`current_recorder` — the ambient recorder, if any.
* :func:`summary` — count/total/p50/p95/p99 aggregation per span name,
  with per-name sums of the ``int`` attributes: the table behind
  ``repro-hc profile``.
* Sinks: :class:`MemorySink`, :class:`JsonlSink`, :class:`LoggingSink`
  (anything matching the :class:`Sink` protocol works).
* Metrics: a process-wide :class:`MetricsRegistry` of labelled
  counters, gauges and fixed-bucket histograms that the hot paths feed
  while :func:`enable_metrics` (or :func:`collecting_metrics`) is
  active; :func:`render_prometheus` / :func:`start_metrics_server`
  expose it in Prometheus text format, and :func:`chrome_trace` /
  :func:`convert_trace_jsonl` convert recorder output into Chrome
  ``about:tracing`` JSON.

See ``docs/OBSERVABILITY.md`` for the recorder model, sink selection,
the metrics/export layer and measured overhead numbers.
"""

from .events import SpanEvent
from .export import (
    PROMETHEUS_CONTENT_TYPE,
    chrome_trace,
    chrome_trace_events,
    convert_trace_jsonl,
    render_prometheus,
    start_metrics_server,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    collecting_metrics,
    disable_metrics,
    enable_metrics,
    fold_recorder,
    get_registry,
    metrics_enabled,
    set_registry,
)
from .recorder import (
    Recorder,
    current_recorder,
    current_trace,
    note,
    record_span,
    recording,
    span,
    trace_scope,
    traced,
)
from .sinks import JsonlSink, LoggingSink, MemorySink, RotatingJsonlSink, Sink
from .summary import SpanStats, SpanSummary, summarize, summary
from .trace_context import TIMING_STAGES, RequestTrace, TraceContext
from .trace_query import (
    TraceView,
    format_trace,
    group_traces,
    load_spans,
    query_traces,
)

__all__ = [
    "Recorder",
    "recording",
    "span",
    "traced",
    "record_span",
    "note",
    "current_recorder",
    "summary",
    "summarize",
    "SpanSummary",
    "SpanStats",
    "SpanEvent",
    "Sink",
    "MemorySink",
    "JsonlSink",
    "RotatingJsonlSink",
    "LoggingSink",
    "TraceContext",
    "RequestTrace",
    "TIMING_STAGES",
    "current_trace",
    "trace_scope",
    "TraceView",
    "load_spans",
    "group_traces",
    "query_traces",
    "format_trace",
    "MetricsRegistry",
    "MetricFamily",
    "Counter",
    "Gauge",
    "Histogram",
    "get_registry",
    "set_registry",
    "enable_metrics",
    "disable_metrics",
    "metrics_enabled",
    "collecting_metrics",
    "fold_recorder",
    "PROMETHEUS_CONTENT_TYPE",
    "render_prometheus",
    "start_metrics_server",
    "chrome_trace",
    "chrome_trace_events",
    "convert_trace_jsonl",
]
