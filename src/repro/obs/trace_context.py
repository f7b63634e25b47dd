"""Request-scoped trace contexts propagated across serving layers.

This module is the spine of end-to-end request tracing: a
:class:`TraceContext` is minted at server ingress (or adopted from an
incoming W3C ``traceparent`` header), carried through admission control,
the coalescer, the cache, and — via :meth:`TraceContext.to_payload` —
serialized into ``ProcessPoolExecutor`` shard workers.

Design constraints, in priority order:

1. **Disabled cost is near zero.**  When no tracer is installed the only
   per-request work is minting a random trace id (see
   ``benchmarks/bench_obs_overhead.py`` for the gated budget).  Stage
   timings (:class:`RequestTrace`) are collected only for a request whose
   span, slow-log record or ``debug_timings`` answer reads them, and
   span emission happens only behind a ``tracer is not None`` check.
2. **No retention.**  :class:`Tracer` writes span records straight to
   its sink; a long-running server never accumulates span state.
3. **Determinism of results.**  Trace ids never feed into any numeric
   path; traced and untraced runs produce bit-identical bodies.

Span records share the JSONL schema emitted by
:class:`repro.obs.recorder.Recorder` (``type: "span"``) with four
additional fields: ``trace_id``, ``span_id``, ``parent_id`` and
(optionally) ``links`` — so the existing ``repro-hc trace convert``
Chrome exporter and the new ``repro-hc trace query`` command both read
the same files.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar

from .events import jsonable
from .sinks import JsonlSink, Sink

__all__ = [
    "TraceContext",
    "RequestTrace",
    "Tracer",
    "current_trace",
    "current_tracer",
    "set_tracer",
    "trace_scope",
    "tracing",
    "TIMING_STAGES",
    "request_ids",
]

# Stage names surfaced in ``debug.timings`` and slow-request records, in
# pipeline order.  ``other_s`` absorbs scheduling slop so the stages sum
# to the measured total by construction.
TIMING_STAGES = (
    "queue_wait_s",
    "coalesce_linger_s",
    "cache_s",
    "kernel_s",
    "render_s",
    "other_s",
)

# Ids come straight from the OS: ``os.urandom(n).hex()`` is cheaper
# than a locked Random.getrandbits + hex format, needs no lock, and is
# fork-safe — pool workers never inherit a parent's RNG state and mint
# colliding ids.  It is also unpredictable: every ``/v1`` response
# returns its trace id, and no number of them reveals another client's.
_ZERO_TRACE = "0" * 32
_ZERO_SPAN = "0" * 16
_HEX = set("0123456789abcdef")


def _new_trace_id() -> str:
    return os.urandom(16).hex()


def _new_span_id() -> str:
    return os.urandom(8).hex()


def request_ids(traceparent: str | None) -> tuple["TraceContext | None", str]:
    """``(remote parent, trace id)`` of an incoming request.

    The parent is the parsed ``traceparent`` header (None when absent or
    malformed); the trace id is the parent's, or a fresh one.  This is
    the whole tracing cost of a request whose stages nobody reads — the
    server calls it once per ``/v1`` exchange for the always-on
    ``X-Repro-Trace-Id`` header.
    """
    parent = TraceContext.from_traceparent(traceparent)
    if parent is None:
        return None, _new_trace_id()
    return parent, parent.trace_id


def _is_hex(text: str) -> bool:
    return all(ch in _HEX for ch in text)


class TraceContext:
    """Immutable (trace_id, span_id, parent_id) triple.

    ``trace_id`` is 32 lowercase hex chars, ``span_id`` 16; both follow
    the W3C Trace Context wire format so ``to_traceparent`` round-trips
    through any compliant proxy.

    A ``__slots__`` class rather than a frozen dataclass: every request
    constructs one of these (plus a child per propagation hop), and the
    frozen-dataclass ``object.__setattr__``-per-field init costs ~3x a
    plain init on this hot path.
    """

    __slots__ = ("trace_id", "span_id", "parent_id")

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: str | None = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceContext):
            return NotImplemented
        return (
            self.trace_id == other.trace_id
            and self.span_id == other.span_id
            and self.parent_id == other.parent_id
        )

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id, self.parent_id))

    def __repr__(self) -> str:
        return (
            f"TraceContext(trace_id={self.trace_id!r}, "
            f"span_id={self.span_id!r}, parent_id={self.parent_id!r})"
        )

    @classmethod
    def new(cls) -> "TraceContext":
        """Mint a fresh root context.

        Both ids come from one ``urandom`` draw.
        """
        both = os.urandom(24).hex()
        return cls(trace_id=both[:32], span_id=both[32:])

    def child(self) -> "TraceContext":
        """A new span context under this one (same trace)."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=_new_span_id(),
            parent_id=self.span_id,
        )

    def to_traceparent(self) -> str:
        """Render as a W3C ``traceparent`` header value."""
        return f"00-{self.trace_id}-{self.span_id}-01"

    @classmethod
    def from_traceparent(cls, header: str | None) -> "TraceContext | None":
        """Parse a ``traceparent`` header; malformed input yields None.

        Tolerance here is deliberate: a bad header from a client must
        never fail the request, it just starts a fresh trace.
        """
        if not header or not isinstance(header, str):
            return None
        parts = header.strip().lower().split("-")
        if len(parts) < 4:
            return None
        version, trace_id, span_id = parts[0], parts[1], parts[2]
        if version == "ff" or len(version) != 2 or not _is_hex(version):
            return None
        if len(trace_id) != 32 or not _is_hex(trace_id) or trace_id == _ZERO_TRACE:
            return None
        if len(span_id) != 16 or not _is_hex(span_id) or span_id == _ZERO_SPAN:
            return None
        return cls(trace_id=trace_id, span_id=span_id)

    def to_payload(self) -> dict:
        """Plain-dict form safe to pickle into pool workers."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
        }

    @classmethod
    def from_payload(cls, payload: dict | None) -> "TraceContext | None":
        if not payload:
            return None
        trace_id = payload.get("trace_id")
        span_id = payload.get("span_id")
        if not trace_id or not span_id:
            return None
        return cls(
            trace_id=str(trace_id),
            span_id=str(span_id),
            parent_id=payload.get("parent_id"),
        )

    def link(self) -> dict:
        """Span-link form used by fan-in spans (batched kernels)."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}


class RequestTrace:
    """Per-request stage-timing accumulator.

    Created at server ingress (for a request whose stages something
    reads), threaded through the request pipeline, and asked for a
    breakdown at response time.  Stage durations are accumulated with
    :meth:`add`; :meth:`timings` fills ``other_s`` with the unattributed
    remainder so the stages always sum to the total.  ``t0`` is the
    request's ``perf_counter`` start (default: now); ``started_at`` is
    the same instant on the wall clock.
    """

    __slots__ = ("context", "started_at", "t0", "stages", "remote_parent")

    def __init__(
        self,
        context: TraceContext,
        *,
        remote_parent: bool = False,
        t0: float | None = None,
    ):
        now = time.perf_counter()
        self.context = context
        self.t0 = now if t0 is None else t0
        self.started_at = time.time() - (now - self.t0)
        self.stages: dict[str, float] = {}
        self.remote_parent = remote_parent

    @classmethod
    def begin(
        cls,
        parent: TraceContext | None = None,
        trace_id: str | None = None,
        t0: float | None = None,
    ) -> "RequestTrace":
        """Start the trace of a request that started at ``t0``.

        With a remote ``parent`` (see :func:`request_ids`) the request
        span is its child; otherwise it is a new root in trace
        ``trace_id`` (default: a fresh one).
        """
        if parent is not None:
            return cls(parent.child(), remote_parent=True, t0=t0)
        context = TraceContext(trace_id or _new_trace_id(), _new_span_id())
        return cls(context, t0=t0)

    def add(self, stage: str, seconds: float) -> None:
        if seconds > 0.0:
            self.stages[stage] = self.stages.get(stage, 0.0) + seconds

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def timings(self, total_s: float) -> dict[str, float]:
        """Stage breakdown summing to ``total_s`` (``other_s`` absorbs slop)."""
        out = {stage: self.stages.get(stage, 0.0) for stage in TIMING_STAGES}
        attributed = sum(out.values())
        out["other_s"] = max(0.0, total_s - attributed)
        return out


class Tracer:
    """Writes span records to a sink without retaining them.

    Unlike :class:`repro.obs.recorder.Recorder` (which accumulates
    events for post-run summaries), a Tracer is built for long-running
    servers: every span goes straight to the sink.  Timestamps are
    wall-clock (``time.time()``) so spans emitted by separate processes
    line up on one timeline.
    """

    def __init__(self, sink: Sink, *, process: str | None = None):
        self.sink = sink
        self.process = process or f"pid-{os.getpid()}"
        self.path = getattr(sink, "path", None)
        self._lock = threading.Lock()
        self._index = 0

    def emit_span(
        self,
        name: str,
        context: TraceContext,
        *,
        wall_s: float,
        start: float | None = None,
        cpu_s: float = 0.0,
        meta: dict | None = None,
        links: list[dict] | tuple[dict, ...] = (),
        error: str | None = None,
    ) -> None:
        """Emit one completed span record."""
        record = {
            "type": "span",
            "name": name,
            "trace_id": context.trace_id,
            "span_id": context.span_id,
            "parent_id": context.parent_id,
            "start": float(start if start is not None else time.time() - wall_s),
            "wall_s": float(wall_s),
            "cpu_s": float(cpu_s),
            "pid": os.getpid(),
            "process": self.process,
            "meta": jsonable(meta or {}),
        }
        if links:
            record["links"] = [dict(link) for link in links]
        if error is not None:
            record["error"] = error
        with self._lock:
            record["index"] = self._index
            self._index += 1
            self.sink.emit(record)

    @contextmanager
    def span(
        self,
        name: str,
        context: TraceContext,
        *,
        meta: dict | None = None,
        links: list[dict] | tuple[dict, ...] = (),
    ):
        """Context manager timing a block and emitting it as a span."""
        start = time.time()
        t0 = time.perf_counter()
        c0 = time.process_time()
        error: str | None = None
        try:
            yield context
        except BaseException as exc:  # noqa: BLE001 - recorded, then re-raised
            error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            self.emit_span(
                name,
                context,
                wall_s=time.perf_counter() - t0,
                start=start,
                cpu_s=time.process_time() - c0,
                meta=meta,
                links=links,
                error=error,
            )

    def close(self) -> None:
        self.sink.close()


def append_span_record(path: str, record: dict) -> None:
    """Append one span record to a JSONL file, one atomic write.

    Used by pool workers that share a span file with the parent: the
    line is written with a single ``write`` on an ``O_APPEND`` handle,
    which POSIX keeps atomic for writes under ``PIPE_BUF``.
    """
    line = json.dumps(jsonable(record), sort_keys=True) + "\n"
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line)


# --- ambient trace context + process-wide tracer ----------------------------
#
# Mirrors the metrics-gate pattern in ``repro.obs.metrics``: library code
# checks one module global (``current_tracer() is None`` on the disabled
# path) and an optional contextvar for the ambient trace.

_trace_var: ContextVar[TraceContext | None] = ContextVar("repro_trace", default=None)
_tracer: Tracer | None = None


def current_trace() -> TraceContext | None:
    """The ambient TraceContext for this task/thread, if any."""
    return _trace_var.get()


@contextmanager
def trace_scope(context: TraceContext):
    """Bind ``context`` as the ambient trace for the enclosed block."""
    token = _trace_var.set(context)
    try:
        yield context
    finally:
        _trace_var.reset(token)


def current_tracer() -> Tracer | None:
    """The process-wide tracer, or None when tracing is disabled."""
    return _tracer


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install (or clear, with None) the process-wide tracer."""
    global _tracer
    previous = _tracer
    _tracer = tracer
    return previous


@contextmanager
def tracing(path: str, *, process: str | None = None):
    """Install a JSONL-backed process tracer for the enclosed block.

    >>> import os, tempfile
    >>> with tempfile.TemporaryDirectory() as tmp:
    ...     with tracing(os.path.join(tmp, "spans.jsonl")) as tracer:
    ...         ctx = TraceContext.new()
    ...         with tracer.span("work", ctx):
    ...             pass
    """
    tracer = Tracer(JsonlSink(path), process=process)
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
        tracer.close()
