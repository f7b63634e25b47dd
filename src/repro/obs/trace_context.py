"""Request-scoped trace contexts propagated across serving layers.

A :class:`TraceContext` is minted at server ingress (or adopted from an
incoming W3C ``traceparent`` header), bound as the ambient trace with
:func:`repro.obs.trace_scope`, carried into the coalescer's batch
kernel, and — via :meth:`TraceContext.to_payload` — serialized into
process-pool shard workers.  Spans themselves are opened and recorded
by :mod:`repro.obs.recorder`, the one span model.

Design constraints, in priority order:

1. **Disabled cost is near zero.**  On an untraced server the only
   per-request work is minting a random trace id (see
   ``benchmarks/bench_obs_overhead.py`` for the gated budget).  Stage
   timings (:class:`RequestTrace`) are collected only for a request whose
   span, slow-log record or ``debug_timings`` answer reads them.
2. **Determinism of results.**  Trace ids never feed into any numeric
   path; traced and untraced runs produce bit-identical bodies.
"""

from __future__ import annotations

import os
import threading
import time

__all__ = [
    "TraceContext",
    "RequestTrace",
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

# Ids come straight from the OS CSPRNG, so they are unpredictable:
# every ``/v1`` response returns its trace id, and no number of them
# reveals another client's.  A request's trace id is cut from a
# per-thread buffer of ``os.urandom`` bytes (no lock, about half the
# cost of one ``os.urandom(16)``).  No two threads share a buffer, and
# a forked child drops the one it inherited, so no id is minted twice.
_ZERO_TRACE = "0" * 32
_ZERO_SPAN = "0" * 16
_HEX = set("0123456789abcdef")

#: Random bytes per refill of a thread's trace-id buffer (32 ids).
_ID_BUFFER_BYTES = 512
_trace_ids = threading.local()
if hasattr(os, "register_at_fork"):
    # In the child, the forking thread drops the buffer it inherited.
    os.register_at_fork(after_in_child=lambda: _trace_ids.__dict__.clear())


def _trace_id_stream():
    while True:
        hexes = os.urandom(_ID_BUFFER_BYTES).hex()
        for start in range(0, len(hexes), 32):
            yield hexes[start : start + 32]


def _new_trace_id() -> str:
    try:
        return next(_trace_ids.stream)
    except AttributeError:
        _trace_ids.stream = _trace_id_stream()
        return next(_trace_ids.stream)


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
    if traceparent:
        parent = TraceContext.from_traceparent(traceparent)
        if parent is not None:
            return parent, parent.trace_id
    return None, _new_trace_id()


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
        version, trace_id, span_id, flags = parts[:4]
        if version == "ff" or len(version) != 2 or not _is_hex(version):
            return None
        # Version 00 has exactly four fields; a later version may
        # append fields after the flags.
        if version == "00" and len(parts) != 4:
            return None
        if len(flags) != 2 or not _is_hex(flags):
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
