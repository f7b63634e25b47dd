"""The one span model: ambient sinks, trace context and live spans.

Instrumented code calls :func:`span` or is wrapped in :func:`traced`;
neither takes a handle.  One :mod:`contextvars` variable holds the
ambient *frame*: the bound sinks, the :class:`Recorder` (if any), the
current :class:`~repro.obs.TraceContext` and the nesting depth.
:func:`recording` and :func:`trace_scope` bind a frame, and so does
every live span, so spans opened inside it become its children.
:func:`record_span` is the one function that builds a span record and
hands it to the bound sinks.  With nothing bound, :func:`span` is one
contextvar read returning a shared no-op (``benchmarks/
bench_obs_overhead.py`` gates that cost).  See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import time
from contextlib import contextmanager
from typing import Callable, Iterable

from .events import SpanEvent

__all__ = [
    "Recorder",
    "current_recorder",
    "current_trace",
    "note",
    "record_span",
    "recording",
    "span",
    "trace_scope",
    "traced",
]


class _Frame:
    """What the ambient contextvar binds.  ``depth`` is the depth of a
    span opened inside; an ``idle`` frame (no recorder, no sinks) only
    carries a trace context, and spans inside it are no-ops."""

    __slots__ = ("recorder", "sinks", "context", "depth", "idle")

    def __init__(self, recorder, sinks: tuple, context, depth: int) -> None:
        self.recorder = recorder
        self.sinks = sinks
        self.context = context
        self.depth = depth
        self.idle = recorder is None and not sinks


_frame_var: contextvars.ContextVar["_Frame | None"] = contextvars.ContextVar(
    "repro_obs_frame", default=None
)
_UNBOUND = _Frame(None, (), None, 0)

# Close order of every span record in this process.
_span_index = itertools.count()


def current_recorder() -> "Recorder | None":
    """The recorder bound in this context, or None."""
    frame = _frame_var.get()
    return None if frame is None else frame.recorder


def current_trace():
    """The ambient :class:`~repro.obs.TraceContext` (inside a traced
    live span, the span's own), or None."""
    frame = _frame_var.get()
    return None if frame is None else frame.context


def current_sinks() -> tuple:
    """The sinks bound in this context, besides the recorder."""
    frame = _frame_var.get()
    return () if frame is None else frame.sinks


class Recorder:
    """The sink that keeps a recording session's spans.

    Attributes
    ----------
    events : list of SpanEvent
        Closed spans in close order.
    sinks : list
        The session's other sinks.  They receive every span record the
        session sees, and are closed on :meth:`close`.
    """

    def __init__(self, sinks: Iterable = ()) -> None:
        self.events: list[SpanEvent] = []
        self.sinks = list(sinks)
        self._closed = False

    def spans(self, prefix: str | None = None) -> list[SpanEvent]:
        """Closed spans, optionally filtered by dotted-name prefix."""
        if prefix is None:
            return list(self.events)
        return [
            e
            for e in self.events
            if e.name == prefix or e.name.startswith(prefix + ".")
        ]

    def summary(self):
        """Aggregate span statistics (see :func:`repro.obs.summary`)."""
        from .summary import summarize

        return summarize(self)

    def close(self) -> None:
        """Close every sink (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for sink in self.sinks:
            sink.close()


def record_span(
    name: str,
    context=None,
    *,
    start: float,
    wall_s: float,
    cpu_s: float = 0.0,
    meta: dict | None = None,
    samples: dict | None = None,
    links: Iterable[dict] = (),
    error: str | None = None,
) -> None:
    """Build one span record and hand it to every sink bound here.

    ``context`` is the span's own :class:`~repro.obs.TraceContext` (None
    when untraced); ``start`` is wall-clock (``time.time()``), the one
    time base of every record.  A span recorded for the context a
    :func:`trace_scope` bound sits one level above the spans inside it.
    """
    frame = _frame_var.get()
    if frame is None or frame.idle:
        return
    depth = frame.depth
    if context is not None and context is frame.context:
        depth -= 1
    event = SpanEvent(
        name=name,
        index=next(_span_index),
        depth=depth,
        start=start,
        wall_s=wall_s,
        cpu_s=cpu_s,
        meta=meta or {},
        samples={k: tuple(v) for k, v in samples.items()} if samples else {},
        error=error,
        trace_id=None if context is None else context.trace_id,
        span_id=None if context is None else context.span_id,
        parent_id=None if context is None else context.parent_id,
        links=tuple(links),
    )
    if frame.recorder is not None:
        frame.recorder.events.append(event)
    if frame.sinks:
        record = event.to_record()
        for sink in frame.sinks:
            sink.emit(record)


class _NoopSpan:
    """Shared do-nothing span returned while nothing is bound."""

    __slots__ = ()
    enabled = False

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def note(self, **meta) -> None:
        pass

    def sample(self, name, value) -> None:
        pass

    def link(self, context) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class _LiveSpan(_Frame):
    """An open timed region; the frame its child spans open under."""

    __slots__ = ("_name", "_meta", "_samples", "_links", "_start", "_t0",
                 "_c0", "_token")

    enabled = True

    def __init__(self, parent: _Frame, name: str, meta: dict) -> None:
        context = parent.context
        super().__init__(
            parent.recorder,
            parent.sinks,
            None if context is None else context.child(),
            parent.depth + 1,
        )
        self._name = name
        self._meta = meta
        self._samples: dict[str, list[float]] = {}
        self._links: list[dict] = []

    def __enter__(self) -> "_LiveSpan":
        self._token = _frame_var.set(self)
        self._start = time.time()
        self._c0 = time.process_time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall = time.perf_counter() - self._t0
        cpu = time.process_time() - self._c0
        _frame_var.reset(self._token)
        record_span(
            self._name,
            self.context,
            start=self._start,
            wall_s=wall,
            cpu_s=cpu,
            meta=self._meta,
            samples=self._samples,
            links=self._links,
            error=None if exc_type is None else exc_type.__name__,
        )
        return False

    def note(self, **meta) -> None:
        """Attach metadata to the span (last write per key wins)."""
        self._meta.update(meta)

    def sample(self, name: str, value) -> None:
        """Append one value — or a whole series — to sample set ``name``.

        Scalars append a single point; lists/tuples/arrays extend the
        series (useful for attaching an already-collected residual
        history in one call).
        """
        bucket = self._samples.setdefault(name, [])
        if isinstance(value, (list, tuple)) or (
            hasattr(value, "__iter__") and hasattr(value, "__len__")
        ):
            bucket.extend(float(v) for v in value)
        else:
            bucket.append(float(value))

    def link(self, context) -> None:
        """Link the span to ``context`` (a fan-in span names each input)."""
        self._links.append(context.link())


def span(name: str, **meta):
    """Open a timed region under the ambient frame.

    Returns a context manager; with nothing bound this is a shared
    no-op singleton, so instrumented code pays only a contextvar read.

    Examples
    --------
    >>> from repro.obs import recording, span
    >>> with recording() as rec:
    ...     with span("example.work", size=3) as sp:
    ...         sp.note(result="ok")
    >>> rec.events[0].name, rec.events[0].meta["result"]
    ('example.work', 'ok')
    """
    frame = _frame_var.get()
    if frame is None or frame.idle:
        return _NOOP_SPAN
    return _LiveSpan(frame, name, dict(meta) if meta else {})


def traced(_fn: Callable | None = None, *, name: str | None = None, **meta):
    """Decorator form of :func:`span`.

    The span name defaults to the function's module path (minus the
    ``repro.`` prefix) plus its name, e.g.
    ``analysis.sensitivity.sensitivity_study``.  With nothing bound the
    wrapper calls straight through.

    Examples
    --------
    >>> from repro.obs import recording, traced
    >>> @traced(name="example.add")
    ... def add(a, b):
    ...     return a + b
    >>> with recording() as rec:
    ...     add(1, 2)
    3
    >>> rec.events[0].name
    'example.add'
    """

    def decorate(fn: Callable) -> Callable:
        module = fn.__module__ or ""
        if module.startswith("repro."):
            module = module[len("repro."):]
        span_name = name or f"{module}.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _frame_var.get()
            if frame is None or frame.idle:
                return fn(*args, **kwargs)
            with _LiveSpan(frame, span_name, dict(meta) if meta else {}):
                return fn(*args, **kwargs)

        wrapper.__traced_span__ = span_name
        return wrapper

    return decorate(_fn) if _fn is not None else decorate


def note(**attrs) -> None:
    """Attach ``attrs`` to the innermost open span; nothing when none is.

    The handle-free form of ``span.note`` for the body of a
    :func:`traced` function.  A count is an ``int`` attribute, which
    :func:`repro.obs.summary` sums per span name.

    >>> from repro.obs import recording, traced
    >>> @traced(name="example.fanout")
    ... def fanout(n):
    ...     note(trials=n)
    >>> with recording() as rec:
    ...     fanout(4)
    >>> rec.events[0].meta
    {'trials': 4}
    """
    frame = _frame_var.get()
    if isinstance(frame, _LiveSpan):
        frame._meta.update(attrs)


@contextmanager
def _bound(frame: _Frame):
    token = _frame_var.set(frame)
    try:
        yield
    finally:
        _frame_var.reset(token)


@contextmanager
def trace_scope(context, *sinks):
    """Bind ``context`` as the ambient trace, and ``sinks`` beside the
    ones already bound (the caller closes them), for the block.

    >>> from repro.obs import MemorySink, TraceContext, span
    >>> ctx, sink = TraceContext.new(), MemorySink()
    >>> with trace_scope(ctx, sink):
    ...     with span("work"):
    ...         pass
    >>> sink.records[0]["parent_id"] == ctx.span_id
    True
    """
    outer = _frame_var.get() or _UNBOUND
    with _bound(_Frame(
        outer.recorder, outer.sinks + sinks, context, outer.depth + 1
    )):
        yield context


@contextmanager
def recording(
    *,
    sinks: Iterable = (),
    trace_path=None,
    logger=None,
):
    """Bind a fresh :class:`Recorder`, and its sinks, for the block.

    Parameters
    ----------
    sinks : iterable, optional
        Extra sinks receiving every record as it is produced.
    trace_path : path-like, optional
        Convenience: append a :class:`~repro.obs.JsonlSink` writing to
        this path (pooled store runs hand it to their workers).
    logger : logging.Logger or bool, optional
        Convenience: append a :class:`~repro.obs.LoggingSink`.  Pass a
        logger instance, or True for the default ``repro.obs`` logger.

    Yields the recorder; on exit the previous frame is restored and the
    recorder is closed, closing its sinks.
    An inner ``recording`` shadows the outer one's recorder and sinks,
    and keeps its trace context.

    Examples
    --------
    >>> from repro.obs import recording
    >>> from repro import characterize
    >>> with recording() as rec:
    ...     _ = characterize([[1.0, 2.0], [2.0, 1.0]])
    >>> any(e.name.startswith("sinkhorn") for e in rec.events)
    True
    """
    from .sinks import JsonlSink, LoggingSink

    all_sinks = list(sinks)
    if trace_path is not None:
        all_sinks.append(JsonlSink(trace_path))
    if logger is not None:
        all_sinks.append(
            LoggingSink(None if logger is True else logger)
        )
    rec = Recorder(sinks=all_sinks)
    outer = _frame_var.get() or _UNBOUND
    try:
        with _bound(_Frame(rec, tuple(all_sinks), outer.context, outer.depth)):
            yield rec
    finally:
        rec.close()
        # While process-wide metrics collection is enabled, completed
        # sessions accumulate into the registry (span-duration
        # histograms) so scrape endpoints see every recording without
        # extra wiring.
        from . import metrics as _metrics

        if _metrics.metrics_enabled():
            _metrics.fold_recorder(rec)
