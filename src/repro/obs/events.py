"""The one event record emitted by the :mod:`repro.obs` recorder.

A :class:`SpanEvent` is one timed region (a Sinkhorn run, an SVD call,
one heuristic execution) with wall/CPU duration, nesting depth,
free-form attributes and optional per-iteration sample series (e.g.
the residual after every Sinkhorn iteration).  A count — members
quarantined, trials fanned out, tasks mapped — is an integer attribute
of the span of the call it describes.

:meth:`SpanEvent.to_record` produces the JSON-safe dict every sink
consumes, so new sinks never need to know about the dataclass itself.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["SpanEvent", "jsonable"]


def jsonable(value: Any) -> Any:
    """Best-effort coercion of metadata values to JSON-safe types.

    Numpy scalars (which carry ``item()``), bools, ints, floats and
    strings pass through; sequences are converted element-wise; anything
    else falls back to ``str`` so a sink can never raise on emit.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        try:
            return jsonable(value.item())
        except (ValueError, TypeError):
            return str(value)
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)) or (
        hasattr(value, "__iter__") and hasattr(value, "__len__")
    ):
        return [jsonable(v) for v in value]
    return str(value)


@dataclass(frozen=True)
class SpanEvent:
    """One closed timed region.

    Attributes
    ----------
    name : str
        Dotted span name (``"sinkhorn.scalar"``, ``"svd.batched"``,
        ``"scheduling.min_min"`` ...).
    index : int
        Sequence number in close order, unique within the process.
    depth : int
        Nesting depth at entry (0 = top level) within the process.
    start : float
        Wall-clock (``time.time()``) entry time, so spans from several
        processes line up on one timeline.
    wall_s, cpu_s : float
        Wall-clock and process-CPU duration of the region.
    meta : dict
        Free-form attributes attached via ``span.note(...)`` or
        :func:`repro.obs.note` (matrix shape, iteration count, makespan,
        members quarantined, ...).
    samples : dict of str -> tuple of float
        Named per-iteration series attached via ``span.sample(...)``
        (convergence residuals, active-mask occupancy, ...).
    error : str or None
        Exception type name when the region exited by raising.
    trace_id, span_id, parent_id : str or None
        Distributed-trace identity (W3C format), stamped when a
        :class:`repro.obs.trace_context.TraceContext` was ambient while
        the span opened.  None for untraced runs, and omitted from the
        record.  A traced record also carries the ``pid`` of the process
        that wrote it, so a trace that spans a process pool keeps one
        lane per process in a Chrome export.
    links : tuple of dict
        Span links (``{"trace_id", "span_id"}``) for fan-in spans such
        as a batched kernel serving several request traces.
    """

    name: str
    index: int
    depth: int
    start: float
    wall_s: float
    cpu_s: float
    meta: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    error: str | None = None
    trace_id: str | None = None
    span_id: str | None = None
    parent_id: str | None = None
    links: tuple = ()

    def to_record(self) -> dict:
        record = {
            "type": "span",
            "name": self.name,
            "index": self.index,
            "depth": self.depth,
            "start": self.start,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "meta": {k: jsonable(v) for k, v in self.meta.items()},
        }
        if self.samples:
            record["samples"] = {
                k: [float(v) for v in vs] for k, vs in self.samples.items()
            }
        if self.error is not None:
            record["error"] = self.error
        if self.trace_id is not None:
            record["trace_id"] = self.trace_id
            record["span_id"] = self.span_id
            record["parent_id"] = self.parent_id
            record["pid"] = os.getpid()
            if self.links:
                record["links"] = [dict(link) for link in self.links]
        return record

