"""Process-wide metrics: labelled counters, gauges and histograms.

The :class:`~repro.obs.Recorder` answers "where did time go" for one
in-process recording session; this module is the durable sibling — a
:class:`MetricsRegistry` that aggregates across *every* kernel call in
the process and renders to standard formats
(:func:`repro.obs.export.render_prometheus`).

Three instrument kinds, mirroring the Prometheus data model:

* :class:`Counter` — monotonically increasing totals (kernel runs,
  ensemble members by dispatch path, quarantine outcomes by taxonomy
  slug);
* :class:`Gauge` — point-in-time values (last folded recorder gauges);
* :class:`Histogram` — fixed-bucket distributions (Sinkhorn
  iterations-to-tolerance, residual at exit, SVD wall time, span
  durations).

Instruments are labelled: one metric name carries many label-value
series (``repro_sinkhorn_runs_total{kernel="scalar",converged="true"}``).

Every family the library records is declared once, in :data:`FAMILIES`
(name, kind, help, label names, buckets).  Call sites record into
those families by name with :func:`record`, which hands the updates to
:meth:`MetricsRegistry.record`: the family is registered and validated
the first time a registry sees it, and every later record is a dict
lookup plus an update, all of one call under one lock hold.

Collection is **off by default** and gated by a module-level flag so the
instrumented hot paths pay one gate test per kernel *run* (never per
iteration) while disabled — ``benchmarks/bench_obs_overhead.py`` pins
this below 1% of a scalar Sinkhorn call.  Enable it explicitly::

    from repro.obs import collecting_metrics, render_prometheus

    with collecting_metrics() as registry:
        characterize(env)                  # hot paths feed the registry
    print(render_prometheus(registry))

Completed :func:`repro.obs.recording` sessions are folded into the
registry automatically while collection is enabled (span wall-time
histograms and span counts); :func:`fold_recorder`
does the same explicitly.
"""

from __future__ import annotations

import bisect
import math
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "MetricsRegistry",
    "MetricFamily",
    "FamilySpec",
    "FAMILIES",
    "Counter",
    "Gauge",
    "Histogram",
    "get_registry",
    "set_registry",
    "enable_metrics",
    "disable_metrics",
    "metrics_enabled",
    "collecting_metrics",
    "declare_families",
    "fold_recorder",
    "record",
    "Tally",
    "ITERATION_BUCKETS",
    "RESIDUAL_BUCKETS",
    "SECONDS_BUCKETS",
    "BATCH_SIZE_BUCKETS",
]

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Sinkhorn iterations-to-tolerance.  The paper's SPEC matrices converge
#: in 6-7 iterations; adversarial dynamic ranges push into the hundreds
#: and non-normalizable patterns run to the ``max_iterations`` ceiling,
#: so the grid is log-ish from 1 to the 100k default ceiling.
ITERATION_BUCKETS = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
    500.0, 1_000.0, 10_000.0, 100_000.0,
)

#: Residual at kernel exit.  Converged runs sit at or below the 1e-8
#: default tolerance; the coarse upper decades characterize how far
#: non-converged (Section VI) runs stalled.
RESIDUAL_BUCKETS = (
    1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0,
)

#: Wall-clock durations (SVD calls, folded span times).  Sub-100 µs
#: scalar kernels up through minute-scale analysis fan-outs.
SECONDS_BUCKETS = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

#: Coalesced batch sizes (powers of two up to the default max-batch
#: ceilings the server offers).  A healthy coalescer under concurrent
#: load shows mass above the ``le="1"`` bucket.
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class FamilySpec(NamedTuple):
    """One declared metric family: everything about it but its samples."""

    name: str
    kind: str
    labelnames: tuple[str, ...]
    help: str
    buckets: tuple[float, ...] | None = None


#: Every metric family the library and the service record, by name.
#: To add one, append a :class:`FamilySpec` here and :func:`record` into
#: it by name; a ``repro_serve_*`` family is then pre-registered by the
#: server like every other serve family.  The comments beside a family
#: list its label vocabulary; the help strings stay as they are, since
#: they are part of every exposition.
FAMILIES = {spec.name: spec for spec in (
    # -- compute layers (normalize, batch, backends, measures, robust)
    # kernel: scalar, margins or batched (one run per stack slice).
    FamilySpec("repro_sinkhorn_runs_total", "counter", ("kernel", "converged"),
               "Sinkhorn kernel runs by kernel and convergence outcome."),
    FamilySpec("repro_sinkhorn_iterations", "histogram", ("kernel",),
               "Full (column+row) Sinkhorn iterations to tolerance per run.",
               ITERATION_BUCKETS),
    FamilySpec("repro_sinkhorn_exit_residual", "histogram", ("kernel",),
               "Largest row/column-sum deviation at kernel exit.",
               RESIDUAL_BUCKETS),
    # kernel: scalar or batched (one stacked call).
    FamilySpec("repro_svd_seconds", "histogram", ("kernel",),
               "Wall time of the singular-value decompositions behind TMA.",
               SECONDS_BUCKETS),
    # path: batched or fallback (the scalar path); a run with no members
    # in either still declares the family.
    FamilySpec("repro_ensemble_members_total", "counter", ("path",),
               "Ensemble members characterized, by kernel dispatch path."),
    # outcome: quarantined, repaired, and fault.<category> per taxonomy
    # slug seen (fault.nan, fault.non-convergent, ...).
    FamilySpec("repro_member_outcomes_total", "counter", ("outcome",),
               "Robust ensemble member outcomes by quarantine taxonomy slug."),
    # kernel: sinkhorn_<kind>; outcome: converged or pending.
    FamilySpec("repro_backend_warm_start_total", "counter", ("kernel", "outcome"),
               "Warm-started Sinkhorn runs by kernel and convergence outcome."),
    # tma_method: standard, limit or column.
    FamilySpec("repro_characterize_runs_total", "counter", ("tma_method",),
               "Full heterogeneity characterizations by TMA method."),
    # -- folded recorder sessions
    FamilySpec("repro_span_seconds", "histogram", ("span",),
               "Wall time of recorded obs spans, by span name.", SECONDS_BUCKETS),
    FamilySpec("repro_spans_total", "counter", ("span",),
               "Recorded obs spans, by span name."),
    FamilySpec("repro_span_errors_total", "counter", ("span",),
               "Recorded obs spans that exited by raising, by span name."),
    # -- the service (repro.serve)
    FamilySpec("repro_serve_requests_total", "counter", ("endpoint", "status"),
               "Characterization service requests by endpoint and HTTP status."),
    # source, the path that produced the response bytes: cold (a batch of
    # one), batched (a coalesced batch > 1), inflight (joined an identical
    # computation), cache-memory / cache-disk (the cache tier that hit),
    # shed (a structured 503) or error.  The exemplar is the trace id.
    FamilySpec("repro_serve_request_seconds", "histogram", ("endpoint", "source"),
               "Service request wall time by endpoint and serving path.",
               SECONDS_BUCKETS),
    # kind: metrics or healthz.  Scrapes stay out of the request families,
    # so scrape traffic cannot drag the p99 the AIMD estimator targets.
    FamilySpec("repro_serve_scrapes_total", "counter", ("kind", "status"),
               "Observability scrapes (metrics/health endpoints) by kind and "
               "status."),
    FamilySpec("repro_serve_scrape_seconds", "histogram", ("kind",),
               "Wall time of observability scrapes, by kind.", SECONDS_BUCKETS),
    FamilySpec("repro_serve_coalesce_batch_size", "histogram", ("endpoint",),
               "Requests per coalesced kernel batch, by endpoint.",
               BATCH_SIZE_BUCKETS),
    FamilySpec("repro_serve_kernel_invocations_total", "counter", ("endpoint",),
               "Batched kernel calls issued by the coalescer, by endpoint."),
    # event: hit-memory, hit-disk, miss, store, spill or spill_error.
    FamilySpec("repro_serve_cache_events_total", "counter", ("event",),
               "Content-addressed result cache events."),
    FamilySpec("repro_serve_quarantined_total", "counter", ("endpoint", "category"),
               "Service requests quarantined, by endpoint and fault category."),
    FamilySpec("repro_serve_admitted_total", "counter", ("endpoint",),
               "Requests admitted to the compute path, by endpoint."),
    # reason: queue-full (the pending queue overflowed) or draining
    # (graceful shutdown); deadline sheds count in the family below.
    FamilySpec("repro_serve_shed_total", "counter", ("endpoint", "reason"),
               "Requests shed with a structured 503, by endpoint and reason."),
    # stage where the expiry was caught: entry (expired when parsed),
    # admission (queued for a slot) or coalesce (lingering in a group).
    FamilySpec("repro_serve_deadline_exceeded_total", "counter", ("endpoint", "stage"),
               "Requests shed at their deadline, by endpoint and pipeline stage."),
    # event: started, flushed (coalescer groups flushed), completed (every
    # in-flight request finished) or timeout (work still live at the
    # drain deadline).
    FamilySpec("repro_serve_drain_total", "counter", ("event",),
               "Graceful-drain lifecycle events."),
    FamilySpec("repro_serve_admission_limit", "gauge", ("endpoint",),
               "Current adaptive admission limit, by endpoint."),
    # -- the shard engine (repro.shard)
    # mode: serial (streamed in-process) or pool (a worker process).
    FamilySpec("repro_shard_chunks_total", "counter", ("mode",),
               "Shard chunks characterized, by dispatch mode."),
    FamilySpec("repro_shard_members_total", "counter", ("mode",),
               "Ensemble members streamed through the shard engine, by mode."),
    FamilySpec("repro_shard_chunk_seconds", "histogram", ("mode",),
               "Wall time of one shard chunk (read + characterize), by mode.",
               SECONDS_BUCKETS),
    # event: primary (first dispatch of a shard), speculative (spare copy
    # of a straggler), winner_primary / winner_backup (the copy that
    # finished first) or cancelled (the losing copy).
    FamilySpec("repro_shard_dispatch_total", "counter", ("event",),
               "Shard scheduler dispatch events (straggler mitigation)."),
)}


@dataclass(frozen=True)
class MetricFamily:
    """One collected metric: identity plus every label-series sample.

    ``samples`` maps a label-value tuple (ordered as ``labelnames``) to
    the series value — a float for counters/gauges, or a dict with
    ``"buckets"`` (per-bucket non-cumulative counts, ``+Inf`` last),
    ``"sum"`` and ``"count"`` for histograms.  ``buckets`` on the family
    carries the upper bounds for histogram kinds, ``None`` otherwise.
    """

    name: str
    kind: str
    help: str
    labelnames: tuple[str, ...]
    samples: dict
    buckets: tuple[float, ...] | None = None


class _Metric:
    """Shared identity + label-key handling of the three instruments.

    ``_update(key, ...)`` applies one record to the series ``key`` (a
    tuple of label-value strings in ``labelnames`` order); the caller
    holds the registry lock.
    """

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        lock: threading.Lock,
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = lock
        self._series: dict[tuple[str, ...], object] = {}

    def _key(self, labels: dict) -> tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels "
                f"{sorted(self.labelnames)}, got {sorted(labels)}"
            )
        return tuple(str(labels[n]) for n in self.labelnames)

    def series(self) -> dict:
        """Snapshot of every label-series value (label tuple -> value)."""
        with self._lock:
            return {k: self._copy_value(v) for k, v in self._series.items()}

    @staticmethod
    def _copy_value(value):
        return value


class Counter(_Metric):
    """A monotonically increasing total (per label series)."""

    kind = "counter"

    def inc(self, value: float = 1.0, **labels) -> None:
        """Add ``value`` (>= 0) to the series selected by ``labels``."""
        value = float(value)
        if value < 0 or math.isnan(value):
            raise ValueError(
                f"counter {self.name!r} can only increase, got {value!r}"
            )
        key = self._key(labels)
        with self._lock:
            self._update(key, value)

    def _update(self, key, value) -> None:
        self._series[key] = self._series.get(key, 0.0) + float(value)

    def value(self, **labels) -> float:
        """Current total of one label series (0.0 when never incremented)."""
        with self._lock:
            return float(self._series.get(self._key(labels), 0.0))


class Gauge(_Metric):
    """A point-in-time value that can go up and down."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._update(key, value)

    def _update(self, key, value) -> None:
        self._series[key] = float(value)

    def inc(self, value: float = 1.0, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + float(value)

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._series.get(self._key(labels), 0.0))


class _HistogramSeries:
    __slots__ = ("counts", "sum", "count", "exemplars")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * (n_buckets + 1)  # last slot = +Inf bucket
        self.sum = 0.0
        self.count = 0
        # bucket index -> {"labels": {...}, "value": v, "timestamp": ts};
        # populated only when observe() is handed an exemplar, so
        # exemplar-free histograms pay nothing.
        self.exemplars: dict[int, dict] | None = None


class Histogram(_Metric):
    """A fixed-bucket distribution; buckets are upper bounds (``le``)."""

    kind = "histogram"

    def __init__(self, name, help, labelnames, lock, buckets) -> None:
        super().__init__(name, help, labelnames, lock)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        if any(
            not math.isfinite(b) for b in bounds
        ) or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram {name!r} buckets must be finite and strictly "
                f"increasing, got {bounds}"
            )
        self.buckets = bounds

    def observe(self, value: float, exemplar: dict | None = None, **labels) -> None:
        """Record one observation into the series selected by ``labels``.

        NaN observations are dropped (a NaN would poison ``sum`` and
        land in no meaningful bucket — robust pipelines can legitimately
        produce NaN residuals for quarantined members).

        ``exemplar`` is an optional label dict (e.g. ``{"trace_id":
        "..."}``): the last exemplar per bucket is kept and rendered as
        an OpenMetrics exemplar on that bucket's sample line, so a p99
        bucket points at a concrete trace to pull up.
        """
        key = self._key(labels)
        with self._lock:
            self._update(key, value, exemplar)

    def _update(self, key, value, exemplar=None) -> None:
        value = float(value)
        if math.isnan(value):
            return
        idx = bisect.bisect_left(self.buckets, value)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.buckets))
        series.counts[idx] += 1
        series.sum += value
        series.count += 1
        if exemplar:
            if series.exemplars is None:
                series.exemplars = {}
            series.exemplars[idx] = {
                "labels": {str(k): str(v) for k, v in exemplar.items()},
                "value": value,
                "timestamp": time.time(),
            }

    def snapshot(self, **labels) -> dict:
        """``{"buckets": {le: cumulative_count}, "sum": s, "count": n}``
        for one label series (all-zero when never observed)."""
        with self._lock:
            series = self._series.get(self._key(labels))
            counts = list(series.counts) if series else [0] * (
                len(self.buckets) + 1
            )
            total = series.sum if series else 0.0
            n = series.count if series else 0
        cumulative, running = {}, 0
        for bound, c in zip(self.buckets, counts):
            running += c
            cumulative[bound] = running
        cumulative[math.inf] = running + counts[-1]
        return {"buckets": cumulative, "sum": total, "count": n}

    @staticmethod
    def _copy_value(value):
        copied = {
            "counts": list(value.counts),
            "sum": value.sum,
            "count": value.count,
        }
        if value.exemplars:
            copied["exemplars"] = {
                idx: dict(ex) for idx, ex in value.exemplars.items()
            }
        return copied


_METRIC_CLASSES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """A named collection of metrics with create-or-get registration.

    ``counter()`` / ``gauge()`` / ``histogram()`` return the existing
    instrument when the name is already registered (validating that the
    kind, label names and buckets agree), so call sites never need to
    coordinate registration order.  :meth:`declare` does the same for a
    family of :data:`FAMILIES` once, and :meth:`record` feeds declared
    families on the hot paths.  All mutation is guarded by one lock,
    making the registry safe to scrape from the metrics HTTP endpoint
    while kernels feed it.

    Examples
    --------
    >>> registry = MetricsRegistry()
    >>> runs = registry.counter(
    ...     "demo_runs_total", "Demo runs.", labelnames=("kind",)
    ... )
    >>> runs.inc(kind="fast"); runs.inc(2, kind="slow")
    >>> runs.value(kind="slow")
    2.0
    >>> sorted(f.name for f in registry.collect())
    ['demo_runs_total']
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        # Declared families already registered (and validated) here.
        self._declared: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    # -- registration (create-or-get) ----------------------------------

    def _register(self, kind: str, name: str, help: str, labelnames, **extra):
        with self._lock:
            return self._get_or_create(kind, name, help, labelnames, extra)

    def _get_or_create(self, kind, name, help, labelnames, extra):
        """Create-or-get with validation; the caller holds the lock."""
        if not _METRIC_NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        labelnames = tuple(labelnames)
        for label in labelnames:
            if not _LABEL_NAME_RE.match(label) or label.startswith("__"):
                raise ValueError(
                    f"invalid label name {label!r} for metric {name!r}"
                )
        existing = self._metrics.get(name)
        if existing is not None:
            if existing.kind != kind or existing.labelnames != labelnames:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind} with labels {existing.labelnames}"
                )
            if kind == "histogram" and existing.buckets != tuple(
                float(b) for b in extra["buckets"]
            ):
                raise ValueError(
                    f"histogram {name!r} already registered with "
                    f"buckets {existing.buckets}"
                )
            return existing
        metric = _METRIC_CLASSES[kind](
            name, help, labelnames, self._lock, **extra
        )
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "", labelnames=()) -> Counter:
        return self._register("counter", name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames=()) -> Gauge:
        return self._register("gauge", name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames=(),
        buckets=SECONDS_BUCKETS,
    ) -> Histogram:
        return self._register(
            "histogram", name, help, labelnames, buckets=buckets
        )

    def declare(self, name: str) -> _Metric:
        """The instrument of the :data:`FAMILIES` entry ``name``.

        Registered (and validated) the first time this registry sees the
        family; later calls only look it up.
        """
        with self._lock:
            return self._declared.get(name) or self._declare(name)

    def _declare(self, name: str) -> _Metric:
        spec = FAMILIES[name]
        extra = {} if spec.buckets is None else {"buckets": spec.buckets}
        metric = self._get_or_create(
            spec.kind, name, spec.help, spec.labelnames, extra
        )
        self._declared[name] = metric
        return metric

    def record(self, *updates) -> None:
        """Apply ``(family, label values, value[, exemplar])`` updates.

        ``family`` names a :data:`FAMILIES` entry and ``label values`` is
        a tuple of strings in its label order.  A counter adds
        ``value``, a gauge is set to it and a histogram observes it
        (``exemplar`` as in :meth:`Histogram.observe`).  Every update of
        one call is applied under one lock hold, in order.
        """
        declared = self._declared
        with self._lock:
            for name, key, *args in updates:
                metric = declared.get(name) or self._declare(name)
                metric._update(key, *args)

    # -- reading back --------------------------------------------------

    def get(self, name: str) -> _Metric:
        """The registered instrument called ``name`` (KeyError if absent)."""
        with self._lock:
            return self._metrics[name]

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._metrics))

    def collect(self) -> list[MetricFamily]:
        """Every metric as a :class:`MetricFamily`, sorted by name."""
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        return [
            MetricFamily(
                name=m.name,
                kind=m.kind,
                help=m.help,
                labelnames=m.labelnames,
                samples=m.series(),
                buckets=getattr(m, "buckets", None),
            )
            for m in metrics
        ]

    def snapshot(self) -> dict:
        """JSON-safe dump of every metric, one entry per family."""
        out = {}
        for family in self.collect():
            series = []
            for key, value in sorted(family.samples.items()):
                labels = dict(zip(family.labelnames, key))
                if family.kind == "histogram":
                    # Exemplars are scrape-surface decoration, not part
                    # of the stable snapshot shape.
                    value = {k: v for k, v in value.items() if k != "exemplars"}
                    series.append({"labels": labels, **value})
                else:
                    series.append({"labels": labels, "value": value})
            entry = {"kind": family.kind, "help": family.help,
                     "series": series}
            if family.buckets is not None:
                entry["buckets"] = list(family.buckets)
            out[family.name] = entry
        return out

    def reset(self) -> None:
        """Drop every recorded value (registrations survive)."""
        with self._lock:
            for metric in self._metrics.values():
                metric._series.clear()


# -- the process-wide default registry and its enable gate -------------

_default_registry = MetricsRegistry()
_enabled = False


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (always available, gate aside)."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the default registry; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


def enable_metrics() -> None:
    """Open the gate: hot paths start feeding the default registry."""
    global _enabled
    _enabled = True


def disable_metrics() -> None:
    global _enabled
    _enabled = False


def metrics_enabled() -> bool:
    """Whether hot-path instrumentation currently records anything."""
    return _enabled


@contextmanager
def collecting_metrics(registry: MetricsRegistry | None = None):
    """Enable metrics collection for a block, yielding the registry.

    Pass a fresh :class:`MetricsRegistry` to collect in isolation (the
    default registry is swapped in-place and restored on exit — the
    pattern every test uses); with no argument the process-wide default
    registry collects.

    Examples
    --------
    >>> from repro.normalize.sinkhorn import sinkhorn_knopp
    >>> with collecting_metrics(MetricsRegistry()) as registry:
    ...     _ = sinkhorn_knopp([[1.0, 2.0], [3.0, 4.0]])
    >>> registry.get("repro_sinkhorn_runs_total").value(
    ...     kernel="scalar", converged="true")
    1.0
    """
    global _enabled
    previous_registry = None
    if registry is not None:
        previous_registry = set_registry(registry)
    previous_enabled = _enabled
    _enabled = True
    try:
        yield _default_registry
    finally:
        _enabled = previous_enabled
        if previous_registry is not None:
            set_registry(previous_registry)


def declare_families(
    prefix: str = "", registry: MetricsRegistry | None = None
) -> None:
    """Register every :data:`FAMILIES` entry whose name starts with
    ``prefix`` (zero-valued) in ``registry`` (default: the default one).

    The server declares ``repro_serve_*`` at startup so an operator
    scraping ``/metrics`` sees every serve family (HELP/TYPE lines)
    before its first sample — a dashboard wired against a healthy server
    keeps working when the weather turns.
    """
    registry = registry or _default_registry
    for name in FAMILIES:
        if name.startswith(prefix):
            registry.declare(name)


def record(*updates) -> None:
    """Apply ``(family, label values, value[, exemplar])`` updates to the
    default registry, as :meth:`MetricsRegistry.record` does; nothing
    while the gate is closed.

    The one hot-path entry point: call sites name a :data:`FAMILIES`
    entry and pass string label values in its label order.  Looking up
    the default registry at call time means a swapped one
    (``collecting_metrics(fresh)``) is always the one fed.  A site whose
    updates cost work to build tests :func:`metrics_enabled` first.
    """
    if _enabled:
        _default_registry.record(*updates)


class Tally:
    """Counter increments an owner keeps for a later :func:`record` call.

    A site that counts an event many times per unit of work (a cache
    lookup, an admission) can :meth:`add` it here and have the unit's
    one ``record`` call carry :meth:`drain`'s updates, instead of
    making a ``record`` call per event.  Not locked: feed and drain it
    on one thread.
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: dict[tuple, float] = {}

    def add(self, family: str, labels: tuple[str, ...]) -> None:
        """Count one event of counter ``family`` at ``labels``."""
        key = (family, labels)
        self.counts[key] = self.counts.get(key, 0.0) + 1.0

    def drain(self) -> tuple:
        """The counts since the previous drain, as ``record`` updates."""
        counts = self.counts
        if not counts:
            return ()
        self.counts = {}
        return tuple((family, labels, n) for (family, labels), n in counts.items())


def fold_recorder(
    recorder, registry: MetricsRegistry | None = None
) -> None:
    """Fold a completed :class:`repro.obs.Recorder` into a registry.

    Spans land in the ``repro_span_seconds`` histogram (one ``span``
    label series per span name) plus ``repro_spans_total`` /
    ``repro_span_errors_total`` counters.

    :func:`repro.obs.recording` calls this automatically on exit while
    metrics collection is enabled, so CLI profile runs and long-lived
    services feed the scrape endpoint with no extra wiring.
    """
    registry = registry or _default_registry
    declare_families("repro_span", registry)
    updates = []
    for event in recorder.events:
        updates.append(("repro_span_seconds", (event.name,), event.wall_s))
        updates.append(("repro_spans_total", (event.name,), 1.0))
        if event.error is not None:
            updates.append(("repro_span_errors_total", (event.name,), 1.0))
    registry.record(*updates)
