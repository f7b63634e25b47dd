"""The asyncio characterization service behind ``repro-hc serve``.

A single-process, stdlib-only JSON-over-HTTP server that turns the
offline measure library into a standing endpoint:

* ``POST /v1/characterize`` / ``/v1/standardize`` /
  ``/v1/recommend-heuristic`` — the request formats are documented in
  :mod:`repro.serve.protocol` and ``docs/SERVING.md``;
* ``GET /metrics`` — the process metrics registry in Prometheus text
  exposition (:func:`repro.obs.render_prometheus`);
* ``GET /healthz`` — the combined health report (``ok`` / ``degraded``
  / ``draining``), with ``/healthz/live`` and ``/healthz/ready`` as
  the split liveness / readiness probes.

Request flow (the order is the point):

1. **content-addressed cache** — the canonical matrix + options key
   (:func:`repro.serve.cache.matrix_cache_key`) is looked up first;
   hits answer with the exact bytes of the original response and zero
   kernel work;
2. **in-flight dedup** — an identical request already being computed
   is joined, not recomputed (single-flight);
3. **admission control** — compute work passes a per-endpoint
   concurrency gate with a bounded pending queue
   (:class:`repro.serve.resilience.AdmissionController`); excess load
   is shed with a structured ``503`` + ``Retry-After`` instead of
   queued unboundedly, and an AIMD estimator adapts the limit to the
   capacity the host actually exhibits;
4. **micro-batching coalescer** — same-shape, same-options requests
   are stacked into one ``(N, T, M)`` batched kernel call
   (:class:`repro.serve.coalesce.Coalescer`), under the tightest
   surviving request deadline;
5. the batch runs under the **robust pipeline** with the per-request
   quarantine/repair policy, so one corrupt matrix in a coalesced
   batch yields a structured error for *its* caller while every
   healthy cohabitant succeeds.

Shutdown is graceful: SIGTERM/SIGINT (wired by the CLI) triggers
:meth:`CharacterizationServer.shutdown` — stop accepting, flush the
coalescer, finish every in-flight request under the drain timeout, and
exit 0 with zero dropped responses.

:class:`ServerThread` hosts the whole loop in a daemon thread for
tests, benchmarks and embedding.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .. import __version__
from ..obs import metrics as _metrics, record_span, span, trace_scope
from ..obs.export import PROMETHEUS_CONTENT_TYPE, render_prometheus
from ..obs.metrics import declare_families, enable_metrics
from ..obs.sinks import JsonlSink, RotatingJsonlSink
from ..obs.trace_context import RequestTrace, request_ids
from ..robust.budget import Budget, Deadline
from .cache import ResultCache, matrix_cache_key
from .coalesce import Coalescer, ServeFault
from .protocol import (
    ProtocolError,
    ServeRequest,
    decode_json,
    encode_json,
    error_body,
    parse_request,
    result_body,
)
from .resilience import (
    AdmissionController,
    CapacityEstimator,
    DeadlineExceeded,
    DrainState,
    ShedError,
)

__all__ = ["ServeConfig", "CharacterizationServer", "ServerThread"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Protects the event loop from unbounded request bodies (16 MiB is a
#: ~1448x1448 float64 matrix — far beyond any sane ETC environment).
MAX_BODY_BYTES = 16 * 1024 * 1024


@dataclass(frozen=True)
class ServeConfig:
    """Operational knobs of the characterization service.

    ``linger_s`` / ``max_batch`` shape request coalescing
    (:class:`repro.serve.coalesce.Coalescer`): a group flushes on the
    first loop turn that adds no member while no request is still being
    read, at ``linger_s`` at the latest, or at ``max_batch``.

    The resilience knobs (see :mod:`repro.serve.resilience` and
    ``docs/SERVING.md``):

    * ``max_inflight`` / ``queue_depth`` — per-endpoint admission
      ceiling and bounded pending queue; overflow is shed with a
      structured ``503`` + ``Retry-After``;
    * ``adaptive`` — when True (default) an AIMD estimator per
      endpoint tightens the admission limit while the observed request
      p99 breaches ``target_p99_ms`` and relaxes it while the server
      keeps up;
    * ``default_deadline_ms`` — server-side deadline applied to
      requests that do not send their own ``deadline_ms``;
    * ``drain_timeout_s`` — how long a graceful shutdown waits for
      in-flight requests before giving up on them.

    The tracing knobs (see ``docs/OBSERVABILITY.md``):

    * ``trace_path`` — JSONL span-sink file; when set, every ``/v1``
      exchange binds it with the request's trace context, so the
      request emits a ``serve.request`` root span (plus cache / kernel
      child spans, and the kernel's own spans under ``serve.kernel``)
      queryable with ``repro-hc trace query``.  Trace *ids* are minted
      regardless — every response carries ``X-Repro-Trace-Id`` — only
      span emission is gated on this path;
    * ``slow_log_path`` / ``slow_threshold_ms`` — rotating JSONL log of
      requests slower than the threshold, each record carrying the
      trace id and the full stage breakdown;
    * ``slow_log_max_bytes`` / ``slow_log_backups`` — rotation policy
      of the slow-request log.
    """

    host: str = "127.0.0.1"
    port: int = 8787
    linger_s: float = 0.002
    max_batch: int = 64
    cache_entries: int = 1024
    cache_dir: str | None = None
    enable_metrics: bool = True
    max_inflight: int = 64
    queue_depth: int = 256
    adaptive: bool = True
    target_p99_ms: float = 500.0
    min_inflight: int = 2
    default_deadline_ms: float | None = None
    drain_timeout_s: float = 10.0
    trace_path: str | None = None
    slow_log_path: str | None = None
    slow_threshold_ms: float = 500.0
    slow_log_max_bytes: int = 1_000_000
    slow_log_backups: int = 3


@dataclass
class _Inflight:
    """Single-flight bookkeeping: key → the future of its body bytes."""

    future: asyncio.Future
    waiters: int = 0


class CharacterizationServer:
    """The service core: routing, caching, coalescing, robust kernels.

    Transport-agnostic — :meth:`dispatch` maps ``(method, path, body)``
    to ``(status, content_type, body)``, and the socket layer
    (:meth:`start` / :class:`ServerThread`) is a thin asyncio stream
    wrapper around it, so tests can drive the full pipeline without
    opening ports.
    """

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.cache = ResultCache(
            max_entries=self.config.cache_entries,
            spill_dir=self.config.cache_dir,
        )
        self.trace_sink: JsonlSink | None = None
        if self.config.trace_path is not None:
            self.trace_sink = JsonlSink(self.config.trace_path)
        self.slow_log: RotatingJsonlSink | None = None
        if self.config.slow_log_path is not None:
            self.slow_log = RotatingJsonlSink(
                self.config.slow_log_path,
                max_bytes=self.config.slow_log_max_bytes,
                backups=self.config.slow_log_backups,
            )
        self._inflight: dict[str, _Inflight] = {}
        self.coalescers = {
            "characterize": Coalescer(
                self._run_characterize_batch,
                endpoint="characterize",
                linger_s=self.config.linger_s,
                max_batch=self.config.max_batch,
            ),
            "standardize": Coalescer(
                self._run_standardize_batch,
                endpoint="standardize",
                linger_s=self.config.linger_s,
                max_batch=self.config.max_batch,
            ),
        }
        estimators = None
        if self.config.adaptive:
            estimators = {
                endpoint: CapacityEstimator(
                    base_limit=self.config.max_inflight,
                    min_limit=min(
                        self.config.min_inflight, self.config.max_inflight
                    ),
                    max_limit=self.config.max_inflight,
                    target_p99_s=self.config.target_p99_ms / 1e3,
                )
                for endpoint in (
                    "characterize", "standardize", "recommend-heuristic"
                )
            }
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            queue_depth=self.config.queue_depth,
            estimators=estimators,
        )
        self.drain_state = DrainState()
        self.started_at = self.drain_state.started_at
        self.requests_served = 0
        self._active_exchanges = 0
        self._server: asyncio.base_events.Server | None = None
        if self.config.enable_metrics:
            enable_metrics()
            declare_families("repro_serve_")

    # -- batch runners (executor threads) ------------------------------

    @staticmethod
    def _batch_budget(options: dict) -> Budget | None:
        """The kernel budget for one batch: tightest member deadline.

        The coalescer injects ``deadline_s`` (the tightest surviving
        request deadline) into the flush options; the kernel runs under
        it so a batch never outlives every caller that is still
        waiting on it.
        """
        deadline_s = options.pop("deadline_s", None)
        if deadline_s is None:
            return None
        return Budget(deadline_s=max(0.001, float(deadline_s)))

    def _run_characterize_batch(self, options: dict, matrices: list) -> list:
        """One batched characterize kernel call; per-slice payloads."""
        from ..batch import characterize_ensemble

        budget = self._batch_budget(options)
        stack = np.stack(matrices)
        result = characterize_ensemble(
            stack,
            tol=options["tol"],
            tma_fallback=options.get("tma_fallback", "limit"),
            policy=options.get("policy", "quarantine"),
            budget=budget,
        )
        out: list = []
        for index in range(len(matrices)):
            payload = result.member_payload(index)
            fault = payload.get("fault")
            if "mph" not in payload:  # quarantined: no usable row
                out.append(
                    ServeFault(fault["category"], fault["detail"])
                )
                continue
            payload["n_tasks"] = int(stack.shape[1])
            payload["n_machines"] = int(stack.shape[2])
            out.append(payload)
        return out

    def _run_standardize_batch(self, options: dict, matrices: list) -> list:
        """One batched standardize kernel call; per-slice payloads."""
        from ..batch.sinkhorn import standardize_batched

        budget = self._batch_budget(options)
        stack = np.stack(matrices)
        result = standardize_batched(
            stack,
            tol=options["tol"],
            max_iterations=options.get("max_iterations", 100_000),
            policy=options.get("policy", "quarantine"),
            budget=budget,
        )
        report = result.report
        out: list = []
        for index in range(len(matrices)):
            fault = None
            if report is not None:
                try:
                    fault = report.fault(index)
                except KeyError:
                    fault = None
            slice_matrix = result.matrix[index]
            if (
                fault is not None
                and not fault.repaired
                and not np.isfinite(slice_matrix).all()
            ):
                # Hard fault: no usable iterate at all.
                out.append(ServeFault(fault.category, fault.detail))
                continue
            payload = {
                "matrix": slice_matrix,
                "iterations": int(result.iterations[index]),
                "converged": bool(result.converged[index]),
                "residual": float(result.residual[index]),
                "row_target": float(result.row_target),
                "col_target": float(result.col_target),
            }
            if fault is not None:
                payload["fault"] = fault.to_payload()
            out.append(payload)
        return out

    # -- request handling ----------------------------------------------

    async def _compute(
        self,
        request: ServeRequest,
        deadline: Deadline | None = None,
        trace: RequestTrace | None = None,
    ) -> tuple[bytes, str]:
        """Body bytes for one request, via the coalescer; no caching."""
        endpoint = request.endpoint
        if endpoint == "recommend-heuristic":
            # Rides the characterize coalescer, then applies the rule.
            from ..scheduling.selection import recommend_from_measures

            inner = ServeRequest(
                endpoint="characterize",
                matrix=request.matrix,
                options={**request.options, "tma_fallback": "limit"},
            )
            outcome = await self.coalescers["characterize"].submit(
                inner, deadline
            )
            if trace is not None:
                trace.add("coalesce_linger_s", outcome.linger_s)
                trace.add("kernel_s", outcome.kernel_s)
            measures = outcome.payload
            name, reason = recommend_from_measures(
                measures["mph"], measures["tdh"], measures["tma"]
            )
            result = {
                "heuristic": name,
                "reason": reason,
                "measures": {
                    "mph": measures["mph"],
                    "tdh": measures["tdh"],
                    "tma": measures["tma"],
                },
            }
            source = "batched" if outcome.batch_size > 1 else "cold"
            render_t0 = time.perf_counter()
            body = result_body(endpoint, result)
            if trace is not None:
                trace.add("render_s", time.perf_counter() - render_t0)
            return body, source
        outcome = await self.coalescers[endpoint].submit(request, deadline)
        if trace is not None:
            trace.add("coalesce_linger_s", outcome.linger_s)
            trace.add("kernel_s", outcome.kernel_s)
        source = "batched" if outcome.batch_size > 1 else "cold"
        render_t0 = time.perf_counter()
        body = result_body(endpoint, outcome.payload)
        if trace is not None:
            trace.add("render_s", time.perf_counter() - render_t0)
        return body, source

    def _request_deadline(
        self, request: ServeRequest, elapsed_s: float = 0.0
    ) -> Deadline | None:
        """The request's started deadline clock, or None (unbounded).

        The clock starts at *arrival* (the top of :meth:`dispatch`),
        so ``elapsed_s`` — time already spent reading and parsing the
        request — is subtracted from the budget before it starts.
        """
        deadline_ms = request.deadline_ms
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        if deadline_ms is None:
            return None
        return Deadline(max(0.0, deadline_ms / 1e3 - elapsed_s))

    async def handle_request(
        self,
        endpoint: str,
        payload,
        elapsed_s: float = 0.0,
        trace: RequestTrace | None = None,
    ) -> tuple[int, bytes, str]:
        """Full pipeline for one parsed JSON request document.

        Returns ``(status, body_bytes, source)``; ``source`` is the
        serving-path label fed to the latency histogram.  Raises
        :class:`~repro.serve.resilience.ShedError` when the request is
        rejected by admission control or its deadline.
        """
        request = parse_request(endpoint, payload)
        # A waiting request holds its ServeRequest, not the document.
        del payload
        deadline = self._request_deadline(request, elapsed_s)
        if deadline is not None and deadline.expired():
            _metrics.record(
                ("repro_serve_deadline_exceeded_total", (endpoint, "entry"), 1.0)
            )
            raise DeadlineExceeded(
                "request deadline expired before any work was scheduled"
            )
        key = matrix_cache_key(
            request.matrix, endpoint=endpoint, options=request.canonical_options
        )
        # Cache hits and singleflight joins bypass admission control:
        # they cost no kernel work, and shedding them under load would
        # throw away exactly the requests that are free to serve.
        disk_hits = self.cache.hits_disk
        cache_t0 = time.perf_counter()
        with span("serve.cache") as sp:
            cached = self.cache.get(key)
            sp.note(outcome="miss" if cached is None else "hit")
        if trace is not None:
            trace.add("cache_s", time.perf_counter() - cache_t0)
        if cached is not None:
            # The loop thread is the cache's only reader, so a moved
            # disk-hit count means this hit came from the spill tier.
            disk = self.cache.hits_disk != disk_hits
            return 200, cached, "cache-disk" if disk else "cache-memory"

        inflight = self._inflight.get(key)
        if inflight is not None:
            inflight.waiters += 1
            body = await asyncio.shield(inflight.future)
            return 200, body, "inflight"

        entry = _Inflight(asyncio.get_running_loop().create_future())
        self._inflight[key] = entry
        admitted = False
        try:
            await self.admission.admit(endpoint, deadline, trace)
            admitted = True
            body, source = await self._compute(request, deadline, trace)
        except BaseException as exc:
            # Faults are not cached (a retry with fixed data must
            # recompute); waiters get the same exception re-raised.
            if not entry.future.done():
                entry.future.set_exception(exc)
                # Consume the exception so the loop never logs it as
                # "never retrieved" when no waiter joined.
                entry.future.exception()
            raise
        finally:
            self._inflight.pop(key, None)
            if admitted:
                self.admission.release(endpoint)
        put_t0 = time.perf_counter()
        self.cache.put(key, body)
        if trace is not None:
            trace.add("cache_s", time.perf_counter() - put_t0)
        entry.future.set_result(body)
        return 200, body, source

    def health_payload(self) -> dict:
        """The ``/healthz`` body: status, probes, pipeline counters."""
        degraded = self.admission.degraded or self.cache.spill_degraded
        return {
            "status": self.drain_state.status(degraded=degraded),
            "live": True,
            "ready": self.drain_state.ready,
            "version": __version__,
            "uptime_s": self.drain_state.uptime_s(),
            "requests_served": self.requests_served,
            "active_exchanges": self._active_exchanges,
            "admission": self.admission.stats(),
            "cache": self.cache.stats(),
            "coalescer": {
                name: {
                    "batches_flushed": c.batches_flushed,
                    "requests_coalesced": c.requests_coalesced,
                    "deadline_shed": c.deadline_shed,
                    "pending": c.pending,
                }
                for name, c in self.coalescers.items()
            },
        }

    def _healthz(self, path: str) -> tuple[int, str, bytes]:
        """The liveness / readiness probe split.

        * ``/healthz`` — the combined report: 200 while the process is
          up, with ``status`` ok / degraded / draining in the body;
        * ``/healthz/live`` — liveness only: 200 until the process
          exits (an orchestrator must not kill a draining server);
        * ``/healthz/ready`` — readiness: 503 once draining starts, so
          balancers stop routing here while in-flight work finishes.
        """
        payload = self.health_payload()
        status = 200
        if path == "/healthz/ready" and not payload["ready"]:
            status = 503
        return status, "application/json", result_body("healthz", payload)

    async def dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, str, bytes]:
        """Route one exchange; returns (status, content-type, body).

        Compatibility wrapper around :meth:`exchange` for callers that
        do not need response headers.
        """
        status, ctype, payload, _ = await self.exchange(method, path, body)
        return status, ctype, payload

    def _finish_request(
        self,
        rtrace: RequestTrace | None,
        endpoint: str | None,
        *,
        status: int,
        source: str,
        wall_s: float,
        error: str | None = None,
        need_timings: bool = False,
    ) -> dict[str, float] | None:
        """Root span + slow-log emission for one ``/v1`` exchange.

        Returns the stage breakdown (``other_s`` absorbs unattributed
        time, so the stages sum to ``wall_s`` by construction) — or
        None when nothing consumes it: the breakdown is only built when
        a span is emitted, the request is slow enough to log, or the
        caller asked for it (``debug_timings``), keeping the fully
        disabled path free of the dict work.  ``rtrace`` is None exactly
        when none of those can happen.
        """
        if rtrace is None:
            return None
        slow = (
            self.slow_log is not None
            and wall_s * 1e3 >= self.config.slow_threshold_ms
        )
        if self.trace_sink is None and not slow and not need_timings:
            return None
        timings = rtrace.timings(wall_s)
        if self.trace_sink is not None:
            with trace_scope(rtrace.context, self.trace_sink):
                record_span(
                    "serve.request",
                    rtrace.context,
                    start=rtrace.started_at,
                    wall_s=wall_s,
                    meta={
                        "endpoint": endpoint or "unknown",
                        "status": status,
                        "source": source,
                        "timings": timings,
                    },
                    error=error,
                )
        if slow:
            self.slow_log.emit(
                {
                    "type": "slow_request",
                    "ts": rtrace.started_at,
                    "trace_id": rtrace.context.trace_id,
                    "endpoint": endpoint or "unknown",
                    "status": status,
                    "source": source,
                    "total_s": wall_s,
                    "timings": timings,
                }
            )
        return timings

    @staticmethod
    def _inject_debug(
        response: bytes, rtrace: RequestTrace, timings: dict, wall_s: float
    ) -> bytes:
        """Attach the ``debug`` section to a success body.

        Happens *after* cache/coalescer handling, on a decoded copy, so
        the canonical cached bytes stay bit-identical across requests
        that do and do not ask for timings.
        """
        document = decode_json(response)
        document["debug"] = {
            "trace_id": rtrace.context.trace_id,
            "total_s": wall_s,
            "timings": timings,
        }
        return encode_json(document)

    async def exchange(
        self,
        method: str,
        path: str,
        body: bytes,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, str, bytes, dict[str, str]]:
        """Route one HTTP exchange; returns (status, ctype, body, headers).

        ``headers`` (optional) carries the lower-cased request headers;
        a valid W3C ``traceparent`` among them is adopted as the
        request's remote parent.  The returned header dict carries
        ``X-Repro-Trace-Id`` on every ``/v1`` response and
        ``Retry-After`` on every shed (503) response.

        ``GET /metrics`` and ``GET /healthz*`` are *scrape* traffic:
        they are observed in their own metric families
        (``repro_serve_scrapes_total`` / ``repro_serve_scrape_seconds``)
        and never land in the request-latency histogram the adaptive
        admission estimator reads.
        """
        t0 = time.perf_counter()
        path = path.split("?", 1)[0]
        if method == "GET" and path in ("/metrics", "/"):
            payload = render_prometheus(_metrics.get_registry()).encode("utf-8")
            _metrics.record(
                ("repro_serve_scrapes_total", ("metrics", "200"), 1.0),
                ("repro_serve_scrape_seconds", ("metrics",), time.perf_counter() - t0),
            )
            return 200, PROMETHEUS_CONTENT_TYPE, payload, {}
        if method == "GET" and path in ("/healthz", "/healthz/live", "/healthz/ready"):
            status, ctype, payload = self._healthz(path)
            _metrics.record(
                ("repro_serve_scrapes_total", ("healthz", str(status)), 1.0),
                ("repro_serve_scrape_seconds", ("healthz",), time.perf_counter() - t0),
            )
            return status, ctype, payload, {}
        endpoint = None
        if path.startswith("/v1/"):
            endpoint = path[len("/v1/"):]
        parent, trace_id = request_ids((headers or {}).get("traceparent"))
        out_headers = {"X-Repro-Trace-Id": trace_id}
        if endpoint is None:
            return 404, "application/json", error_body(
                None, "not-found", f"unknown path {path!r}"
            ), out_headers
        if method != "POST":
            return 405, "application/json", error_body(
                endpoint, "bad-request",
                f"{endpoint} requires POST, got {method}",
            ), out_headers
        # Stage timings are collected only for a request whose span,
        # slow-log record or debug_timings answer reads them.
        rtrace = None
        if self.trace_sink is not None or self.slow_log is not None:
            rtrace = RequestTrace.begin(parent, trace_id, t0)
        want_debug = False
        source, error, fault = "error", None, None
        try:
            if self.drain_state.draining:
                _metrics.record(("repro_serve_shed_total", (endpoint, "draining"), 1.0))
                raise ShedError(
                    "draining",
                    "the server is draining for shutdown and accepts "
                    "no new work",
                    retry_after_s=max(1.0, self.config.drain_timeout_s),
                )
            payload = decode_json(body)
            del body
            want_debug = (
                isinstance(payload, dict)
                and payload.get("debug_timings") is True
            )
            if want_debug and rtrace is None:
                rtrace = RequestTrace.begin(parent, trace_id, t0)
            handling = self.handle_request(
                endpoint,
                payload,
                elapsed_s=time.perf_counter() - t0,
                trace=rtrace,
            )
            # handle_request drops the document once it is parsed.
            del payload
            if self.trace_sink is None:
                status, response, source = await handling
            else:
                with trace_scope(rtrace.context, self.trace_sink):
                    status, response, source = await handling
            self.requests_served += 1
        except ProtocolError as exc:
            status, error = exc.status, f"ProtocolError: {exc}"
            category = "not-found" if status == 404 else "bad-request"
            response = error_body(endpoint, category, str(exc))
        except ShedError as exc:
            status, source, error = exc.status, "shed", f"ShedError: {exc}"
            response = error_body(
                endpoint, exc.category, str(exc), retry_after_s=exc.retry_after_s
            )
            out_headers["Retry-After"] = exc.retry_after_header
        except ServeFault as exc:
            status, error, fault = exc.status, f"ServeFault: {exc}", exc
            response = error_body(endpoint, exc.category, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            status, error = 500, f"{type(exc).__name__}: {exc}"
            response = error_body(endpoint, "internal", error)
        # The one exit of a /v1 request: its metrics, span and slow log.
        wall_s = time.perf_counter() - t0
        label = endpoint or "unknown"
        quarantined = () if fault is None else (
            ("repro_serve_quarantined_total", (label, fault.category), 1.0),
        )
        _metrics.record(
            ("repro_serve_requests_total", (label, str(status)), 1.0),
            ("repro_serve_request_seconds", (label, source), wall_s,
             {"trace_id": trace_id}),
            *quarantined,
        )
        if source in ("cold", "batched", "inflight"):
            # Feed the AIMD estimator from the compute path only:
            # memoized answers say nothing about kernel capacity.
            self.admission.observe(endpoint, wall_s)
        debug = want_debug and error is None
        timings = self._finish_request(
            rtrace, endpoint, status=status, source=source,
            wall_s=wall_s, error=error, need_timings=debug,
        )
        if debug:
            response = self._inject_debug(response, rtrace, timings, wall_s)
        return status, "application/json", response, out_headers

    # -- the socket layer ----------------------------------------------

    def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ):
        """Connection callback: the coalescers hold their idle flush for
        the connection's request until :meth:`_handle_client` has read
        it."""
        for coalescer in self.coalescers.values():
            coalescer.read_started()
        return self._handle_client(reader, writer)

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader):
        """``(method, target, headers, content_length, body)`` of one
        request, or None for a malformed request line.  Header names are
        lower-cased; ``body`` is None when ``content_length`` is negative
        or exceeds MAX_BODY_BYTES, and then nothing more is read."""
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        request_headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            request_headers[name.strip().lower()] = value.strip()
        try:
            content_length = int(request_headers.get("content-length", "0"))
        except ValueError:
            content_length = 0
        body = None
        if 0 <= content_length <= MAX_BODY_BYTES:
            body = (
                await reader.readexactly(content_length)
                if content_length
                else b""
            )
        return method, target, request_headers, content_length, body

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await self._read_request(reader)
            finally:
                for coalescer in self.coalescers.values():
                    coalescer.read_finished()
            if request is None:
                return
            method, target, request_headers, content_length, body_in = request
            headers: dict[str, str] = {}
            if body_in is None and content_length < 0:
                status, ctype, body = 400, "application/json", error_body(
                    None, "bad-request",
                    f"Content-Length must be >= 0, got {content_length}",
                )
            elif body_in is None:
                status, ctype, body = 413, "application/json", error_body(
                    None, "bad-request",
                    f"body of {content_length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit",
                )
            else:
                self._active_exchanges += 1
                try:
                    exchanging = self.exchange(
                        method, target, body_in, request_headers
                    )
                    # The exchange holds the body until it is decoded.
                    del request, body_in
                    status, ctype, body, headers = await exchanging
                finally:
                    self._active_exchanges -= 1
            reason = _REASONS.get(status, "Unknown")
            extra = "".join(
                f"{name}: {value}\r\n" for name, value in headers.items()
            )
            writer.write(
                (
                    f"HTTP/1.1 {status} {reason}\r\n"
                    f"Content-Type: {ctype}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"{extra}"
                    "Connection: close\r\n\r\n"
                ).encode("latin-1")
                + body
            )
            await writer.drain()
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):  # pragma: no cover - client went away mid-exchange
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def start(self) -> asyncio.base_events.Server:
        """Bind and start accepting connections; returns the server.

        Raises :class:`OSError` (``EADDRINUSE``) when the port is
        taken — the CLI turns that into a one-line actionable error.
        """
        self._server = await asyncio.start_server(
            self._accept, host=self.config.host, port=self.config.port
        )
        return self._server

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — useful with ``port=0``."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    async def serve_forever(self) -> None:
        """``start()`` (if needed) then serve until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        for coalescer in self.coalescers.values():
            await coalescer.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.trace_sink is not None:
            self.trace_sink.close()
        if self.slow_log is not None:
            self.slow_log.close()

    async def shutdown(self, drain_timeout_s: float | None = None) -> bool:
        """Graceful drain: finish in-flight work, then close the socket.

        The sequence (see ``docs/SERVING.md``):

        1. flip :class:`~repro.serve.resilience.DrainState` — new POSTs
           are shed with ``503 draining`` and ``/healthz/ready`` goes
           red, while ``/healthz/live`` stays green;
        2. stop accepting new connections (close the listening socket);
        3. flush every lingering coalescer group and wait for in-flight
           exchanges to finish, up to ``drain_timeout_s``.

        Returns True when the drain completed cleanly (no exchange was
        abandoned), False on timeout.  Idempotent: a second call just
        waits alongside the first.
        """
        if drain_timeout_s is None:
            drain_timeout_s = self.config.drain_timeout_s
        self.drain_state.begin_drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for coalescer in self.coalescers.values():
            await coalescer.drain()
        _metrics.record(("repro_serve_drain_total", ("flushed",), 1.0))
        waited = 0.0
        while self._active_exchanges > 0 and waited < drain_timeout_s:
            await asyncio.sleep(0.01)
            waited += 0.01
        clean = self._active_exchanges == 0
        _metrics.record(
            ("repro_serve_drain_total", ("completed" if clean else "timeout",), 1.0)
        )
        return clean


@dataclass
class ServerThread:
    """A characterization server on a daemon thread (tests, benches).

    Examples
    --------
    >>> handle = ServerThread(ServeConfig(port=0))  # ephemeral port
    >>> host, port = handle.start()
    >>> isinstance(port, int) and port > 0
    True
    >>> handle.stop()
    """

    config: ServeConfig = field(default_factory=ServeConfig)
    server: CharacterizationServer | None = None
    _loop: asyncio.AbstractEventLoop | None = None
    _thread: threading.Thread | None = None

    def start(self, timeout_s: float = 10.0) -> tuple[str, int]:
        """Start the loop + server; returns the bound (host, port)."""
        ready = threading.Event()
        failure: list[BaseException] = []

        def _run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            self.server = CharacterizationServer(self.config)
            try:
                loop.run_until_complete(self.server.start())
            except BaseException as exc:  # bind failure -> caller
                failure.append(exc)
                ready.set()
                return
            ready.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.server.stop())
                loop.close()

        self._thread = threading.Thread(
            target=_run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not ready.wait(timeout_s):  # pragma: no cover - defensive
            raise RuntimeError("server thread did not start in time")
        if failure:
            raise failure[0]
        assert self.server is not None
        return self.server.address

    def stop(self, timeout_s: float = 10.0) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout_s)
        self._loop = None
        self._thread = None
