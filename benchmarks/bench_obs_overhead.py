"""Overhead of the repro.obs instrumentation (ISSUE acceptance: <2%).

Two claims, measured on the batched ensemble pipeline — the hottest
instrumented path, where a per-iteration sampling hook sits inside the
Sinkhorn loop:

* **disabled** — with no active recorder the instrumented library runs
  within 2% of its own runtime (the no-op span path is one contextvar
  read; the per-iteration occupancy sampling is skipped entirely).
  Measured as the relative gap between repeated timings of the same
  call, which bounds instrumentation cost plus timing noise together.
* **enabled** — a full recording session stays cheap in absolute terms
  (it collects a handful of spans per pipeline call, not per element).

The microbenchmark additionally pins the per-span no-op cost so the
budget arithmetic (spans-per-run x cost-per-span / runtime) is visible
in the persisted results file.

A third claim covers the metrics registry (``repro.obs.metrics``):
with collection disabled (the default), ``record(...)`` returns at its
gate, and its cost on a scalar Sinkhorn call — the smallest
instrumented kernel, hence the worst case in relative terms — stays
below 1% of the kernel runtime.
"""

from __future__ import annotations

import asyncio
import json
import tempfile
import time
import timeit

import numpy as np

from repro.batch import characterize_ensemble
from repro.obs.trace_context import RequestTrace, request_ids
from repro.obs import metrics as obs_metrics
from repro.obs import recording, span

N_SLICES, N_TASKS, N_MACHINES = 64, 8, 8
REPEATS = 7


def _stack() -> np.ndarray:
    rng = np.random.default_rng(42)
    return rng.uniform(0.1, 10.0, size=(N_SLICES, N_TASKS, N_MACHINES))


def _best_time(fn, *args) -> float:
    """Best-of-REPEATS wall time — the standard noise-robust estimator."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def test_disabled_overhead_under_2_percent(write_result):
    """ISSUE acceptance: disabled-recorder overhead < 2% on the batched
    pipeline, recorded in benchmarks/results/."""
    stack = _stack()
    characterize_ensemble(stack)  # warm caches/JIT'd ufunc paths

    # Interleave two timing sets of the *identical* disabled-path call;
    # their gap bounds timing noise.  The instrumentation cost itself is
    # bounded separately by the per-span microbenchmark below.
    base_a = _best_time(characterize_ensemble, stack)
    base_b = _best_time(characterize_ensemble, stack)
    noise_pct = abs(base_a - base_b) / min(base_a, base_b) * 100

    # Per-span no-op cost: one contextvar read + returning the shared
    # singleton, measured directly.
    n_iter = 200_000
    noop_s = timeit.timeit(lambda: span("bench.noop"), number=n_iter) / n_iter

    # Spans the pipeline would open per call when enabled (counted, not
    # guessed, from an actual recording).
    with recording() as rec:
        characterize_ensemble(stack)
    spans_per_run = len(rec.events)

    disabled_s = min(base_a, base_b)
    budget_pct = spans_per_run * noop_s / disabled_s * 100

    def _enabled_run() -> None:
        with recording():
            characterize_ensemble(stack)

    enabled_s = _best_time(_enabled_run)
    enabled_pct = (enabled_s - disabled_s) / disabled_s * 100

    # Metrics-registry disabled path, measured on the *scalar* Sinkhorn
    # kernel — the smallest instrumented unit, hence the worst case in
    # relative terms.  sinkhorn_knopp records its run's three updates in
    # one gated call; while collection is disabled that call is a single
    # early return.
    from repro.normalize.sinkhorn import sinkhorn_knopp

    assert not obs_metrics.metrics_enabled()
    matrix = np.random.default_rng(7).uniform(0.5, 10.0, size=(24, 8))
    sinkhorn_knopp(matrix)  # warm caches
    kernel_s = _best_time(sinkhorn_knopp, matrix)
    disabled_record_s = timeit.timeit(
        lambda: obs_metrics.record(
            ("repro_sinkhorn_runs_total", ("scalar", "true"), 1.0),
            ("repro_sinkhorn_iterations", ("scalar",), 7),
            ("repro_sinkhorn_exit_residual", ("scalar",), 1e-9),
        ),
        number=n_iter,
    ) / n_iter
    feed_pct = disabled_record_s / kernel_s * 100

    # Serve-path tracing with span emission *disabled* (no trace_path,
    # no slow log): the only per-request cost is
    # ``trace_context.request_ids`` — the very call
    # CharacterizationServer.exchange makes to read the request's
    # ``traceparent`` and mint the trace id for the always-on
    # ``X-Repro-Trace-Id`` header.  Stage timings (a RequestTrace) are
    # collected only for a request whose span, slow-log record or
    # ``debug_timings`` answer reads them; their cost (begin + two
    # stage adds, the measurement this gate used before) is reported
    # alongside.  Both are one timeit run each.  The preamble is gated
    # at 0.1% of a compute request under the default serving config;
    # the cache-hit time is reported for context.
    serve_noop_s = timeit.timeit(
        lambda: request_ids(None), number=50_000
    ) / 50_000

    def _request_trace() -> None:
        rtrace = RequestTrace.begin(*request_ids(None))
        rtrace.add("cache_s", 1e-4)
        rtrace.add("kernel_s", 1e-3)

    rtrace_s = timeit.timeit(_request_trace, number=50_000) / 50_000
    hit_s, compute_s, bit_identical, traces_built = _serve_hot_path()
    serve_pct = serve_noop_s / compute_s * 100

    lines = [
        f"repro.obs overhead on characterize_ensemble"
        f"({N_SLICES}, {N_TASKS}, {N_MACHINES})",
        f"disabled pipeline (best of {REPEATS})  : {disabled_s * 1e3:8.2f} ms",
        f"timing noise between repeats         : {noise_pct:8.2f} %",
        f"no-op span cost                      : {noop_s * 1e9:8.1f} ns/span",
        f"spans per enabled run                : {spans_per_run:8d}",
        f"disabled budget (spans x noop/run)   : {budget_pct:8.4f} %"
        f"  (acceptance < 2%)",
        f"enabled recording session            : {enabled_s * 1e3:8.2f} ms"
        f"  ({enabled_pct:+.1f}% vs disabled)",
        f"scalar sinkhorn_knopp(24x8)          : {kernel_s * 1e6:8.1f} us",
        f"disabled record (3 sinkhorn updates) : "
        f"{disabled_record_s * 1e9:8.1f} ns/call",
        f"disabled metrics feed (1 call/run)   : {feed_pct:8.4f} %"
        f"  (acceptance < 1%)",
        f"serve cache-hit request              : {hit_s * 1e6:8.1f} us",
        f"serve compute request (default cfg)  : "
        f"{compute_s * 1e6:8.1f} us",
        f"disabled trace bookkeeping           : "
        f"{serve_noop_s * 1e9:8.1f} ns/request",
        f"RequestTrace bookkeeping (if read)   : "
        f"{rtrace_s * 1e9:8.1f} ns/request"
        f"  ({rtrace_s / compute_s * 100:.4f} %)",
        f"disabled serve tracing overhead      : {serve_pct:8.4f} %"
        f"  (acceptance <= 0.1% of a compute request)",
        f"RequestTraces built, untraced server : {traces_built:8d}",
        f"traced vs untraced response bytes    : "
        f"{'bit-identical' if bit_identical else 'DIVERGED'}",
    ]
    write_result(
        "obs_overhead",
        "\n".join(lines),
        data={
            "shape": [N_SLICES, N_TASKS, N_MACHINES],
            "disabled_s": disabled_s,
            "noise_pct": noise_pct,
            "noop_span_ns": noop_s * 1e9,
            "spans_per_run": spans_per_run,
            "disabled_budget_pct": budget_pct,
            "enabled_s": enabled_s,
            "enabled_pct": enabled_pct,
            "scalar_sinkhorn_s": kernel_s,
            "disabled_record_ns": disabled_record_s * 1e9,
            "disabled_metrics_feed_pct": feed_pct,
            "serve_cache_hit_s": hit_s,
            "serve_compute_s": compute_s,
            "serve_trace_bookkeeping_ns": serve_noop_s * 1e9,
            "serve_request_trace_ns": rtrace_s * 1e9,
            "serve_disabled_tracing_pct": serve_pct,
            "serve_traced_bit_identical": bit_identical,
            "serve_untraced_request_traces": traces_built,
        },
    )

    # The acceptance claim: instrumentation cost with recording disabled
    # is bounded by spans-per-run x per-span no-op cost, far below 2%.
    assert budget_pct < 2.0, f"no-op span budget {budget_pct:.3f}% >= 2%"
    # And the no-op fast path itself stays sub-microsecond.
    assert noop_s < 5e-6, f"no-op span cost {noop_s * 1e9:.0f} ns too high"
    # Registry acceptance: the gated metrics feed costs < 1% of a scalar
    # Sinkhorn call while collection is disabled (the default).
    assert feed_pct < 1.0, f"disabled metrics feed {feed_pct:.4f}% >= 1%"
    assert disabled_record_s < 2e-6
    # Serve-path acceptance: with no trace_path the per-request tracing
    # bookkeeping costs <= 0.1% of a compute request under the default
    # config, and span emission never changes the served bytes.
    assert serve_pct <= 0.1, f"serve tracing overhead {serve_pct:.4f}% > 0.1%"
    # The preamble is the whole cost only while the untraced server
    # builds no RequestTrace; a regression there must fail this gate.
    assert traces_built == 0, f"untraced server built {traces_built} traces"
    assert bit_identical, "traced and untraced responses diverged"


def _serve_hot_path() -> tuple[float, float, bool, int]:
    """(cache-hit s, cold compute s, traced == untraced body bytes,
    RequestTraces the untraced server built).

    Both times are in-process exchanges under the *default* serving
    config (coalescing linger included — that is the deployed request
    path).  The compute time is the cold-path denominator for the 0.1%
    gate; the cache hit is the fastest possible request, reported for
    context.
    """
    from repro.serve import CharacterizationServer, ServeConfig

    matrix = np.random.default_rng(3).uniform(0.5, 10.0, (12, 8))
    body = json.dumps({"matrix": matrix.tolist()}).encode("utf-8")

    async def _measure(trace_path=None):
        server = CharacterizationServer(
            ServeConfig(adaptive=False, trace_path=trace_path)
        )
        try:
            # Cold compute: distinct matrices so every request runs the
            # kernel (a batch of one after the linger window).
            rng = np.random.default_rng(11)
            compute = float("inf")
            for _ in range(REPEATS):
                fresh = json.dumps(
                    {"matrix": rng.uniform(0.5, 10.0, (12, 8)).tolist()}
                ).encode("utf-8")
                t0 = time.perf_counter()
                await server.exchange("POST", "/v1/characterize", fresh)
                compute = min(compute, time.perf_counter() - t0)
            # Cache hit: the same body over and over.
            await server.exchange("POST", "/v1/characterize", body)  # warm
            hit = float("inf")
            answer = b""
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                for _ in range(50):
                    _, _, answer, _ = await server.exchange(
                        "POST", "/v1/characterize", body
                    )
                hit = min(hit, (time.perf_counter() - t0) / 50)
            return hit, compute, answer
        finally:
            await server.stop()

    built = []
    init = RequestTrace.__init__

    def _counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    RequestTrace.__init__ = _counting_init
    try:
        hit_s, compute_s, untraced_body = asyncio.run(_measure())
    finally:
        RequestTrace.__init__ = init
    with tempfile.TemporaryDirectory() as tmp:
        _, _, traced_body = asyncio.run(_measure(f"{tmp}/spans.jsonl"))
    return hit_s, compute_s, traced_body == untraced_body, len(built)


def test_enabled_recording_collects_without_blowup(write_result):
    """Enabled-mode sanity: a recording session on the scalar pipeline
    collects bounded span counts (per call, not per matrix element)."""
    stack = _stack()
    with recording() as rec:
        characterize_ensemble(stack)
    # One ensemble span + one batched-sinkhorn span + one batched SVD —
    # a handful of events regardless of N.
    assert 1 <= len(rec.events) <= 10
    names = {e.name for e in rec.events}
    assert "batch.characterize_ensemble" in names
    assert "sinkhorn.batched" in names
    write_result(
        "obs_enabled_spans",
        f"({N_SLICES}, {N_TASKS}, {N_MACHINES}) ensemble run: "
        f"{len(rec.events)} spans ({', '.join(sorted(names))}); "
        f"event count is O(calls), not O(matrix elements)",
    )
