"""The three workloads of the suite, their set-up probes and answer checks.

Every workload makes its inputs from the seed with its own generator, so
the program receives only the generated matrices.  Program functions
are looked up through their modules at call time (``repro.batch.
characterize_ensemble(...)``), which is where :mod:`spans` wraps them
in a traced run.

One *operation* per workload sets what ``latency_*`` and
``members_per_s`` mean (README.md): a served request, a library call or
a kernel call.  Operations are grouped into *blocks* of equal work, and
the timings are taken over the quicker half of the blocks (see
:func:`put_timing`).  Answer checks run outside the timed operations;
every wrong answer counts as a failure.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import re
import statistics
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import LAYERS, UNATTRIBUTED

#: Copy of ``tests/batch/test_golden_spec.GOLDEN`` and ``PIN_ATOL``: the
#: SPEC measures and standard-form iteration counts the library pins.
GOLDEN = {
    "cint2006rate": {
        "mph": 0.8199921650161445,
        "tdh": 0.8999959005995641,
        "tma": 0.07000576281132756,
        "iterations": 5,
    },
    "cfp2006rate": {
        "mph": 0.829997320954615,
        "tdh": 0.9099996166264752,
        "tma": 0.17235520101788454,
        "iterations": 8,
    },
}
PIN_ATOL = 1e-9

#: Input sizes.  ``smoke`` exercises every code path in a few seconds
#: for the suite's own tests; only ``full`` numbers are comparable.
SCALES = {
    "full": {
        "setups": 5,
        "random_per_shape": 12,
        "ensemble": ((256, 8, 8), (64, 32, 16), (256, 16, 8)),
        "input_sets": 3,
        "store_members": 512,
        "budget_mb": 0.5,
        "blocks": {"serve_mix": 32, "library_scalar": 10, "ensemble_store": 9},
    },
    "smoke": {
        "setups": 1,
        "random_per_shape": 1,
        "ensemble": ((64, 8, 8), (16, 32, 16), (64, 16, 8)),
        "input_sets": 2,
        "store_members": 256,
        "budget_mb": 0.25,
        "blocks": {"serve_mix": 4, "library_scalar": 2, "ensemble_store": 2},
    },
}

#: The served mix, one burst of 32 requests: (endpoint, requests, exact
#: resubmissions, perturbed resubmissions).  60/25/15 characterize/
#: standardize/recommend-heuristic, about 30% exact and 30% perturbed
#: resubmissions, as in ``repro.serve.loadgen.generate_trace``.
SERVE_MIX = (
    ("characterize", 19, 6, 6),
    ("standardize", 8, 2, 3),
    ("recommend-heuristic", 5, 2, 1),
)
ENDPOINTS = tuple(endpoint for endpoint, *_ in SERVE_MIX)
BURST_WIDTH = sum(n for _, n, _, _ in SERVE_MIX)


@dataclass
class Run:
    """One workload run: its arguments and where it may write."""

    workload: str
    seed: int
    seconds: float
    scale: dict
    work: Path
    src: Path
    tracer: object = None  # spans.Tracer in a traced run

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def traced(self, index: int) -> bool:
        """Traced runs alternate traced and untraced operations, so the
        untraced half measures the tracing overhead."""
        return self.tracer is not None and index % 2 == 1

    def timed(self, traced: bool, call):
        """``(call(), start, seconds)``; spans recorded when ``traced``."""
        if traced:
            self.tracer.install()
        start = perf_counter()
        try:
            result = call()
        finally:
            end = perf_counter()
            if traced:
                self.tracer.uninstall()
                self.tracer.window(start, end)
        return result, start, end - start

    @property
    def block_ops(self) -> int:
        """Operations (bursts, corpus passes, cycles) per block."""
        return self.scale["blocks"][self.workload]


@dataclass
class Outcome:
    """What a workload reports: metric values, a note on each, checks."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def put(self, name: str, value: float, note: str = "") -> None:
        self.metrics[name] = float(value)
        if note:
            self.notes[name] = note


# -- statistics ----------------------------------------------------------


def _rank(n: int, q: float) -> int:
    return max(1, math.ceil(q / 100 * n))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    return float(ordered[_rank(len(ordered), q) - 1])


def p50_ms(values_s) -> float:
    """Median in ms, or 0 when the layer never ran."""
    return percentile(values_s, 50) * 1e3 if values_s else 0.0


def quicker_half(values: list, key=None) -> list:
    """The lower half of ``values`` by ``key`` (the middle one included)."""
    return sorted(values, key=key)[: (len(values) + 1) // 2]


_PROBE_STACK = np.random.default_rng(12345).uniform(0.5, 10.0, (32, 8, 8))

#: :func:`host_probe` on the reference host (a 2-vCPU Xeon VM at
#: 2.0 GHz, Python 3.11, numpy 2.4) at its usual speed.
REFERENCE_PROBE_S = 0.00080


def host_probe() -> float:
    """Seconds of the fastest of three runs of a fixed routine.

    Small-array numpy scaling and an SVD, then Python dict work: the
    kind of work the program does, but none of the program's code, so
    no change to the program can change this time.  It measures the
    host's speed.
    """
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        x = _PROBE_STACK.copy()
        for _ in range(12):
            x /= x.sum(axis=2, keepdims=True)
            x /= x.sum(axis=1, keepdims=True)
        np.linalg.svd(x, compute_uv=False)
        counts = {}
        for i in range(3000):
            counts[i % 97] = counts.get(i % 97, 0) + i * 0.5
        best = min(best, perf_counter() - t0)
    return best


class Blocks:
    """Untraced operations grouped into blocks of ``size`` units of work.

    A unit is what the workload repeats (a burst, a pass over the corpus,
    a cycle of kernel calls), so every complete block does the same work
    and its time measures the host's speed while it ran.  After each
    block, outside its time, :func:`host_probe` runs.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        #: (seconds, members, latencies, probe seconds) per block
        self.done: list[tuple[float, int, list[float], float]] = []
        self._units = 0
        self._open = (0.0, 0, [])

    def add(self, seconds: float, members: int, latencies) -> None:
        spent, n, lat = self._open
        self._open = (spent + seconds, n + members, lat + list(latencies))

    def end_unit(self) -> None:
        self._units += 1
        if self._units == self.size:
            self.done.append((*self._open, host_probe()))
            self._units, self._open = 0, (0.0, 0, [])

    def complete(self) -> list:
        """The complete blocks, or the one partial block of a run too
        short to complete any."""
        if self.done or not self._open[1]:
            return self.done
        return [(*self._open, host_probe())]


def put_timing(out: Outcome, blocks: Blocks, what: str, *, scaled: bool) -> None:
    """``latency_p50_ms``, ``latency_p90_ms`` and ``members_per_s`` over
    the quicker half of the blocks; at the reference host's speed when
    ``scaled``.

    The host's speed changes by up to 2x for seconds at a time and by
    10-20% over minutes (README.md, Blocks).  Within a run, the quicker
    half of equal-work blocks follows its usual speed rather than how
    long its slow spells lasted; across runs, the probe time, taken the
    same way, scales the times to :data:`REFERENCE_PROBE_S`.  Only
    computation follows the probe: a workload whose time is mostly
    waiting is reported as timed.  A cost that lands in fewer than half
    the blocks (a periodic pause) does not show here.
    """
    complete = blocks.complete()
    kept = quicker_half(complete, key=lambda block: block[0])
    probe_s = statistics.median(quicker_half([block[3] for block in complete]))
    speed = REFERENCE_PROBE_S / probe_s
    scale = speed if scaled else 1.0
    latencies = [x for _s, _n, lat, _p in kept for x in lat]
    n = len(latencies)
    p50, p90 = percentile(latencies, 50) * 1e3, percentile(latencies, 90) * 1e3
    rate = sum(block[1] for block in kept) / sum(block[0] for block in kept)
    share = f"quicker {len(kept)} of {len(complete)} blocks"
    timed = "; {:.4g} as timed" if scaled else ""
    out.put("latency_p50_ms", p50 * scale, f"n={n} {what}, {share}" + timed.format(p50))
    out.put("latency_p90_ms", p90 * scale,
            f"n={n}, {n - _rank(n, 90)} samples beyond" + timed.format(p90))
    out.put("members_per_s", rate / scale, share + timed.format(rate))
    out.extra["latency_p99_ms"] = percentile(latencies, 99) * 1e3 * scale
    out.extra["host_speed"] = speed
    out.extra["scaled"] = scaled


def overhead_pct(traced: list[float], untraced: list[float]) -> float:
    """Median traced operation time over the untraced one, in percent
    (0 when a run was too short to trace any operation)."""
    if not traced or not untraced:
        return 0.0
    return (statistics.median(traced) / statistics.median(untraced) - 1) * 100


def put_attribution(out: Outcome, seconds: dict, total: float, what: str) -> None:
    """Each layer's share of the traced time, and the named total."""
    for layer in LAYERS:
        out.put(f"{layer}.self_share", seconds.get(layer, 0.0) / total)
    missing = seconds.get(UNATTRIBUTED, 0.0) / total
    out.put("unattributed.share", missing)
    out.put("trace.attributed_share", 1 - missing, f"of {total:.3f} s {what}")


def put_tracer_status(out: Outcome, tracer) -> None:
    out.put("trace.absent_hooks", len(tracer.absent))
    out.extra["hooks"] = tracer.status


def put_setup(out: Outcome, samples: list[float]) -> None:
    out.put("setup_s", statistics.median(samples),
            "median of " + " ".join(f"{s:.3f}" for s in samples))


def peak_heap_mb(work) -> float:
    """tracemalloc peak of ``work()``, in MB, in an untimed pass.

    A collection first resets the collector's counters, so no collection
    falls into the pass at a point that depends on what ran before.
    """
    gc.collect()
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def same_arrays(result, reference, names) -> bool:
    return all(
        np.array_equal(getattr(result, n), getattr(reference, n)) for n in names
    )


ENSEMBLE_FIELDS = ("mph", "tdh", "tma", "iterations", "converged")


# -- Prometheus text -----------------------------------------------------


_SAMPLE = re.compile(r"^([A-Za-z_:][\w:]*)(?:\{(.*)\})?\s+(\S+)")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> list[tuple[str, dict, float]]:
    samples = []
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        match = _SAMPLE.match(line.split(" # ", 1)[0])
        if match:
            labels = dict(_LABEL.findall(match.group(2) or ""))
            samples.append((match.group(1), labels, float(match.group(3))))
    return samples


def metric_sum(samples, name: str, **labels) -> float:
    return sum(
        value
        for n, have, value in samples
        if n == name and all(have.get(k) == v for k, v in labels.items())
    )


def metric_delta(before, after, name: str, **labels) -> float:
    return metric_sum(after, name, **labels) - metric_sum(before, name, **labels)


def registry_samples() -> list:
    """The in-process metrics registry, read the way ``/metrics`` is."""
    from repro.obs import get_registry, render_prometheus

    return parse_prometheus(render_prometheus(get_registry()))


# -- set-up probes -------------------------------------------------------


def probe(workload: str, seed: int, scale: dict, work: Path) -> float:
    """One set-up from a fresh interpreter: imports, build, warm-up.

    Runs in a child process (``run.py --probe``).  Returns the seconds
    spent generating its inputs, which the parent subtracts.
    """
    rng = np.random.default_rng([seed, 99])
    t0 = perf_counter()
    if workload == "serve_mix":
        sent = requests(ServeTraffic(rng).burst())
        input_s = perf_counter() - t0
        from repro.serve import CharacterizationServer, ServeConfig

        server = CharacterizationServer(ServeConfig())
        answers = asyncio.run(fire(server, sent))
        if any(status != 200 for status, _a, _d in answers):
            raise RuntimeError("a warm-up request failed")
    elif workload == "library_scalar":
        matrix = rng.uniform(0.5, 10.0, (12, 5))
        input_s = perf_counter() - t0
        import repro

        repro.characterize(matrix)
    elif workload == "ensemble_store":
        cold = rng.uniform(0.5, 10.0, (64, 8, 8))
        base = rng.uniform(0.5, 10.0, (64, 16, 8))
        stack = rng.uniform(0.5, 10.0, (scale["store_members"], 8, 8))
        input_s = perf_counter() - t0
        import repro.batch
        import repro.shard

        repro.batch.characterize_ensemble(cold)
        start = repro.batch.standardize_batched(base)
        repro.batch.standardize_batched(base * 1.001, warm_start=start)
        store = repro.shard.write_store(work / "store", stack)
        repro.shard.characterize_store(
            store, memory_budget_mb=scale["budget_mb"], n_jobs=1
        )
    else:
        raise ValueError(f"no set-up probe for {workload}")
    return input_s


# -- serve_mix -----------------------------------------------------------


def matrix_body(matrix, **options) -> bytes:
    return json.dumps({"matrix": matrix.tolist(), **options}).encode()


def canonical_body(body: bytes) -> bytes:
    """A success body without its per-request ``debug`` section, in the
    server's canonical encoding."""
    document = json.loads(body)
    document.pop("debug", None)
    return (
        json.dumps(document, sort_keys=True, separators=(",", ":"), allow_nan=False)
        + "\n"
    ).encode()


class ServeTraffic:
    """Bursts of the :data:`SERVE_MIX`, each drawing on the one before.

    Slot ``i`` of every burst has the same endpoint and kind.  A fresh
    slot draws a new 8x8 matrix; a perturbed slot scales its slot of the
    previous burst by 1 +/- 2%; an exact resubmission repeats a computed
    (fresh or perturbed) request of its endpoint from the previous burst,
    so it is a cache hit.  The first burst is all fresh.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.slots = []  # (endpoint, kind, slot it resubmits)
        for endpoint, n, exact, perturbed in SERVE_MIX:
            first = len(self.slots)
            computed = list(range(first + exact, first + n))
            kinds = ["exact"] * exact + ["perturbed"] * perturbed
            kinds += ["fresh"] * (n - exact - perturbed)
            for k, kind in enumerate(kinds):
                source = computed[k % len(computed)] if kind == "exact" else first + k
                self.slots.append((endpoint, kind, source))
        self.previous = None

    def burst(self) -> list[tuple[str, np.ndarray]]:
        rng, previous = self.rng, self.previous
        burst = []
        for endpoint, kind, source in self.slots:
            if previous is None or kind == "fresh":
                matrix = rng.uniform(0.5, 10.0, (8, 8))
            elif kind == "perturbed":
                jitter = 1.0 + rng.uniform(-0.02, 0.02, (8, 8))
                matrix = previous[source][1] * jitter
            else:
                matrix = previous[source][1]
            burst.append((endpoint, matrix))
        self.previous = burst
        return burst


def requests(burst, **options) -> list[tuple[str, bytes]]:
    """(path, body) of every request of a burst."""
    return [(f"/v1/{ep}", matrix_body(m, **options)) for ep, m in burst]


async def fire(server, sent):
    """Send (path, body) requests at once; [(status, answer, done)]."""

    async def one(path, body):
        status, _ct, answer, _h = await server.exchange("POST", path, body)
        return status, answer, perf_counter()

    return await asyncio.gather(*(one(path, body) for path, body in sent))


async def reference_bodies(items) -> dict:
    """(endpoint, body) → answer bytes from a fresh in-process server.

    Runs in batches of 64, unlike the measured bursts, so the check also
    holds the service to batch-composition independence.
    """
    from repro.serve import CharacterizationServer, ServeConfig

    server = CharacterizationServer(ServeConfig(enable_metrics=False))
    unique = list(dict.fromkeys(items))
    answers = {}
    for i in range(0, len(unique), 64):
        chunk = unique[i : i + 64]
        done = await asyncio.gather(
            *(server.exchange("POST", f"/v1/{ep}", body) for ep, body in chunk)
        )
        for key, (status, _ct, payload, _h) in zip(chunk, done):
            answers[key] = payload if status == 200 else None
    return answers


def count_wrong(served, answers) -> int:
    """Served (endpoint, request body, status, answer, asked for debug)
    against the reference bytes; a debug section is removed first."""
    wrong = 0
    for endpoint, body, status, answer, debug in served:
        expected = answers.get((endpoint, body))
        try:
            ok = status == 200 and expected is not None and (
                (canonical_body(answer) if debug else answer) == expected
            )
        except ValueError:
            ok = False
        wrong += not ok
    return wrong


def serve_mix(run: Run) -> Outcome:
    from repro.serve import CharacterizationServer, ServeConfig

    out = Outcome()
    traffic, picks = ServeTraffic(run.rng(2)), run.rng(3)
    # A traced run cycles plain, span-traced and debug_timings bursts;
    # the plain ones measure what tracing costs.
    modes = ("plain", "spans", "debug") if run.tracer else ("plain",)
    blocks = Blocks(run.block_ops)
    walls = {mode: [] for mode in modes}
    by_endpoint = {endpoint: [] for endpoint in ENDPOINTS}
    stages = []  # the debug section of every debug_timings answer
    samples = []

    loop = asyncio.new_event_loop()
    try:
        server = CharacterizationServer(ServeConfig())
        for _ in range(2):  # warm-up; leaves the previous burst cached
            loop.run_until_complete(fire(server, requests(traffic.burst())))

        def scrape():
            metrics = server.exchange("GET", "/metrics", b"")
            return parse_prometheus(loop.run_until_complete(metrics)[2].decode())

        before = scrape() if run.tracer else []
        stop_at = perf_counter() + run.seconds
        index = 0
        while perf_counter() < stop_at:
            burst = traffic.burst()
            mode = modes[index % len(modes)]
            debug = mode == "debug"
            sent = requests(burst, debug_timings=True) if debug else requests(burst)
            answers, start, wall = run.timed(
                mode == "spans", lambda: loop.run_until_complete(fire(server, sent))
            )
            walls[mode].append(wall)
            latency = [done - start for _s, _a, done in answers]
            if mode == "plain":
                blocks.add(wall, len(burst), latency)
                blocks.end_unit()
                for (endpoint, _m), lat in zip(burst, latency):
                    by_endpoint[endpoint].append(lat)
            out.attempted += len(burst)
            out.failed += sum(status != 200 for status, _a, _d in answers)
            if debug:
                stages += [json.loads(answer)["debug"] for status, answer, _d
                           in answers if status == 200]
            for j in picks.choice(len(burst), size=max(1, len(burst) // 16),
                                  replace=False):
                endpoint, matrix = burst[j]
                status, answer, _done = answers[j]
                samples.append((endpoint, matrix_body(matrix), status, answer, debug))
            index += 1
        after = scrape() if run.tracer else []
    finally:
        loop.run_until_complete(loop.shutdown_default_executor())
        loop.close()

    answers = asyncio.run(reference_bodies([s[:2] for s in samples]))
    out.failed += count_wrong(samples, answers)
    out.extra["checked"] = len(samples)
    if run.tracer is None:
        # As timed: a third of a request is the coalescer's 2 ms linger,
        # a timer, and in runs where the probe slowed by 10-15% the p50
        # held within 2% (README.md, Blocks).
        put_timing(out, blocks, f"requests in bursts of {BURST_WIDTH}", scaled=False)

        def heap_pass():
            # A fixed mix: the seed would otherwise move the peak.
            fixed = ServeTraffic(np.random.default_rng(0))
            fresh = asyncio.new_event_loop()
            try:
                heap_server = CharacterizationServer(ServeConfig())
                for _ in range(8):
                    fresh.run_until_complete(fire(heap_server, requests(fixed.burst())))
            finally:
                fresh.run_until_complete(fresh.shutdown_default_executor())
                fresh.close()

        out.put("peak_heap_mb", peak_heap_mb(heap_pass), "8 bursts, fresh server")
        return out

    tracer = run.tracer
    put_attribution(out, *tracer.attribute(), "in span-traced bursts")
    put_tracer_status(out, tracer)
    out.put("trace_overhead_pct", overhead_pct(walls["spans"], walls["plain"]),
            f"{len(walls['spans'])} traced vs {len(walls['plain'])} plain bursts")
    out.put("protocol.parse_ms.p50", p50_ms(tracer.durations("parse_request")))
    out.put("serve.exchange_self_ms.p50", p50_ms(tracer.self_times("exchange")))
    out.put("serve.batch_kernel_ms.p50",
            p50_ms(tracer.durations("characterize_ensemble")))
    _serve_stages(out, stages)
    for endpoint, latency in by_endpoint.items():
        out.put(f"serve.endpoint.{endpoint}.p50_ms", p50_ms(latency),
                "plain bursts")
    _serving_counts(out, before, after, out.attempted)
    return out


def _serve_stages(out: Outcome, stages: list[dict]) -> None:
    """Per-stage numbers from the server's own ``debug_timings``."""
    computed = [s["timings"] for s in stages if s["timings"]["kernel_s"] > 0]
    other_s = sum(s["timings"]["other_s"] for s in stages)
    total_s = sum(s["total_s"] for s in stages)
    out.put("serve.other_share", other_s / total_s if total_s else 0.0,
            f"of {len(stages)} debug_timings answers")
    queue = [s["timings"]["queue_wait_s"] for s in stages]
    out.put("resilience.queue_wait_ms.p99",
            percentile(queue, 99) * 1e3 if queue else 0.0)
    out.put("cache.lookup_ms.p50", p50_ms([s["timings"]["cache_s"] for s in stages]))
    out.put("coalesce.linger_ms.p50",
            p50_ms([t["coalesce_linger_s"] for t in computed]),
            f"{len(computed)} answers from the kernel")
    out.put("serve.kernel_ms.p50", p50_ms([t["kernel_s"] for t in computed]))
    out.put("protocol.render_ms.p50", p50_ms([t["render_s"] for t in computed]))


def _serving_counts(out, before, after, requests: int) -> None:
    """Counts read from the program's metrics over the whole run."""
    hits = metric_delta(before, after, "repro_serve_cache_events_total", event="hit-memory")
    hits += metric_delta(before, after, "repro_serve_cache_events_total", event="hit-disk")
    misses = metric_delta(before, after, "repro_serve_cache_events_total", event="miss")
    out.put("cache.hit_ratio", hits / (hits + misses) if hits + misses else 0.0,
            f"{hits:.0f} hits, {misses:.0f} misses")
    out.put("cache.stores",
            metric_delta(before, after, "repro_serve_cache_events_total", event="store"))
    out.put("resilience.shed_count",
            metric_delta(before, after, "repro_serve_shed_total")
            + metric_delta(before, after, "repro_serve_deadline_exceeded_total"))
    batches = metric_delta(before, after, "repro_serve_coalesce_batch_size_count")
    members = metric_delta(before, after, "repro_serve_coalesce_batch_size_sum")
    out.put("coalesce.batch_size.mean", members / batches if batches else 0.0,
            f"{batches:.0f} batches")
    kernels = metric_delta(before, after, "repro_serve_kernel_invocations_total")
    out.put("coalesce.kernel_calls_per_request", kernels / requests,
            f"{kernels:.0f} kernel calls, {requests} requests")


# -- library_scalar ------------------------------------------------------


def library_corpus(run: Run):
    """[(matrix, pin)]: the SPEC suites (pinned to GOLDEN), the paper's
    Fig. 8 pair and seeded random matrices of four shapes."""
    from repro.spec import figure8a, figure8b, load_dataset

    corpus = [(load_dataset(name), GOLDEN[name]) for name in sorted(GOLDEN)]
    corpus += [(figure8a(), None), (figure8b(), None)]
    rng = run.rng(4)
    for shape in ((8, 8), (12, 5), (32, 16), (64, 32)):
        corpus += [(rng.uniform(0.5, 10.0, shape), None)
                   for _ in range(run.scale["random_per_shape"])]
    return corpus


def _profile_key(profile) -> tuple:
    return (profile.mph, profile.tdh, profile.tma, profile.sinkhorn_iterations)


def _pinned(key, golden) -> bool:
    mph, tdh, tma, iterations = key
    return (
        all(abs(v - golden[k]) <= PIN_ATOL
            for v, k in ((mph, "mph"), (tdh, "tdh"), (tma, "tma")))
        and iterations == golden["iterations"]
    )


def library_scalar(run: Run) -> Outcome:
    import repro

    out = Outcome()
    corpus = library_corpus(run)
    # Reference and warm-up: one call per matrix before timing.  A SPEC
    # result off its pin makes every timed call on that matrix wrong.
    expected = []
    for matrix, golden in corpus:
        key = _profile_key(repro.characterize(matrix))
        expected.append(key if golden is None or _pinned(key, golden) else None)
    blocks = Blocks(run.block_ops)
    times = {True: [], False: []}
    iterations = []
    stop_at = perf_counter() + run.seconds
    index = 0
    while perf_counter() < stop_at:
        item = index % len(corpus)
        traced = run.traced(index // len(corpus))  # whole passes alternate
        profile, _start, spent = run.timed(
            traced, lambda: repro.characterize(corpus[item][0])
        )
        times[traced].append(spent)
        if not traced:
            blocks.add(spent, 1, [spent])
            if item == len(corpus) - 1:
                blocks.end_unit()
        key = _profile_key(profile)
        out.failed += key != expected[item]
        iterations.append(key[3])
        index += 1
    out.attempted = index
    if run.tracer is None:
        put_timing(out, blocks, f"calls over {len(corpus)} matrices", scaled=True)

        def heap_pass():
            for matrix, _pin in corpus:
                repro.characterize(matrix)

        out.put("peak_heap_mb", peak_heap_mb(heap_pass), "one pass over the corpus")
        return out

    tracer = run.tracer
    put_attribution(out, *tracer.attribute(), "in traced calls")
    put_tracer_status(out, tracer)
    out.put("trace_overhead_pct", overhead_pct(times[True], times[False]),
            f"{len(times[True])} traced vs {len(times[False])} untraced calls")
    out.put("normalize.standardize_ms.p50", p50_ms(tracer.durations("standardize")))
    out.put("backends.sinkhorn_ms.p50", p50_ms(tracer.durations("sinkhorn_core")))
    out.put("backends.svd_ms.p50", p50_ms(tracer.durations("svd_values")))
    out.put("measures.self_ms.p50", p50_ms(tracer.self_times("characterize")))
    out.put("normalize.iterations.mean", statistics.fmean(iterations))
    return out


# -- ensemble_store ------------------------------------------------------


def _ensemble_phases(run: Run, rng, k: int) -> list[tuple]:
    """(name, members, call, compared fields, reference result) of the
    four phases on input set ``k``; references are computed here."""
    import repro.batch as batch
    import repro.shard as shard

    scale = run.scale
    cold_a, cold_b, base = (rng.uniform(0.5, 10.0, shape) for shape in scale["ensemble"])
    perturbed = base * (1.0 + rng.uniform(-1e-3, 1e-3, base.shape))
    start = batch.standardize_batched(base)
    store = shard.write_store(
        run.work / f"store-{k}", rng.uniform(0.5, 10.0, (scale["store_members"], 8, 8))
    )

    def label(kind, stack):
        return f"{kind}_{stack.shape[1]}x{stack.shape[2]}"

    calls = (
        (label("cold", cold_a), len(cold_a),
         lambda: batch.characterize_ensemble(cold_a), ENSEMBLE_FIELDS),
        (label("cold", cold_b), len(cold_b),
         lambda: batch.characterize_ensemble(cold_b), ENSEMBLE_FIELDS),
        (label("warm", base), len(base),
         lambda: batch.standardize_batched(perturbed, warm_start=start),
         ("matrix", "iterations", "converged")),
        ("store_8x8", len(store),
         lambda: shard.characterize_store(
             store, memory_budget_mb=scale["budget_mb"], n_jobs=1),
         ENSEMBLE_FIELDS),
    )
    references = [call() for _name, _n, call, _f in calls[:3]]
    references.append(batch.characterize_ensemble(store.memmap()[:]))
    return [(*c, reference) for c, reference in zip(calls, references)]


def ensemble_store(run: Run) -> Outcome:
    out = Outcome()
    scale = run.scale
    rng = run.rng(5)
    if run.tracer is not None:
        from repro.obs import enable_metrics

        enable_metrics()
    # Cycles take the input sets in turn.  A batch iterates until its
    # slowest member converges, so with one set per run the run's speed
    # would follow its seed.
    sets = [_ensemble_phases(run, rng, k) for k in range(scale["input_sets"])]
    before = registry_samples() if run.tracer is not None else []

    blocks = Blocks(run.block_ops)
    times = {True: [], False: []}
    per_phase = {name: [0, 0.0] for name, *_ in sets[0]}
    stop_at = perf_counter() + run.seconds
    cycle = 0
    while perf_counter() < stop_at:
        traced = run.traced(cycle)
        for name, n, call, fields, reference in sets[cycle % len(sets)]:
            result, _start, spent = run.timed(traced, call)
            times[traced].append(spent)
            if not traced:
                blocks.add(spent, n, [spent])
                per_phase[name][0] += n
                per_phase[name][1] += spent
            out.attempted += 1
            out.failed += not same_arrays(result, reference, fields)
        if not traced:
            blocks.end_unit()
        cycle += 1
    if run.tracer is None:
        put_timing(out, blocks, f"kernel calls, four phases, {len(sets)} input sets",
                   scaled=True)

        def heap_pass():
            for _name, _n, call, _f, _r in sets[0]:
                call()

        out.put("peak_heap_mb", peak_heap_mb(heap_pass), "one cycle")
        return out

    tracer = run.tracer
    after = registry_samples()
    seconds, total = tracer.attribute()
    put_attribution(out, seconds, total, "in traced kernel calls")
    put_tracer_status(out, tracer)
    out.put("trace_overhead_pct", overhead_pct(times[True], times[False]),
            f"{len(times[True])} traced vs {len(times[False])} untraced calls")
    out.put("backends.sinkhorn_batched_share",
            sum(tracer.durations("sinkhorn_core_batched")) / total)
    out.put("backends.svd_batched_share",
            sum(tracer.durations("svd_values_batched")) / total)
    out.put("backends.fused_self_share",
            sum(tracer.self_times("fused_standard_measures")) / total)
    references = [[phase[-1] for phase in phases] for phases in sets]
    cold = np.concatenate([r[i].iterations for r in references for i in (0, 1)])
    out.put("normalize.iterations_per_member.cold", float(cold.mean()))
    warm = np.concatenate([r[2].iterations for r in references])
    out.put("normalize.iterations_per_member.warm", float(warm.mean()))
    for name, (n, spent) in per_phase.items():
        out.put(f"ensemble.{name}.members_per_s", n / spent if spent else 0.0)
    reads = tracer.durations("read")
    passes = len(tracer.durations("characterize_store"))
    store_mb = scale["store_members"] * 8 * 8 * 8 / 1e6
    out.put("store.read_mb_per_s",
            passes * store_mb / sum(reads) if reads else 0.0,
            f"{passes} traced passes")
    store_s = sum(tracer.durations("characterize_store"))
    kernel_s = sum(tracer.durations("characterize_ensemble", within="characterize_store"))
    out.put("shard.kernel_share", kernel_s / store_s if store_s else 0.0,
            "chunk kernels, of the store passes' time")
    chunks = metric_delta(before, after, "repro_shard_chunks_total")
    out.put("shard.chunks", chunks / (cycle or 1), "per store pass")
    return out


WORKLOADS = {
    "serve_mix": serve_mix,
    "library_scalar": library_scalar,
    "ensemble_store": ensemble_store,
}
