"""Seedable, replayable traffic for the characterization service.

Three pieces:

* :func:`generate_trace` — a deterministic request trace shaped like
  the service's real workload: a pool of base environments hit with
  exact resubmissions (cache-hit material), small multiplicative
  perturbations (what-if neighbours that coalesce but never cache-hit)
  and fresh matrices, across the three endpoints.  An optional
  ``faults=`` spec (``"nan=2,zero-row=1"``, the ``--inject-faults``
  format) corrupts a seeded subset of requests through
  :class:`repro.robust.FaultPlan`, turning any replay into a chaos
  drill — only data-fault kinds are meaningful here (``stall`` targets
  workers, not matrices, and passes through unchanged).
* :func:`save_trace` / :func:`load_trace` — JSONL persistence with a
  schema header, so traces can be committed and replayed byte-for-byte
  in CI.
* :func:`replay_trace` — an asyncio client that fires the trace at a
  running server (``time_scale=0`` collapses every arrival into one
  burst — maximal coalescing pressure) and returns a
  :class:`ReplayReport` with per-request latencies and p50/p99.

**Overload drills.**  :func:`estimate_capacity` measures the server's
sustainable throughput with a closed-loop concurrent burst, and
:func:`overload_drill` then runs an *open-loop* drill: Poisson
arrivals at a chosen multiple of that capacity, fired regardless of
how fast the server answers (open-loop is the honest overload model —
a closed-loop client self-throttles and can never overwhelm anything).
The resulting :class:`ReplayReport` separates accepted requests from
shed ones and records whether every rejection was **well-formed**: a
structured 503 with a ``Retry-After`` header and a
``retry_after_s`` hint in the error body.  This is the engine of the
overload chaos tests.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "TRACE_SCHEMA",
    "TraceRequest",
    "RequestOutcome",
    "ReplayReport",
    "generate_trace",
    "save_trace",
    "load_trace",
    "replay_trace",
    "http_request",
    "http_exchange",
    "percentile",
    "estimate_capacity",
    "overload_drill",
]

TRACE_SCHEMA = "repro-serve-trace/1"

#: Endpoint sampling weights of the default workload mix.
DEFAULT_ENDPOINT_MIX = {
    "characterize": 0.6,
    "standardize": 0.25,
    "recommend-heuristic": 0.15,
}


@dataclass(frozen=True)
class TraceRequest:
    """One request of a trace: arrival offset, endpoint, JSON payload."""

    offset_s: float
    endpoint: str
    payload: dict

    def to_record(self) -> dict:
        return {
            "offset_s": self.offset_s,
            "endpoint": self.endpoint,
            "payload": self.payload,
        }


@dataclass(frozen=True)
class RequestOutcome:
    """One replayed request's result.

    ``retry_after_s`` is the back-off hint parsed from a shed (503)
    answer's ``Retry-After`` header; ``well_formed`` records whether an
    error answer carried the structured body shape the protocol
    promises (JSON document with ``error.category`` — and, for 503s,
    both the header and the ``retry_after_s`` body field).
    """

    index: int
    endpoint: str
    status: int
    latency_s: float
    category: str | None = None  # error category on non-200 answers
    retry_after_s: float | None = None
    well_formed: bool = True
    digest: str | None = None  # SHA-256 of a 200 answer's body bytes
    trace_id: str | None = None  # the answer's X-Repro-Trace-Id header


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sequence.

    Examples
    --------
    >>> percentile([1.0, 2.0, 3.0, 4.0], 50)
    2.0
    >>> percentile([1.0, 2.0, 3.0, 4.0], 99)
    4.0
    """
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of one trace replay against a live server."""

    outcomes: tuple[RequestOutcome, ...]
    wall_s: float

    @property
    def ok(self) -> tuple[RequestOutcome, ...]:
        return tuple(o for o in self.outcomes if o.status == 200)

    @property
    def errors(self) -> tuple[RequestOutcome, ...]:
        return tuple(o for o in self.outcomes if o.status != 200)

    @property
    def shed(self) -> tuple[RequestOutcome, ...]:
        """The load-shed answers (structured 503s)."""
        return tuple(o for o in self.outcomes if o.status == 503)

    @property
    def malformed(self) -> tuple[RequestOutcome, ...]:
        """Error answers that broke the structured-body contract."""
        return tuple(
            o for o in self.outcomes if o.status != 200 and not o.well_formed
        )

    def latencies_ms(self, endpoint: str | None = None) -> list[float]:
        return [
            o.latency_s * 1e3
            for o in self.outcomes
            if endpoint is None or o.endpoint == endpoint
        ]

    def percentiles(self) -> dict:
        """{"p50_ms": ..., "p99_ms": ...} over every replayed request."""
        latencies = self.latencies_ms()
        return {
            "p50_ms": percentile(latencies, 50),
            "p99_ms": percentile(latencies, 99),
        }

    def by_category(self) -> dict[str, int]:
        """Error-category histogram of the non-200 answers."""
        counts: dict[str, int] = {}
        for outcome in self.errors:
            key = outcome.category or f"http-{outcome.status}"
            counts[key] = counts.get(key, 0) + 1
        return counts

    def accepted_percentiles(self) -> dict:
        """p50/p99 over the *accepted* (200) requests, or Nones.

        Under overload this is the latency that matters: the shed
        requests answer in microseconds by design and would make the
        blended percentiles look flatteringly fast.
        """
        latencies = [o.latency_s * 1e3 for o in self.ok]
        if not latencies:
            return {"accepted_p50_ms": None, "accepted_p99_ms": None}
        return {
            "accepted_p50_ms": percentile(latencies, 50),
            "accepted_p99_ms": percentile(latencies, 99),
        }

    def to_payload(self) -> dict:
        """JSON-safe digest (``loadgen replay --json``, CI logs)."""
        categories = self.by_category()
        return {
            "requests": len(self.outcomes),
            "ok": len(self.ok),
            "errors": len(self.errors),
            "shed": len(self.shed),
            "traced": sum(1 for o in self.outcomes if o.trace_id),
            "deadline_exceeded": categories.get("deadline-exceeded", 0),
            "malformed_errors": len(self.malformed),
            "error_categories": categories,
            "wall_s": self.wall_s,
            **self.percentiles(),
            **self.accepted_percentiles(),
        }

    def summary(self) -> str:
        p = self.percentiles()
        lines = [
            f"replayed {len(self.outcomes)} request(s) in "
            f"{self.wall_s * 1e3:.1f}ms: {len(self.ok)} ok, "
            f"{len(self.errors)} error(s), {len(self.shed)} shed",
            f"  latency p50={p['p50_ms']:.2f}ms p99={p['p99_ms']:.2f}ms",
        ]
        accepted = self.accepted_percentiles()
        if accepted["accepted_p50_ms"] is not None:
            lines.append(
                "  accepted-only "
                f"p50={accepted['accepted_p50_ms']:.2f}ms "
                f"p99={accepted['accepted_p99_ms']:.2f}ms"
            )
        if self.malformed:
            lines.append(
                f"  MALFORMED error bodies: {len(self.malformed)}"
            )
        for category, count in sorted(self.by_category().items()):
            lines.append(f"  error category {category}: {count}")
        return "\n".join(lines)


# -- generation --------------------------------------------------------


def generate_trace(
    *,
    requests: int = 64,
    seed: int = 0,
    shape: tuple[int, int] = (8, 8),
    rate_hz: float = 200.0,
    duplicate_fraction: float = 0.3,
    perturb_fraction: float = 0.3,
    endpoint_mix: dict[str, float] | None = None,
    faults: str | dict | None = None,
    fault_seed: int = 0,
    deadline_ms: float | None = None,
    deadline_fraction: float = 1.0,
) -> list[TraceRequest]:
    """A deterministic service workload (same seed → same trace).

    ``duplicate_fraction`` of the requests resubmit a base matrix
    byte-for-byte (cache-hit material); ``perturb_fraction`` submit a
    small multiplicative perturbation of a base matrix (same shape, new
    content — coalescing material); the rest draw fresh matrices.
    Arrivals are exponential with mean rate ``rate_hz``.

    ``deadline_ms`` stamps a per-request latency budget into a seeded
    ``deadline_fraction`` of the payloads (all of them by default) —
    the overload traces use this to exercise the deadline-shed path.

    Examples
    --------
    >>> a = generate_trace(requests=8, seed=7)
    >>> b = generate_trace(requests=8, seed=7)
    >>> [r.to_record() for r in a] == [r.to_record() for r in b]
    True
    """
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    if not 0 <= duplicate_fraction + perturb_fraction <= 1:
        raise ValueError(
            "duplicate_fraction + perturb_fraction must be in [0, 1], got "
            f"{duplicate_fraction} + {perturb_fraction}"
        )
    mix = dict(endpoint_mix or DEFAULT_ENDPOINT_MIX)
    names = sorted(mix)
    weights = np.array([float(mix[n]) for n in names])
    if (weights < 0).any() or weights.sum() <= 0:
        raise ValueError(f"endpoint_mix must be non-negative, got {mix}")
    weights = weights / weights.sum()

    rng = np.random.default_rng(seed)
    n_base = max(2, requests // 8)
    base = rng.uniform(0.5, 10.0, size=(n_base, *shape))
    offsets = np.cumsum(rng.exponential(1.0 / rate_hz, size=requests))

    plan = None
    if faults is not None:
        from ..robust.chaos import FaultPlan

        plan = FaultPlan.random(requests, faults=faults, seed=fault_seed)

    trace: list[TraceRequest] = []
    for i in range(requests):
        endpoint = names[int(rng.choice(len(names), p=weights))]
        draw = rng.uniform()
        if draw < duplicate_fraction:
            matrix = base[int(rng.integers(n_base))]
        elif draw < duplicate_fraction + perturb_fraction:
            jitter = 1.0 + rng.uniform(-0.02, 0.02, size=shape)
            matrix = base[int(rng.integers(n_base))] * jitter
        else:
            matrix = rng.uniform(0.5, 10.0, size=shape)
        if plan is not None:
            matrix = plan.apply_member(i, matrix)
        payload: dict = {"matrix": matrix.tolist()}
        if deadline_ms is not None and rng.uniform() < deadline_fraction:
            payload["deadline_ms"] = float(deadline_ms)
        trace.append(
            TraceRequest(
                offset_s=float(offsets[i]),
                endpoint=endpoint,
                payload=payload,
            )
        )
    return trace


def save_trace(trace, path) -> Path:
    """Write a trace as JSONL (schema header + one record per line)."""
    trace = list(trace)
    path = Path(path)
    lines = [json.dumps({"schema": TRACE_SCHEMA, "requests": len(trace)})]
    lines += [json.dumps(r.to_record(), allow_nan=True) for r in trace]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def load_trace(path) -> list[TraceRequest]:
    """Load a JSONL trace; raises :class:`ValueError` on bad files."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    records = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}:{lineno}: not a JSON record ({exc})"
            ) from exc
    if not records or records[0].get("schema") != TRACE_SCHEMA:
        raise ValueError(
            f"{path}: missing trace schema header {TRACE_SCHEMA!r}"
        )
    trace = []
    for record in records[1:]:
        try:
            trace.append(
                TraceRequest(
                    offset_s=float(record["offset_s"]),
                    endpoint=str(record["endpoint"]),
                    payload=dict(record["payload"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"{path}: malformed trace record {record!r} ({exc})"
            ) from exc
    if not trace:
        raise ValueError(f"{path}: trace has no requests")
    return trace


# -- the replay client -------------------------------------------------


async def http_exchange(
    host: str,
    port: int,
    method: str,
    path: str,
    body: bytes = b"",
    *,
    timeout_s: float = 30.0,
) -> tuple[int, dict[str, str], bytes]:
    """One HTTP/1.1 exchange; returns (status, headers, body).

    Header names are lower-cased; ``Connection: close`` framing over
    asyncio streams (one connection per request, like the server).
    """
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout_s
    )
    try:
        writer.write(
            (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
            + body
        )
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout_s)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
    head, _, payload = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1", "replace").split("\r\n")
    parts = lines[0].split()
    if len(parts) < 2 or not parts[1].isdigit():
        raise ValueError(f"malformed HTTP status line {lines[0]!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    return int(parts[1]), headers, payload


async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: bytes = b"",
    *,
    timeout_s: float = 30.0,
) -> tuple[int, bytes]:
    """:func:`http_exchange` without the headers (compat wrapper)."""
    status, _, payload = await http_exchange(
        host, port, method, path, body, timeout_s=timeout_s
    )
    return status, payload


def _error_category(body: bytes) -> str | None:
    try:
        document = json.loads(body.decode("utf-8"))
        return document["error"]["category"]
    except (ValueError, KeyError, TypeError):
        return None


def _classify_error(
    status: int, headers: dict[str, str], body: bytes
) -> tuple[str | None, float | None, bool]:
    """(category, retry_after_s, well_formed) of one error answer.

    Well-formed means: the body is a JSON document with a non-empty
    ``error.category`` string, and — for shed (503) answers — the
    ``Retry-After`` header parses as a number and the body carries the
    sub-second ``retry_after_s`` hint.
    """
    retry_after_s: float | None = None
    try:
        document = json.loads(body.decode("utf-8"))
        error = document["error"]
        category = error["category"]
        well_formed = isinstance(category, str) and bool(category)
    except (ValueError, KeyError, TypeError):
        return None, None, False
    if status == 503:
        header = headers.get("retry-after")
        try:
            retry_after_s = float(header) if header is not None else None
        except ValueError:
            retry_after_s = None
        if retry_after_s is None or "retry_after_s" not in error:
            well_formed = False
    return category, retry_after_s, well_formed


async def replay_trace_async(
    trace,
    host: str,
    port: int,
    *,
    time_scale: float = 1.0,
    timeout_s: float = 30.0,
) -> ReplayReport:
    """Fire a trace at a live server, honouring arrival offsets.

    ``time_scale`` stretches (>1) or compresses (<1) the recorded
    inter-arrival gaps; 0 releases everything at once.
    """
    trace = list(trace)
    loop = asyncio.get_running_loop()
    start = loop.time()

    async def _one(index: int, request: TraceRequest) -> RequestOutcome:
        delay = request.offset_s * time_scale - (loop.time() - start)
        if delay > 0:
            await asyncio.sleep(delay)
        body = json.dumps(request.payload, allow_nan=True).encode("utf-8")
        t0 = loop.time()
        status, headers, answer = await http_exchange(
            host,
            port,
            "POST",
            f"/v1/{request.endpoint}",
            body,
            timeout_s=timeout_s,
        )
        latency = loop.time() - t0
        category: str | None = None
        retry_after_s: float | None = None
        well_formed = True
        digest: str | None = None
        if status == 200:
            digest = hashlib.sha256(answer).hexdigest()
        else:
            category, retry_after_s, well_formed = _classify_error(
                status, headers, answer
            )
        return RequestOutcome(
            index=index,
            endpoint=request.endpoint,
            status=status,
            latency_s=latency,
            category=category,
            retry_after_s=retry_after_s,
            well_formed=well_formed,
            digest=digest,
            trace_id=headers.get("x-repro-trace-id"),
        )

    outcomes = await asyncio.gather(
        *(_one(i, r) for i, r in enumerate(trace))
    )
    return ReplayReport(
        outcomes=tuple(outcomes), wall_s=loop.time() - start
    )


def replay_trace(
    trace,
    host: str,
    port: int,
    *,
    time_scale: float = 1.0,
    timeout_s: float = 30.0,
) -> ReplayReport:
    """Synchronous wrapper around :func:`replay_trace_async`."""
    return asyncio.run(
        replay_trace_async(
            trace, host, port, time_scale=time_scale, timeout_s=timeout_s
        )
    )


# -- overload drills ---------------------------------------------------


def estimate_capacity(
    host: str,
    port: int,
    *,
    shape: tuple[int, int] = (8, 8),
    probe: int = 16,
    seed: int = 0,
    timeout_s: float = 30.0,
) -> float:
    """Rough sustainable throughput (requests/s) of a live server.

    One closed-loop burst of ``probe`` distinct same-shape characterize
    requests, issued concurrently so the coalescer batches them —
    throughput is ``probe / wall``.  Deliberately a *favourable*
    measurement: the overload drill multiplies it, so underestimating
    capacity would only make the drill harsher.
    """
    rng = np.random.default_rng(seed)
    bodies = [
        json.dumps(
            {"matrix": rng.uniform(0.5, 10.0, size=shape).tolist()}
        ).encode("utf-8")
        for _ in range(probe)
    ]

    async def _run() -> float:
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        await asyncio.gather(
            *(
                http_exchange(
                    host, port, "POST", "/v1/characterize", body,
                    timeout_s=timeout_s,
                )
                for body in bodies
            )
        )
        return probe / max(1e-6, loop.time() - t0)

    return asyncio.run(_run())


def overload_drill(
    host: str,
    port: int,
    *,
    multiplier: float = 5.0,
    requests: int = 96,
    seed: int = 0,
    shape: tuple[int, int] = (8, 8),
    deadline_ms: float | None = None,
    capacity_hz: float | None = None,
    max_rate_hz: float = 5000.0,
    timeout_s: float = 30.0,
) -> dict:
    """Open-loop Poisson overload: offer ``multiplier``× the capacity.

    Generates a seeded trace with Poisson arrivals at
    ``capacity_hz * multiplier`` (measuring capacity first via
    :func:`estimate_capacity` when not given) and replays it
    **open-loop** — every request fires at its scheduled arrival time
    no matter how the server is coping, which is what a real overload
    looks like.  All requests are distinct same-shape matrices
    (``duplicate_fraction=0``), so nothing hides behind the cache.

    Returns ``{"report": ReplayReport, "capacity_hz", "offered_hz",
    "multiplier"}``; callers assert on the report (no crash, bounded
    accepted-p99, well-formed rejections).
    """
    if multiplier <= 0:
        raise ValueError(f"multiplier must be > 0, got {multiplier}")
    if capacity_hz is None:
        capacity_hz = estimate_capacity(
            host, port, shape=shape, seed=seed, timeout_s=timeout_s
        )
    offered_hz = min(max_rate_hz, capacity_hz * multiplier)
    trace = generate_trace(
        requests=requests,
        seed=seed,
        shape=shape,
        rate_hz=offered_hz,
        duplicate_fraction=0.0,
        perturb_fraction=0.3,
        deadline_ms=deadline_ms,
    )
    report = replay_trace(
        trace, host, port, time_scale=1.0, timeout_s=timeout_s
    )
    return {
        "report": report,
        "capacity_hz": float(capacity_hz),
        "offered_hz": float(offered_hz),
        "multiplier": float(multiplier),
    }
