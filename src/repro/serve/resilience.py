"""Overload resilience for the characterization service.

The serving pipeline (cache → singleflight → coalescer → batched
kernels) is fast, but speed is not resilience: a server with no
admission control converts every overload into unbounded queueing,
unbounded memory and unbounded latency for *everyone*.  This module
applies the "bound the worst case, degrade predictably" discipline the
shard engine uses against stragglers to the serving tier itself:

* :class:`AdmissionController` — a per-endpoint concurrency gate with a
  bounded pending queue.  Excess load is **shed** with a structured
  ``503`` + ``Retry-After`` (:class:`ShedError`) instead of queued
  forever; a request whose deadline expires while it waits is shed
  before it ever burns a kernel slot
  (:class:`DeadlineExceeded`);
* :class:`CapacityEstimator` — an AIMD controller that *observes*
  capacity instead of assuming it (heterogeneous hosts differ; see
  HEET in PAPERS.md): the admission limit is multiplicatively cut when
  the recent latency percentile breaches its objective and additively
  recovered while the server keeps up;
* :class:`DrainState` — the live / ready / degraded / draining state
  machine behind ``/healthz``, driven by the graceful-shutdown path in
  :meth:`repro.serve.server.CharacterizationServer.shutdown`.

Everything here runs on the event-loop thread; no locks are needed.
"""

from __future__ import annotations

import asyncio
import math
import time
from collections import deque
from dataclasses import dataclass, field

from ..obs import metrics as _metrics
from .loadgen import percentile

__all__ = [
    "ShedError",
    "DeadlineExceeded",
    "CapacityEstimator",
    "AdmissionController",
    "DrainState",
]


class ShedError(Exception):
    """A request rejected by the admission layer (HTTP 503).

    ``category`` is a stable machine-readable slug (``queue-full``,
    ``draining``, ``deadline-exceeded``); ``retry_after_s`` is the
    back-off hint rendered both as the ``Retry-After`` header
    (ceiled to whole seconds, per RFC 9110) and as
    ``error.retry_after_s`` in the JSON body.
    """

    status = 503

    def __init__(
        self,
        category: str,
        message: str,
        *,
        retry_after_s: float = 1.0,
    ) -> None:
        super().__init__(message)
        self.category = category
        self.retry_after_s = float(retry_after_s)

    @property
    def retry_after_header(self) -> str:
        """``Retry-After`` delta-seconds (integer, >= 1)."""
        return str(max(1, math.ceil(self.retry_after_s)))


class DeadlineExceeded(ShedError):
    """A request shed because its deadline can no longer be met."""

    def __init__(
        self, message: str, *, retry_after_s: float = 1.0
    ) -> None:
        super().__init__(
            "deadline-exceeded", message, retry_after_s=retry_after_s
        )


class CapacityEstimator:
    """AIMD admission-limit controller fed by observed request latency.

    The estimator watches the same per-request wall times that feed the
    ``repro_serve_request_seconds`` histogram.  Every ``adjust_every``
    observations it compares the recent window's p99 against
    ``target_p99_s``:

    * breach → **multiplicative decrease**: the limit is cut by
      ``decrease`` (floored at ``min_limit``);
    * within target → **additive increase**: the limit recovers by
      ``increase`` per adjustment (capped at ``max_limit``).

    This is the classic AIMD shape: fast back-off when the host is
    slower than assumed, slow probing upwards when it keeps up — the
    server's capacity is an *observed* quantity, never a constant.

    Examples
    --------
    >>> est = CapacityEstimator(base_limit=8, target_p99_s=0.1,
    ...                         adjust_every=4, min_limit=2, window=4)
    >>> for _ in range(4):
    ...     est.observe(1.0)        # far above target: breach
    >>> est.limit
    4
    >>> for _ in range(8):
    ...     est.observe(0.001)      # healthy again: additive recovery
    >>> est.limit
    6
    """

    def __init__(
        self,
        *,
        base_limit: int = 64,
        min_limit: int = 2,
        max_limit: int = 1024,
        target_p99_s: float = 0.5,
        window: int = 128,
        adjust_every: int = 16,
        increase: int = 1,
        decrease: float = 0.5,
    ) -> None:
        if not 1 <= min_limit <= base_limit <= max_limit:
            raise ValueError(
                "limits must satisfy 1 <= min_limit <= base_limit <= "
                f"max_limit, got {min_limit}/{base_limit}/{max_limit}"
            )
        if target_p99_s <= 0:
            raise ValueError(
                f"target_p99_s must be > 0, got {target_p99_s}"
            )
        if not 0 < decrease < 1:
            raise ValueError(f"decrease must be in (0, 1), got {decrease}")
        if adjust_every < 1 or increase < 1 or window < adjust_every:
            raise ValueError(
                "need adjust_every >= 1, increase >= 1 and "
                f"window >= adjust_every, got {adjust_every}/{increase}"
                f"/{window}"
            )
        self.base_limit = int(base_limit)
        self.min_limit = int(min_limit)
        self.max_limit = int(max_limit)
        self.target_p99_s = float(target_p99_s)
        self.increase = int(increase)
        self.decrease = float(decrease)
        self.adjust_every = int(adjust_every)
        self._window: deque[float] = deque(maxlen=int(window))
        self._since_adjust = 0
        self._limit = float(base_limit)
        self.adjustments_down = 0
        self.adjustments_up = 0

    @property
    def limit(self) -> int:
        """The current admission limit (integer, >= ``min_limit``)."""
        return max(self.min_limit, int(self._limit))

    @property
    def degraded(self) -> bool:
        """True while AIMD holds the limit below its configured base."""
        return self.limit < self.base_limit

    def observe(self, wall_s: float) -> None:
        """Feed one served request's wall time; adjusts periodically."""
        self._window.append(float(wall_s))
        self._since_adjust += 1
        if self._since_adjust >= self.adjust_every:
            self._since_adjust = 0
            self._adjust()

    def _adjust(self) -> None:
        p99 = percentile(self._window, 99)
        if p99 > self.target_p99_s:
            cut = max(float(self.min_limit), self._limit * self.decrease)
            if cut < self._limit:
                self._limit = cut
                self.adjustments_down += 1
        else:
            grown = min(
                float(self.max_limit), self._limit + self.increase
            )
            if grown > self._limit:
                self._limit = grown
                self.adjustments_up += 1

    def mean_latency_s(self) -> float:
        """Mean of the recent window (retry-hint input; 0 when empty)."""
        if not self._window:
            return 0.0
        return sum(self._window) / len(self._window)

    def snapshot(self) -> dict:
        """JSON-safe state for ``/healthz``."""
        return {
            "limit": self.limit,
            "base_limit": self.base_limit,
            "degraded": self.degraded,
            "window": len(self._window),
            "target_p99_ms": self.target_p99_s * 1e3,
            "adjustments_up": self.adjustments_up,
            "adjustments_down": self.adjustments_down,
        }


@dataclass
class _Gate:
    """Per-endpoint admission bookkeeping (event-loop thread only)."""

    inflight: int = 0
    waiters: deque = field(default_factory=deque)
    admitted: int = 0
    shed: int = 0
    peak_inflight: int = 0


class AdmissionController:
    """Bounded per-endpoint concurrency in front of the compute path.

    Each endpoint owns a gate with at most ``limit`` concurrently
    admitted requests plus at most ``queue_depth`` pending admissions;
    anything beyond that is **shed immediately** with
    :class:`ShedError` — the queue is the only place load may wait,
    and it is bounded.  ``limit`` is either a static ceiling or, when
    an estimator is attached, the live AIMD value.

    Cache hits and singleflight joins never pass through this gate:
    admission protects *kernel work*, and a request that can be served
    from memoized bytes costs (nearly) none.
    """

    def __init__(
        self,
        *,
        max_inflight: int = 64,
        queue_depth: int = 256,
        estimators: dict[str, CapacityEstimator] | None = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        if queue_depth < 0:
            raise ValueError(
                f"queue_depth must be >= 0, got {queue_depth}"
            )
        self.max_inflight = int(max_inflight)
        self.queue_depth = int(queue_depth)
        self.estimators = dict(estimators or {})
        self._gates: dict[str, _Gate] = {}
        #: Admissions, counted for the owner's next record call (the
        #: server's is each request's exit).  Loop thread only.
        self.events = _metrics.Tally()
        #: Endpoints whose admission-limit gauge that call carries: each
        #: granted a slot, or had its limit moved, since the last one.
        self._gauges_due: set[str] = set()

    def _gate(self, endpoint: str) -> _Gate:
        gate = self._gates.get(endpoint)
        if gate is None:
            gate = self._gates[endpoint] = _Gate()
        return gate

    def limit(self, endpoint: str) -> int:
        """The live admission limit of one endpoint."""
        estimator = self.estimators.get(endpoint)
        if estimator is not None:
            return min(self.max_inflight, estimator.limit)
        return self.max_inflight

    def retry_after_s(self, endpoint: str) -> float:
        """Back-off hint: expected time to drain the pending queue."""
        gate = self._gate(endpoint)
        estimator = self.estimators.get(endpoint)
        per_request = estimator.mean_latency_s() if estimator else 0.0
        if per_request <= 0:
            per_request = 0.05
        waiting = len(gate.waiters) + 1
        return max(
            0.1, waiting * per_request / max(1, self.limit(endpoint))
        )

    async def admit(self, endpoint: str, deadline=None, trace=None) -> None:
        """Acquire one admission slot; raises instead of queuing unboundedly.

        ``trace`` is an optional :class:`repro.obs.RequestTrace`: a
        request that has to *wait* for a slot records the wait as its
        ``queue_wait_s`` stage (the uncontended grant path records
        nothing and pays nothing).

        Raises
        ------
        ShedError
            When the pending queue is already full (``queue-full``).
        DeadlineExceeded
            When ``deadline`` (a started :class:`repro.robust.Deadline`)
            expires before a slot frees up.
        """
        gate = self._gate(endpoint)
        if gate.inflight < self.limit(endpoint):
            self._grant(endpoint, gate)
            return
        if len(gate.waiters) >= self.queue_depth:
            gate.shed += 1
            retry = self.retry_after_s(endpoint)
            _metrics.record(("repro_serve_shed_total", (endpoint, "queue-full"), 1.0))
            raise ShedError(
                "queue-full",
                f"endpoint {endpoint!r} is at its admission limit "
                f"({self.limit(endpoint)} in flight, "
                f"{len(gate.waiters)} queued); retry in "
                f"{retry:.2f}s",
                retry_after_s=retry,
            )
        future: asyncio.Future = (
            asyncio.get_running_loop().create_future()
        )
        gate.waiters.append(future)
        timeout = deadline.remaining() if deadline is not None else None
        wait_t0 = time.perf_counter()
        try:
            if timeout is None:
                await future
            else:
                await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            # wait_for cancelled the future; if the grant raced the
            # cancellation, hand the slot straight to the next waiter.
            if future.done() and not future.cancelled():
                self.release(endpoint)
            else:
                try:
                    gate.waiters.remove(future)
                except ValueError:
                    pass
            gate.shed += 1
            retry = self.retry_after_s(endpoint)
            _metrics.record(
                ("repro_serve_deadline_exceeded_total", (endpoint, "admission"), 1.0)
            )
            if trace is not None:
                trace.add("queue_wait_s", time.perf_counter() - wait_t0)
            raise DeadlineExceeded(
                f"deadline expired after {timeout * 1e3:.1f}ms waiting "
                f"for admission to {endpoint!r}",
                retry_after_s=retry,
            ) from None
        # Granted by release(); inflight was already incremented there.
        if trace is not None:
            trace.add("queue_wait_s", time.perf_counter() - wait_t0)

    def _grant(self, endpoint: str, gate: _Gate) -> None:
        gate.inflight += 1
        gate.peak_inflight = max(gate.peak_inflight, gate.inflight)
        gate.admitted += 1
        self.events.add("repro_serve_admitted_total", (endpoint,))
        if endpoint in self.estimators:
            self._gauges_due.add(endpoint)

    def limit_gauges(self) -> tuple:
        """The ``repro_serve_admission_limit`` gauge of every endpoint
        granted a slot or moved since the previous call, at its current
        limit, as ``record`` updates."""
        if not self._gauges_due:
            return ()
        due, self._gauges_due = self._gauges_due, set()
        return tuple(
            ("repro_serve_admission_limit", (endpoint,),
             self.estimators[endpoint].limit)
            for endpoint in due
        )

    def release(self, endpoint: str) -> None:
        """Free one slot and grant the oldest live waiter, if any."""
        gate = self._gate(endpoint)
        gate.inflight = max(0, gate.inflight - 1)
        while gate.waiters and gate.inflight < self.limit(endpoint):
            future = gate.waiters.popleft()
            if future.done():  # cancelled by a deadline timeout
                continue
            self._grant(endpoint, gate)
            future.set_result(None)

    def observe(self, endpoint: str, wall_s: float) -> None:
        """Feed one served request's wall time to the AIMD estimator."""
        estimator = self.estimators.get(endpoint)
        if estimator is not None:
            before = estimator.limit
            estimator.observe(wall_s)
            if estimator.limit != before:
                self._gauges_due.add(endpoint)
                # A freshly raised limit can unblock queued waiters.
                if estimator.limit > before:
                    gate = self._gate(endpoint)
                    gate.inflight += 1  # balance release()'s decrement
                    self.release(endpoint)

    @property
    def degraded(self) -> bool:
        """True while any endpoint's AIMD limit is below its base."""
        return any(e.degraded for e in self.estimators.values())

    def stats(self) -> dict:
        """JSON-safe per-endpoint snapshot for ``/healthz``."""
        out: dict = {}
        for endpoint, gate in sorted(self._gates.items()):
            entry = {
                "limit": self.limit(endpoint),
                "inflight": gate.inflight,
                "queued": len(gate.waiters),
                "queue_depth": self.queue_depth,
                "admitted": gate.admitted,
                "shed": gate.shed,
                "peak_inflight": gate.peak_inflight,
            }
            estimator = self.estimators.get(endpoint)
            if estimator is not None:
                entry["estimator"] = estimator.snapshot()
            out[endpoint] = entry
        return out


class DrainState:
    """The live / ready / draining state machine behind ``/healthz``.

    * **live** — the process is up (always true while it can answer);
    * **ready** — accepting new work (false once draining starts);
    * **draining** — graceful shutdown in progress: the listener is
      closed, in-flight requests run to completion under the drain
      timeout, the coalescer is flushed, then the process exits 0.

    The separation is the standard kubernetes probe split: a draining
    server must *fail readiness* (so balancers stop routing to it)
    while *passing liveness* (so the orchestrator does not kill it
    mid-drain).
    """

    def __init__(self) -> None:
        self._draining = False
        self.started_at = time.time()
        self.drain_started_at: float | None = None

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def ready(self) -> bool:
        return not self._draining

    def begin_drain(self) -> bool:
        """Mark draining; returns False when already draining."""
        if self._draining:
            return False
        self._draining = True
        self.drain_started_at = time.time()
        _metrics.record(("repro_serve_drain_total", ("started",), 1.0))
        return True

    def uptime_s(self) -> float:
        return time.time() - self.started_at

    def status(self, *, degraded: bool = False) -> str:
        """The one-word health status: ok, degraded or draining."""
        if self._draining:
            return "draining"
        return "degraded" if degraded else "ok"
