"""Micro-batching request coalescer for the characterization service.

The 22–25x win of the batched ``(N, T, M)`` kernels (PR 1) only
materializes when N > 1.  A long-running service gets that N from
*concurrency*: requests that arrive within a short linger window and
share a coalescing group — same matrix shape and same kernel options —
are stacked into one batched kernel call instead of N scalar ones.

:class:`Coalescer` implements the standard micro-batching queue.  A
group flushes on the first loop turn that adds no member while no
request is still being read, at ``linger_s`` at the latest, or at
``max_batch``:

* the first request of a group schedules an **idle check** on the next
  event-loop turn.  The check re-arms while a turn adds members.  While
  the server is still reading a request off a socket (which may join
  the group; see :meth:`Coalescer.read_started`) the group is held
  until the last such read finishes.  The first check that finds
  neither flushes the group.  A burst of concurrent requests therefore
  shares one batch and runs as soon as the burst has been read, instead
  of waiting out a timer;
* the first request also arms a **linger cap** (``linger_s``), which
  flushes a trickle that keeps adding a member every turn, and a group
  held by a connection that never finishes sending;
* a group that reaches ``max_batch`` flushes immediately (bounded
  latency *and* bounded stack memory);
* the flush runs the (synchronous, numpy-heavy) batch runner in the
  event loop's default executor, so the loop keeps accepting requests
  while kernels crunch.

The runner returns one entry per submitted matrix — a result payload,
or an exception (typically :class:`ServeFault`, carrying a
:data:`repro.robust.FAULT_CATEGORIES` slug) that is re-raised to that
caller only.  A faulty member therefore never poisons the healthy
requests sharing its batch; that is the per-request quarantine
semantics of :mod:`repro.robust` lifted into the serving layer.

**Deadline propagation.**  ``submit`` accepts an optional started
:class:`repro.robust.Deadline`.  At flush time, members whose deadline
has already expired are shed with
:class:`repro.serve.resilience.DeadlineExceeded` *before* the kernel
runs — their callers have given up, so spending kernel time on them
would only slow their batch-mates.  The surviving members' tightest
remaining deadline is threaded into the runner options as
``deadline_s``, which the server-side runners turn into a
:class:`repro.robust.Budget` so the batched kernel itself stops at the
wall instead of burning its full iteration budget.  This is safe for
batch-mates with looser deadlines: a deadline can only freeze a slice
as a structured ``converged=False`` partial outcome, never corrupt it.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from ..obs import metrics as _metrics
from .cache import canonical_options
from .protocol import ServeRequest
from .resilience import DeadlineExceeded

__all__ = ["Coalescer", "ServeFault", "CoalesceResult"]


class ServeFault(Exception):
    """A per-request failure with a stable fault category.

    ``category`` is a :data:`repro.robust.FAULT_CATEGORIES` slug (or a
    protocol-level category); ``status`` the HTTP code to answer with.
    """

    def __init__(
        self, category: str, message: str, *, status: int = 422
    ) -> None:
        super().__init__(message)
        self.category = category
        self.status = status


@dataclass(frozen=True)
class CoalesceResult:
    """One request's outcome plus how it was computed.

    ``linger_s`` is how long *this member* waited between submission and
    its batch flushing; ``kernel_s`` the batched kernel's wall time
    (shared by every member of the batch).  Together they feed the
    per-request ``debug.timings`` breakdown.
    """

    payload: object
    batch_size: int
    linger_s: float = 0.0
    kernel_s: float = 0.0


@dataclass
class _PendingGroup:
    options: dict
    matrices: list = field(default_factory=list)
    futures: list = field(default_factory=list)
    deadlines: list = field(default_factory=list)
    submitted: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    timer: asyncio.TimerHandle | None = None
    #: members present when the pending idle check was scheduled
    seen: int = 0
    #: waiting for read_finished instead of a scheduled idle check
    held: bool = False


class Coalescer:
    """Group concurrent same-shape requests into batched kernel calls.

    Parameters
    ----------
    runner : callable
        ``runner(options, matrices) -> list`` — synchronous batch
        executor (one entry per matrix: payload or Exception).  Runs in
        the event loop's default executor.
    endpoint : str
        Metric label for this coalescer's batches.
    linger_s : float
        The longest the first request of a group waits for company.  A
        group flushes on the first loop turn that adds no member while
        no request is still being read, at ``linger_s`` at the latest,
        or at ``max_batch``.
    max_batch : int
        Flush threshold; also the largest stack a single kernel call
        materializes.
    tracer : repro.obs.Tracer, optional
        When set, every flushed batch emits one ``serve.kernel`` span
        *linked* to the request spans it served (fan-in), so a single
        slow batch explains N slow responses.
    """

    def __init__(
        self,
        runner,
        *,
        endpoint: str,
        linger_s: float = 0.002,
        max_batch: int = 64,
        tracer=None,
    ) -> None:
        if linger_s < 0:
            raise ValueError(f"linger_s must be >= 0, got {linger_s}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.runner = runner
        self.endpoint = endpoint
        self.linger_s = float(linger_s)
        self.max_batch = int(max_batch)
        self.tracer = tracer
        #: requests the server is still reading (see read_started)
        self.reading = 0
        self._groups: dict[tuple, _PendingGroup] = {}
        self.batches_flushed = 0
        self.requests_coalesced = 0
        self.deadline_shed = 0

    # -- submission ----------------------------------------------------

    def group_key(self, request: ServeRequest) -> tuple:
        """The coalescing identity: endpoint + shape + kernel options."""
        return (
            self.endpoint,
            request.shape,
            canonical_options(request.options),
        )

    async def submit(
        self, request: ServeRequest, deadline=None, trace=None
    ) -> CoalesceResult:
        """Queue one request; resolves when its batch has been run.

        ``deadline`` is an optional started
        :class:`repro.robust.Deadline`; a member whose deadline expires
        before its group flushes is shed with
        :class:`~repro.serve.resilience.DeadlineExceeded` instead of
        running, and the batch kernel runs under the tightest surviving
        deadline.

        ``trace`` is an optional
        :class:`repro.obs.TraceContext` identifying the request span
        this member belongs to; the batch span links back to it.

        Raises whatever exception the runner assigned to this request's
        slot (or the runner's own exception if the whole batch failed).
        """
        loop = asyncio.get_running_loop()
        key = self.group_key(request)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _PendingGroup(
                options=dict(request.options)
            )
            group.timer = loop.call_later(
                self.linger_s, self._flush_now, key
            )
            loop.call_soon(self._flush_if_idle, key, group)
        future: asyncio.Future = loop.create_future()
        group.matrices.append(np.asarray(request.matrix, dtype=np.float64))
        group.futures.append(future)
        group.deadlines.append(deadline)
        group.submitted.append(time.perf_counter())
        group.traces.append(trace)
        if len(group.matrices) >= self.max_batch:
            self._flush_now(key)
        return await future

    def read_started(self) -> None:
        """A request that may join a group is being read off a socket.

        Idle checks hold their group until every such read has called
        :meth:`read_finished` (``linger_s`` still caps the wait).
        In-process callers, whose requests arrive whole, never call it.
        """
        self.reading += 1

    def read_finished(self) -> None:
        """That request is read (it submits, if at all, before the next
        loop turn); re-check the groups held for it."""
        self.reading -= 1
        if self.reading:
            return
        loop = asyncio.get_running_loop()
        for key, group in self._groups.items():
            if group.held:
                group.held = False
                loop.call_soon(self._flush_if_idle, key, group)

    # -- flushing ------------------------------------------------------

    def _flush_if_idle(self, key: tuple, group: _PendingGroup) -> None:
        """Flush ``group`` unless it grew since the previous check or a
        request that may join it is still being read."""
        if self._groups.get(key) is not group:
            return  # already flushed by the cap or the max-batch path
        size = len(group.matrices)
        if size != group.seen:
            group.seen = size
            asyncio.get_running_loop().call_soon(
                self._flush_if_idle, key, group
            )
        elif self.reading:
            group.held = True  # read_finished re-checks it
        else:
            self._flush_now(key)

    def _flush_now(self, key: tuple) -> None:
        """Detach the group and schedule its batch (loop thread only)."""
        group = self._groups.pop(key, None)
        if group is None:
            return  # already flushed by the max-batch path
        if group.timer is not None:
            group.timer.cancel()
        asyncio.get_running_loop().create_task(self._run_batch(group))

    def _shed_expired(
        self, group: _PendingGroup
    ) -> tuple[list, list, list, list]:
        """Fail expired members; returns the surviving parallel lists
        (matrices, futures, submit times, trace contexts).

        The tightest surviving deadline (if any) is threaded into
        ``group.options["deadline_s"]`` for the runner.
        """
        matrices: list = []
        futures: list = []
        submitted: list = []
        traces: list = []
        tightest: float | None = None
        for matrix, future, deadline, submit_t, trace in zip(
            group.matrices,
            group.futures,
            group.deadlines,
            group.submitted,
            group.traces,
        ):
            if deadline is not None and deadline.expired():
                self.deadline_shed += 1
                _metrics.record((
                    "repro_serve_deadline_exceeded_total",
                    (self.endpoint, "coalesce"),
                    1.0,
                ))
                if not future.done():
                    future.set_exception(
                        DeadlineExceeded(
                            "deadline expired while the request "
                            "lingered in a coalescing group; the "
                            "kernel was never run for it"
                        )
                    )
                continue
            if deadline is not None:
                remaining = deadline.remaining()
                if tightest is None or remaining < tightest:
                    tightest = remaining
            matrices.append(matrix)
            futures.append(future)
            submitted.append(submit_t)
            traces.append(trace)
        if tightest is not None:
            group.options["deadline_s"] = tightest
        return matrices, futures, submitted, traces

    async def _run_batch(self, group: _PendingGroup) -> None:
        matrices, futures, submitted, traces = self._shed_expired(group)
        if not matrices:  # every member expired: nothing to compute
            return
        size = len(matrices)
        self.batches_flushed += 1
        self.requests_coalesced += size
        _metrics.record(
            ("repro_serve_coalesce_batch_size", (self.endpoint,), size),
            ("repro_serve_kernel_invocations_total", (self.endpoint,), 1.0),
        )
        loop = asyncio.get_running_loop()
        flush_t = time.perf_counter()
        lingers = [max(0.0, flush_t - submit_t) for submit_t in submitted]
        try:
            results = await loop.run_in_executor(
                None, self.runner, group.options, matrices
            )
            kernel_s = time.perf_counter() - flush_t
            if len(results) != size:
                raise RuntimeError(
                    f"batch runner returned {len(results)} results for "
                    f"{size} requests"
                )
        except Exception as exc:  # runner blew up: fail the whole batch
            self._emit_batch_span(
                traces,
                size,
                kernel_s=time.perf_counter() - flush_t,
                error=f"{type(exc).__name__}: {exc}",
            )
            for future in futures:
                if not future.done():
                    future.set_exception(exc)
            return
        self._emit_batch_span(traces, size, kernel_s=kernel_s)
        for future, result, linger_s in zip(futures, results, lingers):
            if future.done():  # caller went away (cancelled request)
                continue
            if isinstance(result, Exception):
                future.set_exception(result)
            else:
                future.set_result(
                    CoalesceResult(
                        result, size, linger_s=linger_s, kernel_s=kernel_s
                    )
                )

    def _emit_batch_span(
        self, traces, size, *, kernel_s, error=None
    ) -> None:
        """One fan-in span per flushed batch, linked to its members.

        The batch span is parented under the first traced member (a
        batch has no single request parent) and carries a link to every
        member's request span, so trace tooling can walk from any slow
        response to the batch that computed it and back out to its
        batch-mates.
        """
        tracer = self.tracer
        if tracer is None:
            return
        members = [trace for trace in traces if trace is not None]
        if not members:
            return
        context = members[0].child()
        tracer.emit_span(
            "serve.kernel",
            context,
            wall_s=kernel_s,
            meta={"endpoint": self.endpoint, "batch_size": size},
            links=[member.link() for member in members],
            error=error,
        )

    @property
    def pending(self) -> int:
        """Requests currently lingering in un-flushed groups."""
        return sum(len(g.matrices) for g in self._groups.values())

    async def drain(self) -> None:
        """Flush every pending group immediately (shutdown path)."""
        for key in list(self._groups):
            self._flush_now(key)
        # Yield once so the flush tasks get to run their executors.
        await asyncio.sleep(0)
