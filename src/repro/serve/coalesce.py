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
* a flushed batch waits for its event loop's **kernel lane**, then
  runs the (synchronous, numpy-heavy) batch runner in the loop's
  default executor.  Every coalescer on one running loop shares the
  lane, and batches take it in flush order.  So one kernel is in
  flight per loop, and a batch answers its members before it releases
  the lane: their render, cache store and exit steps run before the
  next batch's kernel takes the GIL.  A burst that flushes a
  characterize and a standardize group therefore answers the
  characterize members at the end of their own kernel, not of both.

The runner returns one entry per submitted matrix — a result payload,
or an exception (typically :class:`ServeFault`, carrying a
:data:`repro.robust.FAULT_CATEGORIES` slug) that is re-raised to that
caller only.  A faulty member therefore never poisons the healthy
requests sharing its batch; that is the per-request quarantine
semantics of :mod:`repro.robust` lifted into the serving layer.

**Deadline propagation.**  ``submit`` accepts an optional started
:class:`repro.robust.Deadline`.  Once the batch holds the kernel lane,
members whose deadline has already expired are shed with
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
import contextvars
import time
import weakref
from dataclasses import dataclass, field

import numpy as np

from ..obs import current_trace, metrics as _metrics, span
from .protocol import ServeRequest
from .resilience import DeadlineExceeded

__all__ = ["Coalescer", "ServeFault", "CoalesceResult"]

#: The kernel lane of each running event loop, shared by its coalescers.
_LANES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _kernel_lane(loop: asyncio.AbstractEventLoop) -> asyncio.Lock:
    """The FIFO lane one batch at a time holds from kernel start until
    its members are answered (made on the loop's first flush, dropped
    with the loop)."""
    lane = _LANES.get(loop)
    if lane is None:
        lane = _LANES[loop] = asyncio.Lock()
    return lane


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
    its batch's kernel start: the group's linger plus the wait for the
    loop's kernel lane.  ``kernel_s`` is the wall time of the batch's
    own runner (shared by every member of the batch), never of another
    batch's.  ``done_t`` is the ``time.perf_counter()`` reading at which
    the runner's results were back on the loop; a member's own reading
    when it resumes, minus ``done_t``, is how long it waited while the
    batch-mates resumed before it answered.  Together they feed the
    per-request ``debug.timings`` breakdown.
    """

    payload: object
    batch_size: int
    linger_s: float = 0.0
    kernel_s: float = 0.0
    done_t: float = 0.0


@dataclass
class _PendingGroup:
    options: dict
    matrices: list = field(default_factory=list)
    futures: list = field(default_factory=list)
    deadlines: list = field(default_factory=list)
    submitted: list = field(default_factory=list)
    contexts: list = field(default_factory=list)
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

    Each member's submitting context is kept, and the batch kernel runs
    in the first traced member's context (the first member's, if none
    is traced) inside one ``serve.kernel`` span.  So the kernel's own
    spans nest under it, and it links to every traced member's request
    span (fan-in): a single slow batch explains N slow responses.
    """

    def __init__(
        self,
        runner,
        *,
        endpoint: str,
        linger_s: float = 0.002,
        max_batch: int = 64,
    ) -> None:
        if linger_s < 0:
            raise ValueError(f"linger_s must be >= 0, got {linger_s}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.runner = runner
        self.endpoint = endpoint
        self.linger_s = float(linger_s)
        self.max_batch = int(max_batch)
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
            request.canonical_options,
        )

    async def submit(
        self, request: ServeRequest, deadline=None
    ) -> CoalesceResult:
        """Queue one request; resolves when its batch has been run.

        ``deadline`` is an optional started
        :class:`repro.robust.Deadline`; a member whose deadline expires
        before its batch takes the kernel lane is shed with
        :class:`~repro.serve.resilience.DeadlineExceeded` instead of
        running, and the batch kernel runs under the tightest surviving
        deadline.

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
        group.contexts.append(contextvars.copy_context())
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
        (matrices, futures, submit times, submitting contexts).

        The tightest surviving deadline (if any) is threaded into
        ``group.options["deadline_s"]`` for the runner.
        """
        matrices: list = []
        futures: list = []
        submitted: list = []
        contexts: list = []
        tightest: float | None = None
        for matrix, future, deadline, submit_t, context in zip(
            group.matrices,
            group.futures,
            group.deadlines,
            group.submitted,
            group.contexts,
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
                            "lingered in a coalescing group or waited "
                            "for the kernel lane; the kernel was never "
                            "run for it"
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
            contexts.append(context)
        if tightest is not None:
            group.options["deadline_s"] = tightest
        return matrices, futures, submitted, contexts

    async def _run_batch(self, group: _PendingGroup) -> None:
        """Run one flushed group: wait for the loop's kernel lane, shed
        the members that expired meanwhile, run the rest and answer them
        before the lane passes to the next batch."""
        loop = asyncio.get_running_loop()
        async with _kernel_lane(loop):
            matrices, futures, submitted, contexts = self._shed_expired(group)
            if not matrices:  # every member expired: nothing to compute
                return
            size = len(matrices)
            self.batches_flushed += 1
            self.requests_coalesced += size
            _metrics.record(
                ("repro_serve_coalesce_batch_size", (self.endpoint,), size),
                ("repro_serve_kernel_invocations_total", (self.endpoint,), 1.0),
            )
            traces = [context.run(current_trace) for context in contexts]
            members = [trace for trace in traces if trace is not None]
            context = next(
                (c for c, trace in zip(contexts, traces) if trace is not None),
                contexts[0],
            )
            flush_t = time.perf_counter()
            lingers = [max(0.0, flush_t - submit_t) for submit_t in submitted]
            try:
                results = await loop.run_in_executor(
                    None, context.run, self._kernel, group.options, matrices,
                    members,
                )
            except Exception as exc:  # runner blew up: fail the whole batch
                for future in futures:
                    if not future.done():
                        future.set_exception(exc)
                return
            done_t = time.perf_counter()
            kernel_s = done_t - flush_t
            for future, result, linger_s in zip(futures, results, lingers):
                if future.done():  # caller went away (cancelled request)
                    continue
                if isinstance(result, Exception):
                    future.set_exception(result)
                else:
                    future.set_result(
                        CoalesceResult(
                            result, size, linger_s=linger_s, kernel_s=kernel_s,
                            done_t=done_t,
                        )
                    )

    def _kernel(self, options: dict, matrices: list, members: list) -> list:
        """The batch runner inside its ``serve.kernel`` span, linked to
        every traced member's request span (executor thread)."""
        with span(
            "serve.kernel", endpoint=self.endpoint, batch_size=len(matrices)
        ) as sp:
            for member in members:
                sp.link(member)
            results = self.runner(options, matrices)
            if len(results) != len(matrices):
                raise RuntimeError(
                    f"batch runner returned {len(results)} results for "
                    f"{len(matrices)} requests"
                )
        return results

    @property
    def pending(self) -> int:
        """Requests currently lingering in un-flushed groups."""
        return sum(len(g.matrices) for g in self._groups.values())

    async def drain(self) -> None:
        """Flush every pending group immediately (shutdown path)."""
        for key in list(self._groups):
            self._flush_now(key)
        # Yield once so the first flushed batch takes the kernel lane;
        # the rest follow it in flush order.
        await asyncio.sleep(0)
