"""The one process-pool scheduler, and the map built on it.

The ensemble drivers (the scalar members pool of
:func:`repro.batch.characterize_ensemble`, pooled shard dispatch) fan
independent work out over processes through :func:`_schedule`, the only
code that creates a ``ProcessPoolExecutor``; it imports the pool on
first use, so ``import repro`` does not load ``multiprocessing``.

A task is a picklable argument; a worker runs ``fn(task, attempt)``,
where ``attempt`` numbers the task's copies from 0.  At most ``workers``
copies are in flight, so a copy's clock starts when a free worker takes
it, never while it is queued.  A copy still running ``timeout_s`` after
dispatch gets a spare copy if its task has one left (``spares``: 0 for
ensemble members, 1 for store shards).  The first copy to finish wins;
a loser is cancelled or, if running, its process is terminated at
shutdown.  A task whose copies all ran past the timeout with no spare
left becomes a timed-out :class:`WorkerFailure`.  A given-up copy holds
its worker until it ends, so it still counts as in flight.  Once every
worker holds a copy past its timeout (given up, or overdue with its
spare waiting), the pool's processes are terminated and a fresh pool
takes the remaining tasks, so a map never waits on a stalled copy.

:func:`parallel_map` maps ``fn(item)`` in item order: a plain loop for
``n_jobs=1``, chunked tasks when there is neither a timeout nor failure
capture, one item per task otherwise.  Seeding each item by itself
keeps a map deterministic; functions and items must be picklable.
"""

from __future__ import annotations

import math
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

from .exceptions import MatrixValueError

__all__ = ["WorkerFailure", "parallel_map", "resolve_n_jobs"]

T = TypeVar("T")
R = TypeVar("R")

#: Chunks submitted per worker.  One chunk per worker minimizes pickling
#: round-trips but loses load balancing when per-item cost varies; a few
#: chunks per worker keeps both overheads small.
_CHUNKS_PER_WORKER = 4

_UNSETTLED = object()


@dataclass(frozen=True)
class WorkerFailure:
    """One failed task: its position and the exception that killed it.

    ``timed_out`` distinguishes a straggler abandoned at ``timeout_s``
    (its ``error`` is a synthesized :class:`TimeoutError`) from a worker
    that raised.
    """

    index: int
    error: BaseException
    timed_out: bool = False

    def __repr__(self) -> str:  # keep tracebacks readable in reports
        kind = "timeout" if self.timed_out else type(self.error).__name__
        return f"WorkerFailure(index={self.index}, {kind}: {self.error})"


@dataclass
class Copy:
    """One dispatched copy of a task in the scheduler's log.

    Times are ``time.monotonic()``; a given-up copy ends when the
    scheduler gives up on it.  ``fate`` is ``"won"``/``"failed"`` (its
    value/exception settled the task), ``"lost"`` (cancelled or
    terminated in favour of a sibling) or ``"timed_out"``.
    """

    task: int
    attempt: int
    dispatched: float
    ended: float = 0.0
    fate: str = "running"


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalize an ``n_jobs`` argument (None/1 = serial, -1 = all CPUs)."""
    import os

    if n_jobs is None:
        return 1
    if not isinstance(n_jobs, int) or isinstance(n_jobs, bool):
        raise MatrixValueError(f"n_jobs must be an int, got {n_jobs!r}")
    if n_jobs == -1:
        return max(1, os.cpu_count() or 1)
    if n_jobs < 1:
        raise MatrixValueError(f"n_jobs must be >= 1 or -1, got {n_jobs}")
    return n_jobs


def _schedule(
    fn: Callable, tasks: Sequence, *, workers: int, timeout_s=None, spares=0
) -> tuple[list, list[Copy]]:
    """Run ``fn(task, attempt)`` for every task under the module's rule.

    Returns ``(results, log)``: ``results[i]`` is task ``i``'s winning
    value or a :class:`WorkerFailure`; ``log`` holds one :class:`Copy`
    per dispatched copy, in dispatch order.
    """
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    results = [_UNSETTLED] * len(tasks)
    log: list[Copy] = []
    ready = deque((index, 0) for index in range(len(tasks)))
    running: dict[Future, Copy] = {}  # copies of unsettled tasks
    deadlines: dict[Future, float] = {}  # running copies not yet overdue
    orphans: set[Future] = set()  # given-up copies that may hold a worker
    unsettled = len(tasks)

    def settle(index, value, winner, now):
        nonlocal unsettled
        results[index] = value
        unsettled -= 1
        for future in [f for f, copy in running.items() if copy.task == index]:
            copy = running.pop(future)
            deadlines.pop(future, None)
            copy.ended = now
            if future is winner:
                copy.fate = "failed" if isinstance(value, WorkerFailure) else "won"
            else:
                copy.fate = "lost" if winner is not None else "timed_out"
                if not future.cancel():
                    orphans.add(future)

    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        while unsettled:
            orphans.difference_update([f for f in orphans if f.done()])
            if (
                timeout_s is not None
                and not deadlines
                and len(running) + len(orphans) >= workers
                and not any(f.done() for f in running)
            ):
                # Every worker holds a copy past its timeout: one given
                # up, or one whose spare waits for a worker.  Nothing
                # bounds that wait, so terminate them and go on with a
                # fresh pool; an overdue copy is lost to its spare.
                now = time.monotonic()
                for copy in running.values():
                    copy.ended, copy.fate = now, "lost"
                running.clear()
                _shutdown(pool, terminate=True)
                pool, orphans = ProcessPoolExecutor(max_workers=workers), set()
            while ready and len(running) + len(orphans) < workers:
                index, attempt = ready.popleft()
                if results[index] is not _UNSETTLED:
                    continue  # settled while this spare waited for a worker
                copy = Copy(index, attempt, time.monotonic())
                log.append(copy)
                try:
                    future = pool.submit(fn, tasks[index], attempt)
                except BrokenProcessPool as error:  # a worker process died
                    future = Future()
                    future.set_exception(error)
                running[future] = copy
                if timeout_s is not None:
                    deadlines[future] = copy.dispatched + timeout_s
            done, _ = wait(
                running.keys() | orphans,
                timeout=(
                    max(0.0, min(deadlines.values()) - time.monotonic())
                    if deadlines
                    else None
                ),
                return_when=FIRST_COMPLETED,
            )
            now = time.monotonic()
            for future in done:
                if future not in running:
                    continue  # an orphan ended, or a sibling just settled
                index, error = running[future].task, future.exception()
                failure = WorkerFailure(index, error) if error is not None else None
                settle(index, failure or future.result(), future, now)
            for future in [f for f, due in deadlines.items() if due <= now]:
                if deadlines.pop(future, None) is None:
                    continue  # settled along with a sibling
                copy = running[future]
                if copy.attempt < spares:
                    ready.appendleft((copy.task, copy.attempt + 1))
                    continue
                error = TimeoutError(
                    f"worker for item {copy.task} exceeded timeout_s={timeout_s:g}"
                )
                settle(copy.task, WorkerFailure(copy.task, error, True), None, now)
    finally:
        _shutdown(
            pool, terminate=bool(running) or any(not f.done() for f in orphans)
        )
    return results, log


def _shutdown(pool, *, terminate: bool) -> None:
    """Shut ``pool`` down, cancelling queued work.

    ``terminate`` kills the pool's processes outright first — for a
    pool whose remaining workers are stragglers nobody waits for.  The
    join is then instant, and waiting for it lets the executor close
    its wakeup pipes cleanly instead of tripping the interpreter's
    atexit hook on a dead pool.
    """
    if terminate:
        for process in (pool._processes or {}).values():
            process.terminate()
    pool.shutdown(wait=True, cancel_futures=True)


def _map_chunk(task, attempt):
    """Scheduler task (picklable): ``fn`` over one chunk of items."""
    fn, items = task
    return [fn(item) for item in items]


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    n_jobs: int | None = None,
    timeout_s: float | None = None,
    return_failures: bool = False,
) -> list[R]:
    """Map ``fn`` over ``items``, optionally across processes.

    Results are returned in item order regardless of worker scheduling.

    Parameters
    ----------
    fn, items, n_jobs
        ``n_jobs=None``/1 runs a plain deterministic loop, larger values
        (or -1) use a process pool.
    timeout_s : float or None
        Per-item wall-clock bound, counted from when a worker takes the
        item; an item still running then becomes a timed-out
        :class:`WorkerFailure` and its process is terminated (at
        shutdown, or once stalled copies hold every worker), so the
        call never hangs.  Requires ``n_jobs >= 2``
        (an in-process call cannot be preempted): a serial map with a
        timeout raises :class:`~repro.exceptions.MatrixValueError`.
    return_failures : bool
        When True, an item whose worker raises (or times out) yields a
        :class:`WorkerFailure` in its result slot instead of aborting
        the whole map.  When False (default), the first failed item's
        exception propagates (a timeout raises :class:`TimeoutError`).

    Examples
    --------
    >>> parallel_map(abs, [-2, 3, -1])
    [2, 3, 1]
    >>> failures = parallel_map(
    ...     int, ["1", "x"], return_failures=True)
    >>> failures[0], type(failures[1]).__name__
    (1, 'WorkerFailure')
    """
    jobs = resolve_n_jobs(n_jobs)
    if timeout_s is not None:
        if not isinstance(timeout_s, (int, float)) or not 0 < timeout_s < math.inf:
            raise MatrixValueError(
                f"timeout_s must be a positive finite number or None, got "
                f"{timeout_s!r}"
            )
        if jobs == 1:
            raise MatrixValueError(
                "timeout_s requires a process pool (n_jobs >= 2): a "
                "serial in-process call cannot be preempted"
            )
    materialized: Sequence[T] = list(items)
    results: list = []
    if jobs == 1 or (len(materialized) <= 1 and timeout_s is None):
        for i, item in enumerate(materialized):
            try:
                results.append(fn(item))
            except Exception as exc:
                if not return_failures:
                    raise
                results.append(WorkerFailure(index=i, error=exc))
        return results
    workers = min(jobs, max(1, len(materialized)))
    size = 1
    if timeout_s is None and not return_failures:
        # One pickle round-trip per chunk instead of per item, so large
        # ensembles don't drown in IPC overhead.
        size = -(-len(materialized) // (workers * _CHUNKS_PER_WORKER))
    chunks = [
        (fn, materialized[i : i + size]) for i in range(0, len(materialized), size)
    ]
    for chunk in _schedule(_map_chunk, chunks, workers=workers, timeout_s=timeout_s)[0]:
        if not isinstance(chunk, WorkerFailure):
            results.extend(chunk)
        elif return_failures:
            results.append(chunk)
        else:
            raise chunk.error
    return results
