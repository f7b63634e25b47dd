"""Optional process-level parallelism for embarrassingly parallel studies.

The numerical kernels are vectorized numpy and don't benefit from
Python-level threading, but the *study* layers (sensitivity trials,
correlation ensembles, generator footprints) are embarrassingly
parallel across independently seeded work items.  ``parallel_map`` runs
such a function over its items with an optional process pool:

* ``n_jobs=1`` (default) — plain loop, zero overhead, fully
  deterministic ordering;
* ``n_jobs>1`` — ``concurrent.futures.ProcessPoolExecutor``; results
  come back in submission order, so determinism is preserved as long
  as the per-item work is seeded per item (every study in this library
  derives one child seed per item up front).

Fault tolerance (used by the robust ensemble policies): ``return_failures=True``
captures per-item exceptions as :class:`WorkerFailure` records instead
of aborting the whole map, and ``timeout_s`` bounds the wait on each
item so a straggling worker cannot hang the pipeline — its slot is
reported as a timed-out :class:`WorkerFailure` and the stalled process
is terminated at shutdown.

The callable and its items must be picklable (module-level functions
and plain data), which is why the study workers live at module scope.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
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


@dataclass(frozen=True)
class WorkerFailure:
    """One failed map item: its position and the exception that killed it.

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
        As before: ``n_jobs=None``/1 runs a plain deterministic loop,
        larger values (or -1) use a process pool.
    timeout_s : float or None
        Per-item wall-clock bound.  Requires a process pool
        (``n_jobs >= 2``): an in-process call cannot be preempted, so a
        serial map with a timeout raises
        :class:`~repro.exceptions.MatrixValueError` immediately rather
        than silently not enforcing the bound.  An item whose result is
        not available within ``timeout_s`` of being waited on becomes a
        timed-out :class:`WorkerFailure`; other items complete normally
        and the stalled process is terminated at shutdown so the call
        never hangs.
    return_failures : bool
        When True, an item whose worker raises (or times out) yields a
        :class:`WorkerFailure` in its result slot instead of aborting
        the whole map.  When False (default), worker exceptions
        propagate and a timeout raises :class:`TimeoutError`.

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
        if not isinstance(timeout_s, (int, float)) or timeout_s <= 0:
            raise MatrixValueError(
                f"timeout_s must be a positive number or None, got "
                f"{timeout_s!r}"
            )
        if jobs == 1:
            raise MatrixValueError(
                "timeout_s requires a process pool (n_jobs >= 2): a "
                "serial in-process call cannot be preempted"
            )
    materialized: Sequence[T] = list(items)
    if jobs == 1 or (len(materialized) <= 1 and timeout_s is None):
        if not return_failures:
            return [fn(item) for item in materialized]
        results: list[R] = []
        for i, item in enumerate(materialized):
            try:
                results.append(fn(item))
            except Exception as exc:
                results.append(WorkerFailure(index=i, error=exc))
        return results
    workers = min(jobs, max(1, len(materialized)))
    if timeout_s is None and not return_failures:
        # Fast path: chunked submission, one pickle round-trip per chunk
        # instead of per item, so large ensembles don't drown in IPC
        # overhead.
        chunksize = -(-len(materialized) // (workers * _CHUNKS_PER_WORKER))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, materialized, chunksize=chunksize))
    # Fault-tolerant path: one future per item so a single straggler or
    # crash is isolated to its own result slot.
    pool = ProcessPoolExecutor(max_workers=workers)
    results = []
    any_timeout = False
    try:
        futures = [pool.submit(fn, item) for item in materialized]
        for i, future in enumerate(futures):
            try:
                # In 3.10 concurrent.futures.TimeoutError is distinct
                # from the builtin; catch both.
                results.append(future.result(timeout=timeout_s))
            except (_FuturesTimeout, TimeoutError):
                any_timeout = True
                error = TimeoutError(
                    f"worker for item {i} exceeded timeout_s={timeout_s:g}"
                )
                if not return_failures:
                    raise error from None
                results.append(
                    WorkerFailure(index=i, error=error, timed_out=True)
                )
            except Exception as exc:
                if not return_failures:
                    raise
                results.append(WorkerFailure(index=i, error=exc))
    finally:
        # A stalled worker would block a clean shutdown (all healthy
        # futures have already been collected above).
        _shutdown(pool, terminate=any_timeout)
    return results


def _shutdown(pool: ProcessPoolExecutor, *, terminate: bool) -> None:
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
