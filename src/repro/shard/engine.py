"""Streaming execution of disk-backed ensembles through the batched kernels.

:func:`characterize_store` is the out-of-core sibling of
:func:`repro.batch.characterize_ensemble`, with the same option check:
it walks a :class:`~repro.shard.store.StackStore` shard by shard (plan
from :func:`repro.shard.planner.plan_shards`), runs each ``(chunk, T,
M)`` slice through the in-memory body at the chunk's absolute member
offset, under the run's one deadline, and merges the parts with
:func:`repro.shard.merge.merge_characterizations`.  Because the batched
kernels are per-slice independent, the merged result is bit-identical
to characterizing the whole stack in RAM — the conformance table in
``tests/test_conformance.py`` pins exactly that, across dispatch modes,
policies and backends.

Two dispatch modes:

* ``n_jobs=1`` (default) — serial streaming: one chunk of heap at a
  time, peak memory bounded by the planner's budget regardless of the
  store size.
* ``n_jobs>=2`` — one call to the process-pool scheduler of
  :mod:`repro._parallel`, one task per shard.  Workers receive
  ``(store_path, start, stop)`` and memory-map their own slice, so
  nothing but shard coordinates crosses the pickle boundary.  A
  :class:`~repro.robust.Budget`'s ``member_timeout_s`` is the per-shard
  timeout under the scheduler's rule, with one spare copy per shard.
  The scheduler's copy log feeds the ``repro_shard_dispatch_total``
  counter, ``repro_shard_chunk_seconds`` and the ``shard.dispatch`` /
  ``shard.worker.lost`` spans.

A shard that raised, or whose both copies ran past the timeout, gets
the in-memory rule for a failed worker: under the robust policies each
of its members is faulted with its error's category (``worker-error``,
or ``timeout``, which ``"repair"`` recomputes in process).

Fault injection (:class:`~repro.robust.FaultPlan`) keeps in-memory
semantics: data faults are applied at *absolute* member indices, and a
``stall`` fault sleeps on the first copy of the shard that holds the
member, so results stay bit-identical to a stall-free run.
"""

from __future__ import annotations

import contextvars
import time
from collections import Counter

import numpy as np

from .._parallel import WorkerFailure, _schedule, resolve_n_jobs
from .._validation import check_positive_scalar
from ..batch._stack import _ecs_stack
from ..batch.ensemble import _characterize_members, _check_options
from ..normalize.standard_form import DEFAULT_TOL
from ..obs import (
    JsonlSink,
    TraceContext,
    current_trace,
    metrics as _metrics,
    note,
    record_span,
    span as _obs_span,
    trace_scope,
    traced,
)
from ..obs.recorder import current_sinks
from ..robust.chaos import _check_members, _inject
from ..robust.taxonomy import classify_exception
from .merge import merge_characterizations
from .planner import plan_shards
from .store import StackStore

__all__ = ["characterize_store"]


def _characterize_chunk(store: StackStore, start, stop, fault_plan, deadline, options):
    """Members ``[start, stop)``, with their data faults, through the
    in-memory body at their absolute offset and under the run's
    deadline; under ``"raise"`` after the in-memory strict screen."""
    chunk, positive = _inject(fault_plan, store.read(start, stop), start), None
    if options["policy"] == "raise":
        chunk, positive = _ecs_stack(chunk, offset=start)
    return _characterize_members(
        chunk, positive=positive, offset=start, deadline=deadline, **options
    )


class _ShardMembers:
    """A failed shard's members, each read (with its data faults) only
    when the repair ladder asks for it."""

    def __init__(self, store: StackStore, shard, fault_plan) -> None:
        self.shape = (shard.n_members, store.n_tasks, store.n_machines)
        self._store, self._start, self._plan = store, shard.start, fault_plan

    def __getitem__(self, i: int) -> np.ndarray:
        start = self._start + i
        return _inject(self._plan, self._store.read(start, start + 1), start)[0]


def _failed_part(store: StackStore, shard, error, fault_plan, deadline, options):
    """The in-memory rule for a failed worker, for a shard that raised or
    ran past its timeout: ``error`` propagates under ``"raise"``, and
    otherwise each member is faulted with ``classify_exception(error)``
    before the body runs."""
    if options["policy"] == "raise":
        raise error
    fault = (
        classify_exception(error),
        f"shard of members [{shard.start}, {shard.stop}): {error}",
    )
    return _characterize_members(
        _ShardMembers(store, shard, fault_plan), offset=shard.start,
        deadline=deadline, preset=fault, **options,
    )


def _shard_worker(task, attempt):
    """Scheduler task (picklable): characterize one shard.

    Opens the store by path and memory-maps only its own slice; the
    first copy (``attempt == 0``) hosts any injected stall, so a spare
    copy models a healthy replacement machine.

    The task runs in an empty context, so a forked worker never writes
    to sinks it inherited.  ``trace`` (optional) is the span handoff
    ``(span_file_path, shard_context_payload)``: the worker binds a
    :class:`~repro.obs.JsonlSink` on that file under the shard context
    and runs inside a ``shard.worker`` span, so its kernel spans are
    that span's children.  Every copy of a shard receives the *same*
    shard context, so the primary and its spare are sibling
    ``shard.worker`` spans under one ``shard.dispatch`` parent.
    """
    return contextvars.Context().run(_shard_task, *task, attempt)


def _shard_task(
    store_path, start, stop, stall_s, fault_plan, deadline, options, trace,
    attempt,
):
    if attempt == 0 and stall_s > 0.0:
        time.sleep(stall_s)
    args = (StackStore(store_path), start, stop, fault_plan, deadline, options)
    if trace is None:
        return _characterize_chunk(*args)
    path, payload = trace
    sink = JsonlSink(path)
    try:
        with trace_scope(TraceContext.from_payload(payload), sink):
            with _obs_span(
                "shard.worker",
                attempt=attempt,
                start_member=start,
                members=stop - start,
            ):
                return _characterize_chunk(*args)
    finally:
        sink.close()


def _run_serial(store, plan, fault_plan, shard_stalls, deadline, options):
    parts = []
    # One memory map serves the whole pass, and no longer.
    with store._pass_map() as mapped:
        for shard in plan.shards:
            stall_s = shard_stalls.get(shard.index, 0.0)
            with _obs_span(
                "shard.chunk", start=shard.start, members=shard.n_members
            ):
                if stall_s > 0.0:
                    time.sleep(stall_s)
                t0 = time.perf_counter()
                try:
                    result = _characterize_chunk(
                        mapped, shard.start, shard.stop, fault_plan, deadline,
                        options,
                    )
                except Exception as error:
                    result = _failed_part(
                        mapped, shard, error, fault_plan, deadline, options
                    )
            _metrics.record(
                ("repro_shard_chunks_total", ("serial",), 1.0),
                ("repro_shard_members_total", ("serial",), shard.n_members),
                ("repro_shard_chunk_seconds", ("serial",), time.perf_counter() - t0),
                ("repro_shard_dispatch_total", ("primary",), 1.0),
            )
            parts.append((shard.start, result))
    return parts


def _dispatch(store, plan, jobs, fault_plan, shard_stalls, deadline, options):
    """Run the shards as one scheduler call, with one spare copy each."""
    # One trace context per shard, so every copy of a shard emits a
    # sibling span under the same ``shard.dispatch`` parent.  Workers
    # append to a file, so only a bound JSONL sink crosses over.
    path = next(
        (sink.path for sink in current_sinks() if isinstance(sink, JsonlSink)),
        None,
    )
    contexts = {}
    if path is not None:
        ambient = current_trace()
        run_ctx = ambient if ambient is not None else TraceContext.new()
        contexts = {shard.index: run_ctx.child() for shard in plan.shards}
    tasks = [
        (
            str(store.path), shard.start, shard.stop,
            shard_stalls.get(shard.index, 0.0), fault_plan, deadline, options,
            (path, contexts[shard.index].to_payload()) if contexts else None,
        )
        for shard in plan.shards
    ]
    results, log = _schedule(
        _shard_worker,
        tasks,
        workers=min(jobs, len(tasks)),
        timeout_s=options["budget"].member_timeout_s,
        spares=1,
    )
    _record_dispatch(plan, log, contexts)
    parts = []
    for shard, result in zip(plan.shards, results):
        if isinstance(result, WorkerFailure):
            result = _failed_part(
                store, shard, result.error, fault_plan, deadline, options
            )
        parts.append((shard.start, result))
    return parts


def _record_dispatch(plan, log, contexts) -> None:
    """Dispatch metrics and spans, read off the copy log."""
    to_wall = time.time() - time.monotonic()
    copies = Counter(copy.task for copy in log)
    for copy in log:
        shard = plan.shards[copy.task]
        context = contexts.get(shard.index)
        wall_s = copy.ended - copy.dispatched
        timing = {"wall_s": wall_s, "start": copy.dispatched + to_wall}
        meta = {"start_member": shard.start, "members": shard.n_members}
        _metrics.record(("repro_shard_dispatch_total",
                         ("speculative" if copy.attempt else "primary",), 1.0))
        if copy.fate == "won":
            who = "backup" if copy.attempt else "primary"
            _metrics.record(
                ("repro_shard_chunks_total", ("pool",), 1.0),
                ("repro_shard_members_total", ("pool",), shard.n_members),
                ("repro_shard_chunk_seconds", ("pool",), wall_s),
                ("repro_shard_dispatch_total", (f"winner_{who}",), 1.0),
            )
            if context is not None:
                meta.update(winner=who, speculated=copies[copy.task] > 1)
                with trace_scope(context):
                    record_span("shard.dispatch", context, meta=meta, **timing)
        elif copy.fate == "lost":
            _metrics.record(("repro_shard_dispatch_total", ("cancelled",), 1.0))
            if context is not None:
                # The loser may never write its own span (its process is
                # terminated at shutdown), so its log entry stands in as
                # a sibling of the winner's ``shard.worker`` span.
                with trace_scope(context):
                    record_span(
                        "shard.worker.lost",
                        context.child(),
                        meta={"attempt": copy.attempt, **meta},
                        error="lost the dispatch race; cancelled",
                        **timing,
                    )


@traced(name="shard.characterize_store")
def characterize_store(
    store,
    *,
    memory_budget_mb: float | None = None,
    chunk_size: int | None = None,
    tol: float = DEFAULT_TOL,
    max_iterations: int = 100_000,
    tma_fallback: str = "limit",
    n_jobs: int | None = None,
    policy: str = "raise",
    budget=None,
    fault_plan=None,
    backend=None,
):
    """Characterize a disk-backed ensemble with bounded peak memory.

    Parameters
    ----------
    store : StackStore or path
        The on-disk ``(N, T, M)`` stack (see :mod:`repro.shard.store`).
    memory_budget_mb : float, optional
        Peak working-set budget in MiB; the planner picks the largest
        chunk that fits (mutually exclusive with ``chunk_size``).
    chunk_size : int, optional
        Fix the members-per-chunk directly.
    n_jobs : int, optional
        1 (default) streams shards serially; >= 2 schedules them over a
        process pool whose workers memory-map their own slices.
    budget : repro.robust.Budget, optional
        Robust-policy budgets.  ``deadline_s`` bounds the whole store
        run (every chunk runs under the run's one deadline); in pool
        mode ``member_timeout_s`` is the per-shard timeout that
        dispatches a spare copy, and faults the shard's members as
        ``timeout`` once the spare runs past it too.  A shard that
        raised has its members faulted as ``worker-error``.
    fault_plan : repro.robust.FaultPlan, optional
        Chaos injection.  Data faults match the in-memory path exactly
        (absolute member indices); ``stall`` faults stall the first
        copy of the shard that holds the member (see the module
        docstring).
    tol, max_iterations, tma_fallback, policy, backend
        Exactly as :func:`repro.batch.characterize_ensemble`.

    Returns
    -------
    EnsembleCharacterization
        Bit-identical to ``characterize_ensemble(store.memmap()[:])``
        with the same options — columns in member order, quarantine
        report carrying absolute member indices.

    Examples
    --------
    >>> import numpy as np, tempfile, os
    >>> from repro.shard import write_store
    >>> path = os.path.join(tempfile.mkdtemp(), "demo")
    >>> _ = write_store(path, np.ones((6, 2, 2)) + np.arange(6.0)[:, None, None])
    >>> result = characterize_store(path, chunk_size=4)
    >>> len(result), bool(result.converged.all())
    (6, True)
    """
    options = _check_options(
        tol, max_iterations, tma_fallback, policy, budget, backend
    )
    memory_budget_bytes = None
    if memory_budget_mb is not None:
        memory_budget_bytes = int(
            check_positive_scalar(memory_budget_mb, name="memory_budget_mb") * 2**20
        )
    jobs = resolve_n_jobs(n_jobs)
    if not isinstance(store, StackStore):
        store = StackStore(store)
    _check_members(fault_plan, store.n_members)

    plan = plan_shards(
        store.n_members,
        store.n_tasks,
        store.n_machines,
        memory_budget_bytes=memory_budget_bytes,
        chunk_size=chunk_size,
    )
    shard_stalls: dict[int, float] = {}
    for member in fault_plan.stalled if fault_plan is not None else ():
        index = member // plan.chunk_size
        shard_stalls[index] = max(
            shard_stalls.get(index, 0.0), fault_plan.stall_seconds(member)
        )
    deadline = options["budget"].start()

    note(shards=len(plan.shards), members=plan.n_members)

    if jobs == 1 or len(plan.shards) == 1:
        parts = _run_serial(
            store, plan, fault_plan, shard_stalls, deadline, options
        )
    else:
        parts = _dispatch(
            store, plan, jobs, fault_plan, shard_stalls, deadline, options
        )
    return merge_characterizations(parts)
