"""Streaming execution of disk-backed ensembles through the batched kernels.

:func:`characterize_store` is the out-of-core sibling of
:func:`repro.batch.characterize_ensemble`: it walks a
:class:`~repro.shard.store.StackStore` shard by shard (plan from
:func:`repro.shard.planner.plan_shards`), characterizes each ``(chunk,
T, M)`` slice with the in-memory pipeline, and merges the parts with
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
  timeout under the scheduler's rule, with one spare copy per shard; a
  shard whose both copies run past it has its members quarantined as
  ``timeout``.  The scheduler's copy log feeds the
  ``repro_shard_dispatch_total`` counter, ``repro_shard_chunk_seconds``
  and the ``shard.dispatch`` / ``shard.worker.lost`` spans.

Fault injection (:class:`~repro.robust.FaultPlan`) keeps in-memory
semantics: data faults are applied at *absolute* member indices before
a chunk enters the pipeline (``FaultPlan.apply_member`` derives
corruption positions from the index), and a ``stall`` fault sleeps on
attempt 0 of the task that holds the member — here, the shard's first
copy.  Member data is untouched, so results stay bit-identical to a
stall-free run.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import replace

import numpy as np

from .._parallel import WorkerFailure, _schedule, resolve_n_jobs
from .._validation import check_positive_int, check_positive_scalar
from ..exceptions import MatrixValueError
from ..normalize.standard_form import DEFAULT_TOL
from ..obs import current_recorder, metrics as _metrics, span as _obs_span, traced
from ..obs.trace_context import (
    TraceContext,
    append_span_record,
    current_trace,
    current_tracer,
)
from ..robust.taxonomy import check_policy
from .merge import merge_characterizations
from .planner import plan_shards
from .store import StackStore

__all__ = ["characterize_store"]


def _split_faults(fault_plan, n_members: int):
    """Validate a plan against the store; split (data specs, stall specs)."""
    if fault_plan is None:
        return (), ()
    data, stalls = [], []
    for spec in fault_plan.faults:
        if spec.member >= n_members:
            raise MatrixValueError(
                f"fault targets member {spec.member} but the store has "
                f"only {n_members} members"
            )
        (stalls if spec.kind == "stall" else data).append(spec)
    return tuple(data), tuple(stalls)


def _read_chunk(store: StackStore, start: int, stop: int, specs):
    """Members ``[start, stop)`` with their data faults applied.

    Faults are applied at absolute member indices via a single-spec
    :class:`~repro.robust.FaultPlan`, so the corrupted rows/columns are
    exactly the ones the in-memory ``fault_plan.apply(stack)`` would
    produce.
    """
    from ..robust.chaos import FaultPlan

    chunk = store.read(start, stop)
    for spec in specs:
        if start <= spec.member < stop:
            plan = FaultPlan(faults=(spec,))
            chunk[spec.member - start] = plan.apply_member(
                spec.member, chunk[spec.member - start]
            )
    return chunk


def _characterize_chunk(
    store: StackStore, start: int, stop: int, data_specs, budget, deadline, kwargs
):
    """Read, fault-inject and characterize one ``[start, stop)`` chunk,
    under the run deadline's remainder (``member_timeout_s`` belongs to
    the scheduler, not to the chunk pipeline)."""
    from ..batch.ensemble import characterize_ensemble

    if budget is not None:
        budget = replace(
            budget, deadline_s=deadline.remaining(), member_timeout_s=None
        )
    chunk = _read_chunk(store, start, stop, data_specs)
    return characterize_ensemble(chunk, budget=budget, **kwargs)


def _shard_worker(task, attempt):
    """Scheduler task (picklable): characterize one shard.

    Opens the store by path and memory-maps only its own slice; the
    first copy (``attempt == 0``) hosts any injected stall, so a spare
    copy models a healthy replacement machine.

    ``trace`` (optional) is the serialized span-context handoff:
    ``(span_file_path, shard_context_payload)``.  Every copy of a shard
    receives the *same* pre-allocated shard context, so the primary and
    its spare emit sibling ``shard.worker`` spans under one
    ``shard.dispatch`` parent.  The record is written with one
    ``O_APPEND`` write (atomic under ``PIPE_BUF``), so concurrent
    workers sharing the span file never interleave lines.
    """
    (
        store_path, start, stop, stall_s, data_specs, budget, deadline,
        kwargs, trace,
    ) = task
    if attempt == 0 and stall_s > 0.0:
        time.sleep(stall_s)
    wall_start = time.time()
    t0 = time.perf_counter()
    c0 = time.process_time()
    store = StackStore(store_path)
    result = _characterize_chunk(
        store, start, stop, data_specs, budget, deadline, kwargs
    )
    if trace is not None:
        trace_path, ctx_payload = trace
        context = TraceContext.from_payload(ctx_payload)
        if context is not None:
            # os.urandom span ids are fork-safe: sibling workers never
            # inherit shared RNG state and mint identical ids.
            append_span_record(
                trace_path,
                {
                    "type": "span",
                    "name": "shard.worker",
                    "trace_id": context.trace_id,
                    "span_id": os.urandom(8).hex(),
                    "parent_id": context.span_id,
                    "start": wall_start,
                    "wall_s": time.perf_counter() - t0,
                    "cpu_s": time.process_time() - c0,
                    "pid": os.getpid(),
                    "process": f"shard-worker-{os.getpid()}",
                    "meta": {
                        "attempt": attempt,
                        "start_member": start,
                        "members": stop - start,
                    },
                },
            )
    return result


def _run_serial(store, plan, data_specs, shard_stalls, budget, deadline, kwargs):
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
                result = _characterize_chunk(
                    mapped,
                    shard.start,
                    shard.stop,
                    data_specs,
                    budget,
                    deadline,
                    kwargs,
                )
            _metrics.record(
                ("repro_shard_chunks_total", ("serial",), 1.0),
                ("repro_shard_members_total", ("serial",), shard.n_members),
                ("repro_shard_chunk_seconds", ("serial",), time.perf_counter() - t0),
                ("repro_shard_dispatch_total", ("primary",), 1.0),
            )
            parts.append((shard.start, result))
    return parts


def _dispatch(store, plan, jobs, data_specs, shard_stalls, budget, deadline, kwargs):
    """Run the shards as one scheduler call, with one spare copy each."""
    # One trace context per shard, so every copy of a shard emits a
    # sibling span under the same ``shard.dispatch`` parent.  Workers
    # append to a file, so only file-backed tracers cross over.
    tracer = current_tracer()
    contexts = {}
    if tracer is not None and tracer.path is not None:
        ambient = current_trace()
        run_ctx = ambient if ambient is not None else TraceContext.new()
        contexts = {shard.index: run_ctx.child() for shard in plan.shards}
    tasks = [
        (
            str(store.path), shard.start, shard.stop,
            shard_stalls.get(shard.index, 0.0), data_specs, budget, deadline,
            kwargs,
            (tracer.path, contexts[shard.index].to_payload()) if contexts else None,
        )
        for shard in plan.shards
    ]
    results, log = _schedule(
        _shard_worker,
        tasks,
        workers=min(jobs, len(tasks)),
        timeout_s=budget.member_timeout_s if budget is not None else None,
        spares=1,
    )
    _record_dispatch(plan, log, tracer, contexts)
    parts = []
    for shard, result in zip(plan.shards, results):
        if isinstance(result, WorkerFailure):
            if not result.timed_out:
                raise result.error
            result = _timed_out_part(
                store, shard, data_specs, budget, deadline, kwargs
            )
        parts.append((shard.start, result))
    return parts


def _record_dispatch(plan, log, tracer, contexts) -> None:
    """Dispatch metrics, counters and spans, read off the copy log."""
    rec = current_recorder()
    count = rec.counter if rec is not None else lambda name, value: None
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
        if copy.attempt:
            count("shard.speculative", 1)
        if copy.fate == "won":
            who = "backup" if copy.attempt else "primary"
            _metrics.record(
                ("repro_shard_chunks_total", ("pool",), 1.0),
                ("repro_shard_members_total", ("pool",), shard.n_members),
                ("repro_shard_chunk_seconds", ("pool",), wall_s),
                ("repro_shard_dispatch_total", (f"winner_{who}",), 1.0),
            )
            if copy.attempt:
                count("shard.backup_wins", 1)
            if context is not None:
                meta.update(winner=who, speculated=copies[copy.task] > 1)
                tracer.emit_span("shard.dispatch", context, meta=meta, **timing)
        elif copy.fate == "lost":
            _metrics.record(("repro_shard_dispatch_total", ("cancelled",), 1.0))
            count("shard.cancelled", 1)
            if context is not None:
                # The loser may never write its own span (its process is
                # terminated at shutdown), so its log entry stands in as
                # a sibling of the winner's ``shard.worker`` span.
                tracer.emit_span(
                    "shard.worker.lost",
                    context.child(),
                    meta={"attempt": copy.attempt, **meta},
                    error="lost the dispatch race; cancelled",
                    **timing,
                )


def _timed_out_part(store, shard, data_specs, budget, deadline, kwargs):
    """A shard whose every copy ran past the timeout: its members are
    quarantined as ``timeout``, and recomputed in process by the
    ``local-retry`` rung under ``policy="repair"``."""
    from ..batch.ensemble import EnsembleCharacterization
    from ..robust.repair import apply_policy, recovered_columns

    n = shard.n_members
    part = EnsembleCharacterization(
        *np.full((3, n), np.nan),
        iterations=np.full(n, -1, dtype=np.int64),
        converged=np.zeros(n, dtype=bool),
        batched=np.zeros(n, dtype=bool),
        n_tasks=store.n_tasks,
        n_machines=store.n_machines,
    )

    def member(i):
        start = shard.start + i
        return _read_chunk(store, start, start + 1, data_specs)[0]

    def splice(i, repaired, standard):
        columns = (part.mph, part.tdh, part.tma, part.iterations, part.converged)
        for column, value in zip(columns, recovered_columns(repaired, standard)):
            column[i] = value

    detail = (
        f"shard of members [{shard.start}, {shard.stop}) exceeded "
        f"member_timeout_s={budget.member_timeout_s:g} on every copy"
    )
    report = apply_policy(
        dict.fromkeys(range(n), ("timeout", detail)),
        policy=kwargs["policy"],
        member=member,
        splice=splice,
        tol=kwargs["tol"],
        max_iterations=kwargs["max_iterations"],
        budget=budget,
        deadline=deadline,
    )
    return replace(part, report=report)


@traced(name="shard.characterize_store")
def characterize_store(
    store,
    *,
    memory_budget_mb: float | None = None,
    chunk_size: int | None = None,
    tol: float = DEFAULT_TOL,
    max_iterations: int = 100_000,
    tma_fallback: str = "limit",
    batched: bool = True,
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
        run (chunks receive the remainder); in pool mode
        ``member_timeout_s`` is the per-shard timeout that dispatches a
        spare copy, and quarantines the shard's members as ``timeout``
        once the spare runs past it too.
    fault_plan : repro.robust.FaultPlan, optional
        Chaos injection.  Data faults match the in-memory path exactly
        (absolute member indices); ``stall`` faults stall the first
        copy of the shard that holds the member (see the module
        docstring).
    tol, max_iterations, tma_fallback, batched, policy, backend
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
    if not isinstance(store, StackStore):
        store = StackStore(store)
    if not check_policy(policy) and budget is not None:
        raise MatrixValueError(
            "budget requires policy='quarantine' or policy='repair'"
        )
    tol = check_positive_scalar(tol, name="tol", allow_zero=True)
    max_iterations = check_positive_int(max_iterations, name="max_iterations")
    memory_budget_bytes = None
    if memory_budget_mb is not None:
        if not isinstance(memory_budget_mb, (int, float)) or (
            isinstance(memory_budget_mb, bool) or memory_budget_mb <= 0
        ):
            raise MatrixValueError(
                f"memory_budget_mb must be a positive number, got "
                f"{memory_budget_mb!r}"
            )
        memory_budget_bytes = int(memory_budget_mb * 2**20)

    plan = plan_shards(
        store.n_members,
        store.n_tasks,
        store.n_machines,
        memory_budget_bytes=memory_budget_bytes,
        chunk_size=chunk_size,
    )
    jobs = resolve_n_jobs(n_jobs)
    data_specs, stall_specs = _split_faults(fault_plan, store.n_members)
    shard_stalls: dict[int, float] = {}
    for spec in stall_specs:
        for shard in plan.shards:
            if shard.start <= spec.member < shard.stop:
                shard_stalls[shard.index] = max(
                    shard_stalls.get(shard.index, 0.0), spec.stall_s
                )
                break
    deadline = budget.start() if budget is not None else None
    if deadline is None:
        from ..robust.budget import Deadline

        deadline = Deadline(None)

    rec = current_recorder()
    if rec is not None:
        rec.counter("shard.shards", len(plan.shards))
        rec.counter("shard.members", plan.n_members)

    kwargs = {
        "tol": tol,
        "max_iterations": max_iterations,
        "tma_fallback": tma_fallback,
        "batched": batched,
        "policy": policy,
        "backend": backend,
    }
    if jobs == 1 or len(plan.shards) == 1:
        parts = _run_serial(
            store, plan, data_specs, shard_stalls, budget, deadline, kwargs
        )
    else:
        parts = _dispatch(
            store, plan, jobs, data_specs, shard_stalls, budget, deadline,
            kwargs,
        )
    return merge_characterizations(parts)
