"""Streaming execution of disk-backed ensembles through the batched kernels.

:func:`characterize_store` is the out-of-core sibling of
:func:`repro.batch.characterize_ensemble`: it walks a
:class:`~repro.shard.store.StackStore` shard by shard (plan from
:func:`repro.shard.planner.plan_shards`), characterizes each ``(chunk,
T, M)`` slice with the in-memory pipeline, and merges the parts with
:func:`repro.shard.merge.merge_characterizations`.  Because the batched
kernels are per-slice independent, the merged result is bit-identical
to characterizing the whole stack in RAM — the differential harness in
``tests/shard/test_differential.py`` pins exactly that, across
backends and policies.

Two dispatch modes:

* ``n_jobs=1`` (default) — serial streaming: one chunk of heap at a
  time, peak memory bounded by the planner's budget regardless of the
  store size.
* ``n_jobs>=2`` — a shard scheduler over a process pool.  Workers
  receive ``(store_path, start, stop)`` and memory-map their own slice,
  so nothing but shard coordinates crosses the pickle boundary.  When a
  :class:`~repro.robust.Budget` carries ``member_timeout_s``, the
  scheduler treats it as the per-*shard* timeout and mitigates
  stragglers by speculation: a shard still running at its timeout is
  re-dispatched redundantly, the first copy to finish wins, and the
  loser is cancelled (or its process terminated at shutdown).  The
  ``repro_shard_dispatch_total`` counter records primaries,
  speculative re-dispatches, winners and cancellations.

Fault injection (:class:`~repro.robust.FaultPlan`) keeps in-memory
semantics for data faults: they are applied at *absolute* member
indices before a chunk enters the pipeline (``FaultPlan.apply_member``
derives corruption positions from the index, so shard-relative
application would corrupt different rows).  ``stall`` faults are
lifted to shard level — the shard holding a stalled member sleeps
``stall_s`` on its primary dispatch only, modelling a machine-borne
straggler that a redundant dispatch escapes; member data is untouched,
so results stay bit-identical to a stall-free run.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import replace

from .._parallel import _shutdown, resolve_n_jobs
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


def _apply_data_faults(chunk, start: int, specs) -> None:
    """Apply data faults to ``chunk`` (members ``[start, ...)``) in place.

    Faults are applied at absolute member indices via a single-spec
    :class:`~repro.robust.FaultPlan`, so the corrupted rows/columns are
    exactly the ones the in-memory ``fault_plan.apply(stack)`` would
    produce.
    """
    from ..robust.chaos import FaultPlan

    stop = start + chunk.shape[0]
    for spec in specs:
        if start <= spec.member < stop:
            plan = FaultPlan(faults=(spec,))
            chunk[spec.member - start] = plan.apply_member(
                spec.member, chunk[spec.member - start]
            )


def _chunk_kwargs(
    *,
    tol,
    max_iterations,
    tma_fallback,
    batched,
    policy,
    backend,
    precision,
) -> dict:
    return {
        "tol": tol,
        "max_iterations": max_iterations,
        "tma_fallback": tma_fallback,
        "batched": batched,
        "policy": policy,
        "backend": backend,
        "precision": precision,
    }


def _characterize_chunk(
    store: StackStore, start: int, stop: int, data_specs, budget, kwargs
):
    """Read, fault-inject and characterize one ``[start, stop)`` chunk."""
    from ..batch.ensemble import characterize_ensemble

    chunk = store.read(start, stop)
    _apply_data_faults(chunk, start, data_specs)
    return characterize_ensemble(chunk, budget=budget, **kwargs)


def _shard_worker(args):
    """Module-level pool worker (picklable): characterize one shard.

    Opens the store by path and memory-maps only its own slice; the
    primary dispatch (``attempt == 0``) hosts any injected stall, so a
    speculative re-dispatch models a healthy replacement machine.

    ``trace`` (optional) is the serialized span-context handoff:
    ``(span_file_path, shard_context_payload)``.  Both dispatch copies
    of a shard receive the *same* pre-allocated shard context, so the
    primary and its speculative backup emit sibling ``shard.worker``
    spans under one ``shard.dispatch`` parent.  The record is written
    with one ``O_APPEND`` write (atomic under ``PIPE_BUF``), so
    concurrent workers sharing the span file never interleave lines.
    """
    (
        store_path, start, stop, attempt, stall_s, data_specs, budget,
        kwargs, trace,
    ) = args
    if attempt == 0 and stall_s > 0.0:
        time.sleep(stall_s)
    wall_start = time.time()
    t0 = time.perf_counter()
    c0 = time.process_time()
    store = StackStore(store_path)
    result = _characterize_chunk(
        store, start, stop, data_specs, budget, kwargs
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
    return start, result


def _shard_budget(budget, deadline):
    """The budget a chunk call runs under: run-level deadline remainder.

    The scheduler consumes ``member_timeout_s`` itself (it is the
    per-shard speculation trigger in pool mode), so the chunk pipeline
    sees only the deadline and repair knobs.
    """
    if budget is None:
        return None
    return replace(
        budget,
        deadline_s=deadline.remaining(),
        member_timeout_s=None,
    )


def _run_serial(store, plan, data_specs, shard_stalls, budget, deadline, kwargs):
    parts = []
    for shard in plan.shards:
        stall_s = shard_stalls.get(shard.index, 0.0)
        with _obs_span(
            "shard.chunk", start=shard.start, members=shard.n_members
        ):
            if stall_s > 0.0:
                time.sleep(stall_s)
            t0 = time.perf_counter()
            result = _characterize_chunk(
                store,
                shard.start,
                shard.stop,
                data_specs,
                _shard_budget(budget, deadline),
                kwargs,
            )
        _metrics.observe_shard_chunk(
            "serial", members=shard.n_members, wall_s=time.perf_counter() - t0
        )
        _metrics.count_shard_dispatch("primary")
        parts.append((shard.start, result))
    return parts


def _run_pool(
    store, plan, jobs, data_specs, shard_stalls, budget, deadline, kwargs
):
    """The speculating shard scheduler (see the module docstring)."""
    rec = current_recorder()
    timeout = budget.member_timeout_s if budget is not None else None
    store_path = str(store.path)
    # Trace handoff: pre-allocate one context per shard so both dispatch
    # copies (primary + speculative backup) emit sibling spans under the
    # same ``shard.dispatch`` parent.  Workers need a file path to append
    # to, so only file-backed tracers cross the process boundary.
    tracer = current_tracer()
    trace_path = tracer.path if tracer is not None else None
    dispatch_ctx: dict[int, TraceContext] = {}
    if trace_path is not None:
        ambient = current_trace()
        run_ctx = ambient if ambient is not None else TraceContext.new()
        for shard in plan.shards:
            dispatch_ctx[shard.index] = run_ctx.child()

    def submit(pool, shard, attempt):
        _metrics.count_shard_dispatch(
            "primary" if attempt == 0 else "speculative"
        )
        trace = None
        if trace_path is not None:
            trace = (trace_path, dispatch_ctx[shard.index].to_payload())
        return pool.submit(
            _shard_worker,
            (
                store_path,
                shard.start,
                shard.stop,
                attempt,
                shard_stalls.get(shard.index, 0.0),
                data_specs,
                _shard_budget(budget, deadline),
                kwargs,
                trace,
            ),
        )

    parts = []
    results_by_shard = {}
    outstanding = {}  # future -> (shard, attempt)
    dispatched_at = {}  # future -> monotonic dispatch time
    backups = {}  # shard.index -> backup future
    abandoned = False
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(plan.shards)))
    try:
        for shard in plan.shards:
            future = submit(pool, shard, attempt=0)
            outstanding[future] = (shard, 0)
            dispatched_at[future] = time.monotonic()

        while len(results_by_shard) < len(plan.shards):
            wait_s = None
            if timeout is not None:
                now = time.monotonic()
                due = [
                    dispatched_at[f] + timeout
                    for f, (shard, attempt) in outstanding.items()
                    if attempt == 0 and shard.index not in backups
                ]
                if due:
                    wait_s = max(0.0, min(due) - now)
            done, _ = wait(
                set(outstanding), timeout=wait_s, return_when=FIRST_COMPLETED
            )
            for future in done:
                shard, attempt = outstanding.pop(future)
                if shard.index in results_by_shard:
                    continue  # the sibling already won
                error = future.exception()
                if error is not None:
                    raise error
                start, result = future.result()
                results_by_shard[shard.index] = (start, result)
                wall_s = time.monotonic() - dispatched_at[future]
                _metrics.observe_shard_chunk(
                    "pool", members=shard.n_members, wall_s=wall_s
                )
                _metrics.count_shard_dispatch(
                    "winner_backup" if attempt else "winner_primary"
                )
                if tracer is not None and shard.index in dispatch_ctx:
                    tracer.emit_span(
                        "shard.dispatch",
                        dispatch_ctx[shard.index],
                        wall_s=wall_s,
                        meta={
                            "start_member": shard.start,
                            "members": shard.n_members,
                            "winner": "backup" if attempt else "primary",
                            "speculated": shard.index in backups,
                        },
                    )
                if attempt and rec is not None:
                    rec.counter("shard.backup_wins", 1)
                sibling = next(
                    (
                        f
                        for f, (s, _) in outstanding.items()
                        if s.index == shard.index
                    ),
                    None,
                )
                if sibling is not None:
                    _, lost_attempt = outstanding.pop(sibling)
                    if not sibling.cancel():
                        # Already running (the straggler): abandon it
                        # and terminate its process at shutdown.
                        abandoned = True
                    if tracer is not None and shard.index in dispatch_ctx:
                        # The loser may never get to write its own span
                        # (its process is terminated at shutdown), so
                        # the scheduler records the losing dispatch as a
                        # sibling of the winner's ``shard.worker`` span.
                        tracer.emit_span(
                            "shard.worker.lost",
                            dispatch_ctx[shard.index].child(),
                            wall_s=time.monotonic()
                            - dispatched_at[sibling],
                            meta={
                                "attempt": lost_attempt,
                                "start_member": shard.start,
                                "members": shard.n_members,
                            },
                            error="lost the dispatch race; cancelled",
                        )
                    _metrics.count_shard_dispatch("cancelled")
                    if rec is not None:
                        rec.counter("shard.cancelled", 1)
            if timeout is not None:
                now = time.monotonic()
                for future, (shard, attempt) in list(outstanding.items()):
                    if (
                        attempt == 0
                        and shard.index not in backups
                        and shard.index not in results_by_shard
                        and now - dispatched_at[future] >= timeout
                    ):
                        backup = submit(pool, shard, attempt=1)
                        outstanding[backup] = (shard, 1)
                        dispatched_at[backup] = now
                        backups[shard.index] = backup
                        if rec is not None:
                            rec.counter("shard.speculative", 1)
    finally:
        # A straggling loser (or an error-path abort) would block a
        # clean shutdown; every wanted result is already collected.
        _shutdown(pool, terminate=abandoned or bool(outstanding))

    for shard in plan.shards:
        parts.append(results_by_shard[shard.index])
    return parts


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
    precision: str | None = None,
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
        ``member_timeout_s`` becomes the per-shard straggler timeout
        that triggers speculative re-dispatch.
    fault_plan : repro.robust.FaultPlan, optional
        Chaos injection.  Data faults match the in-memory path exactly
        (absolute member indices); ``stall`` faults stall the shard's
        primary dispatch (see the module docstring).
    tol, max_iterations, tma_fallback, batched, policy, backend, precision
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

    kwargs = _chunk_kwargs(
        tol=tol,
        max_iterations=max_iterations,
        tma_fallback=tma_fallback,
        batched=batched,
        policy=policy,
        backend=backend,
        precision=precision,
    )
    if jobs == 1 or len(plan.shards) == 1:
        parts = _run_serial(
            store, plan, data_specs, shard_stalls, budget, deadline, kwargs
        )
    else:
        parts = _run_pool(
            store, plan, jobs, data_specs, shard_stalls, budget, deadline,
            kwargs,
        )
    return merge_characterizations(parts)
