"""One-call columnar characterization of matrix ensembles.

:func:`characterize_ensemble` is the batched sibling of
:func:`repro.measures.characterize`: it takes an ``(N, T, M)`` stack
(or any sequence of environments) and returns the three paper measures
for every member as flat arrays instead of N profile objects.

Dispatch rules (documented in ``docs/BATCHED.md``):

* all slices share a shape and are strictly positive → fully batched
  kernels (stacked Sinkhorn + one stacked spectrum step);
* zero-patterned slices → scalar :func:`repro.measures.characterize`
  per slice, so the Section-VI ``tma_fallback`` semantics
  (strict/limit/column) are honoured exactly;
* ragged shapes → the scalar path for everything, optionally across a
  process pool (``n_jobs``).

Either way the returned columns line up with the input order, and the
batched and scalar paths agree bit for bit on the numpy backend (the
conformance table in ``tests/test_conformance.py`` enforces this).

Every fault policy, and every chunk of
:func:`repro.shard.characterize_store`, runs the same members body:
pre-screen, split batched/scalar, run the kernels, then the policy
step.  A policy changes only how a screened or kernel fault is handled
(``"raise"`` propagates it, ``"quarantine"`` NaN-masks the member and
reports it, ``"repair"`` also walks the :mod:`repro.robust.repair`
ladder) and whether worker failures are captured.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .._parallel import WorkerFailure, parallel_map, resolve_n_jobs
from .._validation import (
    as_ecs_array,
    as_float_array,
    check_positive_int,
    check_positive_scalar,
    check_weights,
    unit_weights,
    weight_ecs,
)
from ..backends import resolve_backend
from ..backends.base import _line_sums
from ..core.environment import ECSMatrix, ETCMatrix, coerce_ecs_and_weights, etc_to_ecs
from ..exceptions import MatrixShapeError, MatrixValueError, ReproError, WeightError
from ..measures.alternatives import average_adjacent_ratio
from ..normalize.sinkhorn import _unscalable_error
from ..normalize.standard_form import DEFAULT_TOL
from ..obs import metrics as _metrics, note, traced
from ..robust.budget import DEFAULT_BUDGET
from ..robust.chaos import _check_members, _inject
from ..robust.repair import apply_policy, recovered_columns
from ..robust.taxonomy import (
    QuarantineReport,
    _classify,
    _unscalable_faults,
    _value_screens,
    check_policy,
    classify_exception,
    classify_matrix,
)
from ._stack import _ecs_stack, stack_members
from .measures import _scalar_measures
from .sinkhorn import _unscalable_slices

__all__ = ["EnsembleCharacterization", "characterize_ensemble"]

#: Structured dtype of :meth:`EnsembleCharacterization.records`.
ENSEMBLE_DTYPE = np.dtype(
    [
        ("mph", np.float64),
        ("tdh", np.float64),
        ("tma", np.float64),
        ("iterations", np.int64),
        ("converged", np.bool_),
        ("batched", np.bool_),
    ]
)


@dataclass(frozen=True)
class EnsembleCharacterization:
    """Columnar measures of an ensemble (one row per environment).

    Attributes
    ----------
    mph, tdh, tma : numpy.ndarray, shape (N,)
        The paper's three measures per member.
    iterations : numpy.ndarray of int, shape (N,)
        Standard-form Sinkhorn iterations; ``-1`` where no standard
        form was computed (eq. 5 column fallback, or a quarantined
        member).
    converged : numpy.ndarray of bool, shape (N,)
        Whether the standard-form iteration reached tolerance.
    batched : numpy.ndarray of bool, shape (N,)
        Which members took the batched kernels (False = scalar
        fallback — zero-patterned slice or ragged input).
    n_tasks, n_machines : int or None
        Common slice dimensions; ``None`` when the input was ragged.
    report : repro.robust.QuarantineReport or None
        The faulty members under ``policy="quarantine"``/``"repair"``;
        None under ``policy="raise"``.  Quarantined members have NaN
        measures, ``iterations == -1`` and ``converged == False``;
        repaired members carry their recovered measures and show up in
        ``report.repaired``.
    """

    mph: np.ndarray
    tdh: np.ndarray
    tma: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    batched: np.ndarray
    n_tasks: int | None
    n_machines: int | None
    report: QuarantineReport | None = None

    def __len__(self) -> int:
        return self.mph.shape[0]

    @property
    def measures(self) -> np.ndarray:
        """The ``(N, 3)`` array of (MPH, TDH, TMA) rows."""
        return np.column_stack([self.mph, self.tdh, self.tma])

    @property
    def healthy_mask(self) -> np.ndarray:
        """Boolean mask of members with a usable result row (healthy or
        repaired)."""
        mask = np.ones(len(self), dtype=bool)
        if self.report is not None:
            mask[list(self.report.quarantined)] = False
        return mask

    def records(self) -> np.ndarray:
        """The full result as a structured array (``ENSEMBLE_DTYPE``)."""
        out = np.empty(len(self), dtype=ENSEMBLE_DTYPE)
        out["mph"] = self.mph
        out["tdh"] = self.tdh
        out["tma"] = self.tma
        out["iterations"] = self.iterations
        out["converged"] = self.converged
        out["batched"] = self.batched
        return out

    def member_payload(self, index: int) -> dict:
        """JSON-safe serving row for member ``index``.

        Healthy members get their measure columns; repaired members
        additionally carry their fault record (``repaired=True``);
        quarantined members get *only* the fault record — the
        characterization service turns that into a structured error
        response without touching the NaN-masked measure row.
        """
        fault = None
        if self.report is not None:
            try:
                fault = self.report.fault(index)
            except KeyError:
                pass
        if fault is not None and not fault.repaired:
            return {"fault": fault.to_payload()}
        payload = {
            "mph": float(self.mph[index]),
            "tdh": float(self.tdh[index]),
            "tma": float(self.tma[index]),
            "iterations": int(self.iterations[index]),
            "converged": bool(self.converged[index]),
            "batched": bool(self.batched[index]),
        }
        if fault is not None:
            payload["fault"] = fault.to_payload()
        return payload

    def summary(self) -> str:
        """One-line mean ± std digest over the usable rows."""
        usable = self.measures[self.healthy_mask]
        shape = (
            f"{self.n_tasks}x{self.n_machines}"
            if self.n_tasks is not None
            else "ragged"
        )
        if usable.shape[0] == 0:
            stats = "no usable members"
        else:
            mean, std = usable.mean(axis=0), usable.std(axis=0)
            stats = (
                f"MPH {mean[0]:.3f}±{std[0]:.3f}  "
                f"TDH {mean[1]:.3f}±{std[1]:.3f}  "
                f"TMA {mean[2]:.3f}±{std[2]:.3f}"
            )
        if self.report is None:
            outcome = f"{int((~self.converged).sum())} non-converged"
        else:
            outcome = (
                f"{len(self.report.quarantined)} quarantined, "
                f"{len(self.report.repaired)} repaired"
            )
        return (
            f"{len(self)} environments ({shape}): {stats}  "
            f"[{int(self.batched.sum())} batched, {outcome}]"
        )


def _characterize_columns(args: tuple) -> tuple:
    """Module-level worker (picklable): the columns of one validated
    member by :func:`repro.characterize`'s fallback chain, under the
    ensemble's ``max_iterations``, after any injected chaos stall."""
    matrix, tol, max_iterations, tma_fallback, backend, stall_s = args
    if stall_s > 0:
        time.sleep(stall_s)
    tma, _, standard, (row_sums, col_sums) = _scalar_measures(
        as_ecs_array(matrix),
        tma_fallback=tma_fallback,
        backend=resolve_backend(backend),
        tol=tol,
        max_iterations=max_iterations,
    )
    mph, tdh = map(average_adjacent_ratio, (col_sums[0], row_sums[0]))
    if standard is None:
        return mph, tdh, tma, -1, False
    return mph, tdh, tma, int(standard.iterations[0]), True


def _lenient_member(env):
    """Best-effort member coercion: the strict coercion first.  When it
    rejects the member, a matrix wrapper gives its weighted ECS values
    and a numeric array its float64 values, so the pre-screen names the
    corruption; any other member is left as numpy reads it (as given
    when numpy cannot), for the pre-screen to quarantine as
    ``invalid-shape``."""
    try:
        return weight_ecs(*coerce_ecs_and_weights(env))
    # Raw TypeError/ValueError covers data numpy cannot even coerce
    # (e.g. a ragged nested list) — validation never gets to wrap those.
    except (ReproError, TypeError, ValueError):
        if isinstance(env, (ECSMatrix, ETCMatrix)):
            # Speeds or weighted speeds past the float64 range are inf.
            with np.errstate(over="ignore"):
                ecs = env.values
                if isinstance(env, ETCMatrix):
                    ecs = etc_to_ecs(ecs)
                return env.task_weights[:, None] * env.machine_weights * ecs
        try:
            arr = np.asarray(env)
        except (TypeError, ValueError):
            return env
        if arr.dtype.kind == "c":
            # Complex data is rejected, as in a stack, not truncated.
            raise
        return arr.astype(np.float64) if arr.dtype.kind in "iuf" else arr


def _coerce(environments, task_weights, machine_weights, *, strict: bool):
    """The one input coercion of every policy.

    Returns ``(stack, members, positive)``: a weighted ``(N, T, M)``
    float stack (and ``members=None``) when the input stacks, or
    ``stack=None`` and the list of 2-D members when the shapes are
    ragged.  ``strict`` (``policy="raise"``) rejects corrupt member
    data here; otherwise corrupt members flow through, so the
    pre-screen can quarantine them one by one.  ``positive`` is the
    mask of strictly positive slices when the strict screen of an
    unweighted array already found it, else None.
    """
    weighted = task_weights is not None or machine_weights is not None
    members = positive = None
    if isinstance(environments, np.ndarray):
        if environments.ndim != 3:
            raise MatrixShapeError(
                "array input must be a 3-D (N, T, M) stack, got ndim="
                f"{environments.ndim} (shape {environments.shape}); wrap a "
                "single matrix as matrix[None, :, :] or pass a list"
            )
        if strict:
            stack, positive = _ecs_stack(environments)
        else:
            stack = as_float_array(
                environments, ndim=3, name="ECS stack", allow_nan=True
            )
    else:
        environments = list(environments)
        if weighted and any(
            isinstance(env, (ECSMatrix, ETCMatrix)) for env in environments
        ):
            raise WeightError(
                "explicit task_weights/machine_weights require raw-array "
                "environments (matrix wrappers carry their own weights)"
            )
        members = [
            weight_ecs(*coerce_ecs_and_weights(env)) if strict else _lenient_member(env)
            for env in environments
        ]
        if not members:
            raise MatrixShapeError("cannot stack an empty environment sequence")
        stack = stack_members(members)
        if stack is not None:
            members = None
        elif weighted:
            raise WeightError(
                "explicit task_weights/machine_weights need same-shape "
                "members (the ensemble is ragged)"
            )
    if weighted:
        w_t = check_weights(task_weights, stack.shape[1], name="task_weights")
        w_m = check_weights(
            machine_weights, stack.shape[2], name="machine_weights"
        )
        if not unit_weights(w_t, w_m):
            stack = w_t[None, :, None] * w_m[None, None, :] * stack
            positive = None
    return stack, members, positive


def _batch_columns(be, stack: np.ndarray, in_batch: np.ndarray, **options):
    """Batched (MPH, TDH, TMA, iterations, converged) columns of the
    strictly positive members ``in_batch``: one fused pass of the
    resolved backend ``be``, on ``stack`` itself when every member is in
    the batch.  Per-slice results do not depend on which other slices
    share the stack, so the robust pipeline's healthy members are
    bit-identical."""
    sub = stack if in_batch.all() else stack[in_batch]
    return be.fused_standard_measures(sub, **options)


def _check_options(
    tol, max_iterations, tma_fallback, policy, budget, backend, warm_start=None
) -> dict:
    """The one option check of both ensemble entry points: the run's
    keyword options of :func:`_characterize_members`."""
    if tma_fallback not in ("limit", "column", "raise"):
        raise MatrixValueError(
            f"tma_fallback must be 'limit', 'column' or 'raise', got "
            f"{tma_fallback!r}"
        )
    tol = check_positive_scalar(tol, name="tol", allow_zero=True)
    max_iterations = check_positive_int(max_iterations, name="max_iterations")
    if not check_policy(policy, warm_start=warm_start) and budget is not None:
        raise MatrixValueError(
            "budget requires policy='quarantine' or policy='repair'"
        )
    budget = DEFAULT_BUDGET if budget is None else budget
    return dict(
        tol=tol, max_iterations=max_iterations, tma_fallback=tma_fallback,
        policy=policy, budget=budget, backend=backend,
    )


@traced(name="batch.characterize_ensemble")
def characterize_ensemble(
    environments,
    *,
    task_weights=None,
    machine_weights=None,
    tol: float = DEFAULT_TOL,
    max_iterations: int = 100_000,
    tma_fallback: str = "limit",
    n_jobs: int | None = None,
    policy: str = "raise",
    budget=None,
    fault_plan=None,
    backend=None,
    warm_start=None,
) -> EnsembleCharacterization:
    """Characterize a whole ensemble of environments in one call.

    Parameters
    ----------
    environments : numpy.ndarray of shape (N, T, M), or sequence
        A pre-built stack, or any sequence of raw arrays /
        :class:`~repro.core.ECSMatrix` / :class:`~repro.core.ETCMatrix`
        (wrapper weighting factors are folded in, as everywhere else).
        Same-shape sequences are stacked automatically; ragged ones
        fall back to the scalar path.  A disk-backed ensemble streams
        through :func:`repro.shard.characterize_store` instead.
    task_weights, machine_weights : array-like, optional
        Weighting factors applied to every member.  Only valid for
        raw-array input (wrappers carry their own weights; mixing the
        two would double-weight).
    tol, max_iterations
        Sinkhorn controls for the standard form: ``tol`` finite and
        >= 0, ``max_iterations`` an integer >= 1.
    tma_fallback : {"limit", "column", "raise"}
        Section-VI handling for zero-patterned members (these always
        take the scalar path; see :func:`repro.measures.characterize`).
    n_jobs : int, optional
        Process-pool width for the scalar path (ignored on the batched
        path, which needs no pool).
    policy : {"raise", "quarantine", "repair"}
        Fault handling (see :mod:`repro.robust`).  ``"raise"`` (the
        default) propagates the first member failure, aborting the
        whole call — the historical behavior.  ``"quarantine"``
        isolates failing members into a structured
        :class:`~repro.robust.QuarantineReport` on ``result.report``
        (their result rows are NaN-masked) while every healthy member
        completes with bit-identical results; ``"repair"`` additionally
        retries quarantined members through the
        :mod:`repro.robust.repair` ladder.
    budget : repro.robust.Budget, optional
        Wall-clock / retry budgets; only valid with a robust policy.
    fault_plan : repro.robust.FaultPlan, optional
        Fault injection for chaos drills, with the same meaning under
        every policy and input kind.  Data faults corrupt their member
        (so a drill can also demonstrate the ``"raise"`` crash); a plan
        naming a member past the end of the ensemble is rejected.  A
        ``stall`` fault delays its member's worker under the robust
        policies (a straggler a ``member_timeout_s`` budget can
        quarantine); under ``"raise"`` the call sleeps ``stall_s`` once
        before the kernels and the results are unchanged.
    backend : str or KernelBackend, optional
        Kernel backend, threaded into every Sinkhorn/SVD call on both
        the batched and scalar paths (see :mod:`repro.backends`).
    warm_start : NormalizationResult or (row_scale, col_scale), optional
        Previous standard-form scaling vectors applied before
        iterating — the incremental re-characterization path for
        ``perturb_stack``-style what-if resubmissions (a scalar result
        on the base matrix broadcasts to every slice).  Requires the
        default ``policy="raise"`` and a stacked, strictly positive
        input (every member on the batched path).

    Examples
    --------
    >>> import numpy as np
    >>> stack = np.stack([np.ones((2, 2)), np.eye(2) + 0.01])
    >>> result = characterize_ensemble(stack)
    >>> [round(float(v), 2) for v in result.tma]
    [0.0, 0.98]
    >>> bool(result.batched.all()), bool(result.converged.all())
    (True, True)
    >>> stack[1, 0, 0] = np.nan
    >>> result = characterize_ensemble(stack, policy="quarantine")
    >>> result.report.quarantined, result.report.categories()
    ((1,), {1: 'nan'})
    >>> bool(np.isnan(result.mph[1])), float(result.mph[0])
    (True, 1.0)
    """
    options = _check_options(
        tol, max_iterations, tma_fallback, policy, budget, backend, warm_start
    )
    deadline = options["budget"].start()
    stack, members, positive = _coerce(
        environments, task_weights, machine_weights, strict=policy == "raise"
    )
    stalls: dict[int, float] = {}
    if fault_plan is not None:
        _check_members(fault_plan, len(stack if stack is not None else members))
        if stack is not None:
            stack = stack.copy()  # faults corrupt a copy, not the caller's
        _inject(fault_plan, stack if stack is not None else members)
        positive = None
        stalls = {i: fault_plan.stall_seconds(i) for i in fault_plan.stalled}
    return _characterize_members(
        stack, members, positive=positive, deadline=deadline, stalls=stalls,
        n_jobs=n_jobs, timeout_s=options["budget"].member_timeout_s,
        warm_start=warm_start, **options,
    )


def _characterize_members(
    stack, members=None, *, positive=None, offset: int = 0, deadline,
    stalls=None, preset=None, n_jobs=None, timeout_s=None, warm_start=None,
    tol, max_iterations, tma_fallback, policy, budget, backend,
) -> EnsembleCharacterization:
    """The body of both ensemble entry points: pre-screen, batched/scalar
    split, kernels, policy step and result.

    ``stack`` (or the ragged list ``members``) holds members ``[offset,
    offset + n)`` of the run; errors name them by their run index, and
    ``stalls`` and the report by their index here.  A ``preset``
    ``(category, detail)`` faults every member before any is read, so a
    failed store shard takes only the policy step (``stack`` then needs
    only a ``shape`` and item access).
    """
    robust = policy != "raise"
    n = stack.shape[0] if stack is not None else len(members)
    stalls = stalls or {}

    def member(i):
        return stack[i] if stack is not None else members[i]

    # Pre-screen: corruption quarantines before any kernel runs, so one
    # bad member cannot poison a batched pass.  Under "raise" the strict
    # coercion already screened the input, and injected faults surface
    # as the kernels' own errors.
    if preset is not None:
        faults = dict.fromkeys(range(n), preset)
    elif not robust:
        faults = {}
    elif stack is not None:
        screens, positive = _value_screens(stack)
        faults = _classify(stack, screens, positive, tma_fallback=tma_fallback)
    else:
        faults = {}
        for i, m in enumerate(members):
            verdict = classify_matrix(m, tma_fallback=tma_fallback)
            if verdict is not None:
                faults[i] = verdict

    healthy = np.ones(n, dtype=bool)
    healthy[list(faults)] = False
    in_batch = np.zeros(n, dtype=bool)
    if stack is not None and healthy.any():
        if positive is None:
            positive = (stack > 0).all(axis=(1, 2))
        in_batch = healthy & positive
        if robust:
            # Stalled members are healthy data but must visit the
            # worker path so their injected straggle is exercised.
            in_batch[list(stalls)] = False
    if warm_start is not None:
        if stack is None:
            raise MatrixValueError(
                "warm_start requires a stacked (N, T, M) input (ragged "
                "members take the scalar path)"
            )
        if not in_batch.all():
            raise MatrixValueError(
                "warm_start requires a strictly positive stack "
                "(zero-patterned slices take the scalar path, which "
                "cannot reuse scaling vectors)"
            )
        from ..backends.base import coerce_warm_start

        warm_start = coerce_warm_start(warm_start, *stack.shape)
    scalar_idx = np.flatnonzero(healthy & ~in_batch)
    n_batched = int(in_batch.sum())
    if preset is None:
        note(slices=n, batched_slices=n_batched, fallback_slices=len(scalar_idx))
    if _metrics.metrics_enabled():
        # A path with no members adds no series; the family still shows.
        _metrics.get_registry().declare("repro_ensemble_members_total")
        _metrics.record(*(
            ("repro_ensemble_members_total", (path,), count)
            for path, count in (("batched", n_batched), ("fallback", len(scalar_idx)))
            if count
        ))
    if not robust and stalls:
        # No worker hosts a straggle under "raise": the call stalls once.
        time.sleep(max(stalls.values()))
        stalls = {}

    mph = np.full(n, np.nan)
    tdh = np.full(n, np.nan)
    tma = np.full(n, np.nan)
    iterations = np.full(n, -1, dtype=np.int64)
    converged = np.zeros(n, dtype=bool)

    columns = None
    if n_batched:
        be = resolve_backend(backend)
        options = dict(
            tol=tol,
            max_iterations=max_iterations,
            deadline_s=deadline.remaining(),
            # A warm start implies every member is in the batch.
            warm_start=warm_start,
        )
        try:
            columns = _batch_columns(be, stack, in_batch, **options)
        except MatrixValueError:
            # The fused pass checks the batch's line sums before it
            # scales anything: find the members at fault, and name them
            # (under "raise") or quarantine them and run the rest.
            overflow, too_small = (
                mask & in_batch for mask in _unscalable_slices(*_line_sums(stack))
            )
            unscalable = overflow | too_small
            if warm_start is not None or not unscalable.any():
                raise
            if not robust:
                raise _unscalable_error(
                    overflow, too_small, "batched", offset=offset
                ) from None
            faults.update(_unscalable_faults(overflow, too_small))
            in_batch &= ~unscalable
            if in_batch.any():
                columns = _batch_columns(be, stack, in_batch, **options)
    batched_mask = in_batch.copy()
    if columns is not None:
        index = np.flatnonzero(in_batch)
        missed = ~columns[4]
        if robust and missed.any():
            for i, its in zip(index[missed], columns[3][missed]):
                detail = (
                    f"standard form missed tol={tol:g} after {int(its)} "
                    "iterations"
                )
                if deadline.expired():
                    detail += f" (deadline_s={budget.deadline_s:g} expired)"
                faults[int(i)] = ("non-convergent", detail)
            batched_mask[index[missed]] = False
            index = index[~missed]
            columns = [column[~missed] for column in columns]
        mph[index], tdh[index], tma[index], iterations[index], converged[index] = (
            columns
        )

    if len(scalar_idx):
        jobs = resolve_n_jobs(n_jobs)
        if timeout_s is not None and jobs == 1:
            # An in-process worker cannot be preempted; a timeout
            # implies a pool.
            jobs = 2
        shared = (tol, max_iterations, tma_fallback, backend)
        items = [(member(i), *shared, stalls.get(i, 0.0)) for i in scalar_idx]
        results = parallel_map(
            _characterize_columns,
            items,
            n_jobs=jobs,
            timeout_s=timeout_s,
            return_failures=robust,
        )
        for i, result in zip(scalar_idx, results):
            if isinstance(result, WorkerFailure):
                faults[int(i)] = (classify_exception(result.error), str(result.error))
            else:
                mph[i], tdh[i], tma[i], iterations[i], converged[i] = result

    report = None
    if robust:

        def splice(i, repaired, standard):
            mph[i], tdh[i], tma[i], iterations[i], converged[i] = (
                recovered_columns(repaired, standard, tol)
            )

        report = apply_policy(
            faults,
            policy=policy,
            member=member,
            splice=splice,
            tol=tol,
            max_iterations=max_iterations,
            budget=budget,
            deadline=deadline,
        )
    return EnsembleCharacterization(
        mph=mph,
        tdh=tdh,
        tma=tma,
        iterations=iterations,
        converged=converged,
        batched=batched_mask,
        n_tasks=None if stack is None else stack.shape[1],
        n_machines=None if stack is None else stack.shape[2],
        report=report,
    )
