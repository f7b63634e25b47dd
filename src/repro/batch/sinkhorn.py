"""Batched alternating row/column scaling over ``(N, T, M)`` stacks.

:func:`sinkhorn_knopp_batched` runs the paper's eq. (9) iteration on a
whole ensemble of same-shape matrices at once, through the same Sinkhorn
core and body as the scalar :func:`repro.normalize.sinkhorn_knopp` (a
single matrix is a stack of one).  One iteration is two broadcast sums
and two broadcast multiplies over the slices still iterating, so the
per-matrix Python overhead is paid once per stack.  Slices converge
independently — a slice freezes the moment its residual drops below
``tol``, so its iterates are exactly those of a scalar run on that
matrix alone (bit-identical; the conformance
table in ``tests/test_conformance.py`` pins it).

:func:`standardize_batched` applies the Theorem-2 targets
(rows ``sqrt(M/T)``, columns ``sqrt(T/M)``) to a stack.  Unlike the
scalar :func:`repro.normalize.standardize` it performs **no** Menon
normalizability pre-test: zero-patterned slices that admit no standard
form simply fail to converge and are reported through the ``converged``
mask (or a :class:`~repro.exceptions.ConvergenceError` naming the
slices when ``require_convergence=True``).  Callers that need the
Section-VI limit semantics should route zero-containing slices through
the scalar path — :func:`repro.batch.characterize_ensemble` does
exactly that.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_float_array, check_positive_int, check_positive_scalar
from ..backends.base import _line_sums, working_copy
from ..exceptions import MatrixValueError
from ..normalize.sinkhorn import (
    BatchNormalizationResult,
    _check_entries,
    _check_targets,
    _entry_state,
    _scale_stack,
)
from ..normalize.standard_form import standard_targets
from ..robust.budget import DEFAULT_BUDGET
from ..robust.repair import apply_policy
from ..robust.taxonomy import _unscalable_faults, check_policy, classify_stack

__all__ = [
    "BatchNormalizationResult",
    "sinkhorn_knopp_batched",
    "standardize_batched",
]


def sinkhorn_knopp_batched(
    stack,
    *,
    row_target: float = 1.0,
    col_target: float | None = None,
    tol: float = 1e-8,
    max_iterations: int = 100_000,
    require_convergence: bool = True,
    deadline_s: float | None = None,
    warm_start=None,
) -> BatchNormalizationResult:
    """Scale every slice of ``stack`` so rows sum to ``row_target`` and
    columns to ``col_target``.

    Each slice runs exactly as :func:`repro.normalize.sinkhorn_knopp`
    runs that matrix alone (one core serves both), and stops iterating
    the moment it converges while stragglers continue.

    Parameters
    ----------
    stack : array-like, shape (N, T, M)
        Stack of non-negative matrices, none with an all-zero row or
        column.
    row_target, col_target, tol, max_iterations
        As in the scalar kernel; ``col_target`` defaults to the unique
        consistent value ``T * row_target / M``.
    require_convergence : bool
        When True (default) a :class:`~repro.exceptions.ConvergenceError`
        is raised if *any* slice misses the tolerance, naming the
        offending slice indices; when False the best iterates are
        returned with the per-slice ``converged`` mask.
    deadline_s : float or None
        Wall-clock budget in seconds (checked once per iteration over
        the whole stack).  When it expires, still-active slices freeze
        as non-converged — graceful degradation instead of burning the
        full iteration budget on a straggling slice.  ``None`` (the
        default) means unbounded.
    warm_start : NormalizationResult or (row_scale, col_scale), optional
        Previous scaling vectors applied before iterating.  A single
        ``(T,)``/``(M,)`` pair (e.g. from the unperturbed base matrix
        of a what-if stack) broadcasts to every slice; per-slice
        ``(N, T)``/``(N, M)`` arrays — e.g. a previous
        :class:`BatchNormalizationResult` — warm each slice
        individually.

    Examples
    --------
    >>> import numpy as np
    >>> stack = np.array([[[1.0, 2.0], [3.0, 4.0]],
    ...                   [[5.0, 1.0], [1.0, 5.0]]])
    >>> result = sinkhorn_knopp_batched(stack)
    >>> bool(result.converged.all())
    True
    >>> np.round(result.matrix.sum(axis=2), 6)
    array([[1., 1.],
           [1., 1.]])
    """
    tol = check_positive_scalar(tol, name="tol", allow_zero=True)
    max_iterations = check_positive_int(max_iterations, name="max_iterations")
    work = as_float_array(stack, ndim=3, name="stack")
    _check_entries(work, "stack")
    row_target, col_target = _check_targets(
        row_target, col_target, *work.shape[1:]
    )
    return _scale_stack(
        working_copy(work),
        row_target,
        col_target,
        kind="batched",
        warm_start=warm_start,
        tol=tol,
        max_iterations=max_iterations,
        require_convergence=require_convergence,
        deadline_s=deadline_s,
    )


def _unscalable_slices(row_sums, col_sums):
    """The ``(overflow, too_small)`` slice masks of :func:`_entry_state`
    for the Theorem-2 targets: the slices whose ``(N, T)`` row and
    ``(N, M)`` column sums the standard form cannot scale."""
    n_rows, n_cols = row_sums.shape[1], col_sums.shape[1]
    row_target, col_target = standard_targets(n_rows, n_cols)
    _, overflow, too_small = _entry_state(
        row_sums, col_sums, np.full(n_rows, row_target), np.full(n_cols, col_target)
    )
    return overflow, too_small


def standardize_batched(
    stack,
    *,
    tol: float = 1e-8,
    max_iterations: int = 100_000,
    require_convergence: bool = True,
    deadline_s: float | None = None,
    policy: str = "raise",
    budget=None,
    fault_plan=None,
    warm_start=None,
) -> BatchNormalizationResult:
    """Convert every slice of a stack to the standard ECS form.

    Applies the Theorem-2 targets (rows ``sqrt(M/T)``, columns
    ``sqrt(T/M)``) so the largest singular value of every converged
    slice is 1.  No Menon pre-test is performed: slices whose zero
    pattern admits no standard form show up as non-converged (see the
    module docstring for the fallback rules).

    ``policy`` selects the fault semantics: ``"raise"`` (default) is
    the historical behavior described above.  ``"quarantine"`` /
    ``"repair"`` pre-screen the stack (NaN/inf/negative entries, empty
    lines, Section-VI zero patterns, which can never reach the
    Theorem-2 margins, and line sums that overflow or are too small to
    scale), scale the healthy slices and splice them back:
    screened slices get NaN result rows, slices that merely miss the
    tolerance keep their best partial iterate (``converged=False``),
    and both are recorded in ``result.report``
    (:class:`~repro.robust.QuarantineReport`).  ``"repair"`` retries
    them through the :mod:`repro.robust.repair` ladder (on the
    reference kernels).  The robust policies honour the optional
    ``budget`` and apply the optional chaos ``fault_plan``.

    ``tol``/``max_iterations``/``warm_start`` behave exactly as in
    :func:`sinkhorn_knopp_batched`; ``warm_start`` requires the default
    ``policy="raise"`` (the robust pipeline re-orders slices, so stale
    scaling vectors cannot be matched up safely).

    Examples
    --------
    >>> import numpy as np
    >>> result = standardize_batched(np.array([[[1.0, 0.0], [0.0, 3.0]]]))
    >>> np.round(result.matrix[0], 6)
    array([[1., 0.],
           [0., 1.]])
    >>> stack = np.ones((2, 2, 2))
    >>> stack[1, 0, 0] = np.nan
    >>> result = standardize_batched(stack, policy="quarantine")
    >>> result.report.categories()
    {1: 'nan'}
    >>> bool(result.converged[0]), bool(np.isnan(result.matrix[1]).all())
    (True, True)
    """
    robust = check_policy(policy, warm_start=warm_start)
    if not robust and (budget is not None or fault_plan is not None):
        raise MatrixValueError(
            "budget/fault_plan require policy='quarantine' or "
            "policy='repair'"
        )
    budget = DEFAULT_BUDGET if budget is None else budget
    deadline = budget.start()
    work = as_float_array(stack, ndim=3, name="stack", allow_nan=robust)
    if fault_plan is not None:
        work = fault_plan.apply(work)
    tol = check_positive_scalar(tol, name="tol", allow_zero=True)
    max_iterations = check_positive_int(max_iterations, name="max_iterations")
    n_slices, n_rows, n_cols = work.shape
    row_target, col_target = standard_targets(n_rows, n_cols)
    if not robust:
        _check_entries(work, "stack")
        return _scale_stack(
            working_copy(work),
            row_target,
            col_target,
            kind="batched",
            warm_start=warm_start,
            tol=tol,
            max_iterations=max_iterations,
            require_convergence=require_convergence,
            deadline_s=deadline.clamp(deadline_s),
        )

    # Structural screening uses the strict ("raise") semantics: a
    # decomposable slice can never converge to the Theorem-2 margins.
    faults = classify_stack(work, tma_fallback="raise")
    row_sums, col_sums = _line_sums(work)
    unscalable = _unscalable_faults(*_unscalable_slices(row_sums, col_sums))
    for i, fault in unscalable.items():
        faults.setdefault(i, fault)
    healthy = np.ones(n_slices, dtype=bool)
    healthy[list(faults)] = False
    screened = bool(faults)
    index = np.flatnonzero(healthy)
    scaled = None
    if index.size:
        # The one working copy: the healthy slices' gather, or a copy of
        # the whole input (which the repair ladder still reads).
        if screened:
            sub, sums = working_copy(work, index), (row_sums[index], col_sums[index])
        else:
            sub, sums = working_copy(work), (row_sums, col_sums)
        scaled = _scale_stack(
            sub,
            row_target,
            col_target,
            kind="batched",
            sums=sums,
            warm_start=None,
            tol=tol,
            max_iterations=max_iterations,
            require_convergence=False,
            deadline_s=deadline.clamp(deadline_s),
        )

    if screened:
        matrix = np.full_like(work, np.nan)
    else:
        # Nothing screened: the scaled working copy is the result, and
        # repairs splice into it.
        matrix = scaled.matrix
    row_scale = np.full((n_slices, n_rows), np.nan)
    col_scale = np.full((n_slices, n_cols), np.nan)
    converged = np.zeros(n_slices, dtype=bool)
    iterations = np.zeros(n_slices, dtype=np.int64)
    residual = np.full(n_slices, np.nan)
    # Histories of the repaired slices, which replace the scaled ones.
    repaired: dict[int, tuple[float, ...]] = {}
    if scaled is not None:
        if screened:
            matrix[index] = scaled.matrix
        row_scale[index] = scaled.row_scale
        col_scale[index] = scaled.col_scale
        converged[index] = scaled.converged
        iterations[index] = scaled.iterations
        residual[index] = scaled.residual
        for i in index[~scaled.converged]:
            detail = (
                f"missed tol={tol:g} after {int(iterations[i])} iterations "
                f"(residual={float(residual[i]):.3e})"
            )
            if deadline.expired():
                detail += f" (deadline_s={budget.deadline_s:g} expired)"
            faults[int(i)] = ("non-convergent", detail)

    def splice(i, _repaired, standard):
        matrix[i] = standard.matrix
        row_scale[i] = standard.row_scale
        col_scale[i] = standard.col_scale
        converged[i] = True
        iterations[i] = standard.iterations
        residual[i] = standard.residual
        repaired[i] = standard.residual_history

    def histories():
        # Built on first read: serve's standardize never reads them.
        built = [()] * n_slices
        if scaled is not None:
            for i, history in zip(index.tolist(), scaled.residual_history):
                built[i] = history
        for i, history in repaired.items():
            built[i] = history
        return tuple(built)

    report = apply_policy(
        faults,
        policy=policy,
        member=lambda i: work[i],
        splice=splice,
        tol=tol,
        max_iterations=max_iterations,
        budget=budget,
        deadline=deadline,
    )
    return BatchNormalizationResult(
        matrix=matrix,
        row_scale=row_scale,
        col_scale=col_scale,
        converged=converged,
        iterations=iterations,
        residual=residual,
        residual_history=histories,
        row_target=row_target,
        col_target=col_target,
        report=report,
    )
