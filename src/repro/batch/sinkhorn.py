"""Batched alternating row/column scaling over ``(N, T, M)`` stacks.

:func:`sinkhorn_knopp_batched` runs the paper's eq. (9) iteration on a
whole ensemble of same-shape matrices at once, through the same backend
core and body as the scalar :func:`repro.normalize.sinkhorn_knopp` (a
single matrix is a stack of one).  One iteration is two broadcast sums
and two broadcast multiplies over the slices still iterating, so the
per-matrix Python overhead is paid once per stack.  Slices converge
independently — a slice freezes the moment its residual drops below
``tol``, so its iterates are exactly those of a scalar run on that
matrix alone (bit-identical on the numpy backend; the differential
harness in ``tests/batch/`` pins it).

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

from ..backends import resolve_backend
from ..backends.base import check_precision
from ..exceptions import MatrixValueError
from ..normalize.sinkhorn import (
    BatchNormalizationResult,
    _check_entries,
    _check_targets,
    _first_slices,
    _scale_stack,
)
from ..normalize.standard_form import standard_targets
from ._stack import as_float_stack

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
    backend=None,
    precision: str | None = None,
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
    backend, precision
        Kernel backend and float32 fast-path selection, exactly as in
        the scalar kernel (see :mod:`repro.backends`).
    warm_start : ScalingOutcome or (row_scale, col_scale), optional
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
    be = resolve_backend(backend)
    precision = check_precision(precision)
    work = as_float_stack(stack, name="stack").copy()
    _check_entries(work, "stack")
    n_slices, n_rows, n_cols = work.shape
    row_target, col_target = _check_targets(
        row_target, col_target, n_rows, n_cols
    )
    zero_line = (work.sum(axis=2) == 0).any(axis=1) | (
        work.sum(axis=1) == 0
    ).any(axis=1)
    if zero_line.any():
        raise MatrixValueError(
            "stack has an all-zero row or column in slice(s) "
            f"{_first_slices(np.flatnonzero(zero_line))}; "
            "no scaling can fix that"
        )
    return _scale_stack(
        work,
        np.full(n_rows, row_target),
        np.full(n_cols, col_target),
        kind="batched",
        backend=be,
        precision=precision,
        warm_start=warm_start,
        tol=tol,
        max_iterations=max_iterations,
        require_convergence=require_convergence,
        deadline_s=deadline_s,
        row_target=row_target,
        col_target=col_target,
    )


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
    backend=None,
    precision: str | None = None,
    warm_start=None,
) -> BatchNormalizationResult:
    """Convert every slice of a stack to the standard ECS form.

    Applies the Theorem-2 targets (rows ``sqrt(M/T)``, columns
    ``sqrt(T/M)``) so the largest singular value of every converged
    slice is 1.  No Menon pre-test is performed: slices whose zero
    pattern admits no standard form show up as non-converged (see the
    module docstring for the fallback rules).

    ``policy`` selects the fault semantics: ``"raise"`` (default) is
    the historical behavior described above; ``"quarantine"`` /
    ``"repair"`` delegate to
    :func:`repro.robust.standardize_batched_robust`, which isolates
    corrupt or structurally hopeless slices into a
    :class:`~repro.robust.QuarantineReport` (NaN result rows) instead
    of rejecting the whole stack, honouring the optional ``budget``
    and applying the optional chaos ``fault_plan``.

    ``backend``/``precision``/``warm_start`` behave exactly as in
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
    """
    if policy not in ("raise", "quarantine", "repair"):
        raise MatrixValueError(
            f"policy must be 'raise', 'quarantine' or 'repair', got "
            f"{policy!r}"
        )
    if policy != "raise":
        if warm_start is not None:
            raise MatrixValueError(
                "warm_start requires policy='raise' (the robust "
                "pipeline re-orders and repairs slices, so previous "
                "scaling vectors cannot be matched up safely)"
            )
        from ..robust.ensemble import standardize_batched_robust

        return standardize_batched_robust(
            stack,
            tol=tol,
            max_iterations=max_iterations,
            policy=policy,
            budget=budget,
            fault_plan=fault_plan,
            backend=backend,
            precision=precision,
        )
    if budget is not None or fault_plan is not None:
        raise MatrixValueError(
            "budget/fault_plan require policy='quarantine' or "
            "policy='repair'"
        )
    work = as_float_stack(stack, name="stack")
    row_target, col_target = standard_targets(work.shape[1], work.shape[2])
    return sinkhorn_knopp_batched(
        work,
        row_target=row_target,
        col_target=col_target,
        tol=tol,
        max_iterations=max_iterations,
        require_convergence=require_convergence,
        deadline_s=deadline_s,
        backend=backend,
        precision=precision,
        warm_start=warm_start,
    )
