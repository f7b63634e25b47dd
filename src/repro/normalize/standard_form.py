"""The standard ECS matrix (paper Section III-C, Theorems 1 and 2).

A *standard* ECS matrix has every row summing to ``sqrt(M/T)`` and
every column summing to ``sqrt(T/M)``.  By Theorem 2 its largest
singular value is exactly 1, which

* makes TMA independent of MPH (all column sums equal) and of TDH (all
  row sums equal), and
* removes the ``1/σ1`` factor from the TMA formula (eq. 5 → eq. 8).

:func:`standardize` accepts a raw array or an :class:`~repro.core.ECSMatrix`
(whose weighting factors are applied first, per eqs. 4/6) and runs the
Sinkhorn iteration of :mod:`repro.normalize.sinkhorn` with those targets,
returning the same :class:`~repro.normalize.NormalizationResult`.
"""

from __future__ import annotations

import math

import numpy as np

from .._validation import (
    check_choice,
    check_positive_int,
    check_positive_scalar,
    weight_ecs,
)
from ..core.environment import coerce_ecs_and_weights
from ..exceptions import NotNormalizableError
from .sinkhorn import NormalizationResult, _scale_stack, _slice
# Not called here since standardize runs the private body, but still
# looked up in this module by name (benchmarks/suite/spans.py HOOKS).
from .sinkhorn import sinkhorn_knopp  # noqa: F401

__all__ = [
    "standard_targets",
    "standardize",
    "column_normalize",
    "is_standard",
]

#: Paper's stopping rule: max row/column-sum error below 1e-8 (Section V).
DEFAULT_TOL = 1e-8


def standard_targets(n_tasks: int, n_machines: int) -> tuple[float, float]:
    """The Theorem-2 target sums ``(row_target, col_target)``.

    Rows sum to ``sqrt(M/T)`` and columns to ``sqrt(T/M)``; this is
    Theorem 1 with ``k = 1/sqrt(T*M)`` and forces ``σ1 = 1``.
    """
    if n_tasks < 1 or n_machines < 1:
        raise ValueError("matrix dimensions must be positive")
    return (
        math.sqrt(n_machines / n_tasks),
        math.sqrt(n_tasks / n_machines),
    )


def standardize(
    matrix,
    *,
    task_weights=None,
    machine_weights=None,
    tol: float = DEFAULT_TOL,
    max_iterations: int = 100_000,
    require_convergence: bool = True,
    zeros: str = "strict",
    deadline_s: float | None = None,
    warm_start=None,
) -> NormalizationResult:
    """Convert an ECS matrix to standard form.

    Parameters
    ----------
    matrix : ECSMatrix, ETCMatrix or array-like
        The environment.  An :class:`~repro.core.ECSMatrix` has its
        weighting factors folded in first; an
        :class:`~repro.core.ETCMatrix` is converted through eq. (1).
    task_weights, machine_weights : array-like, optional
        Weighting factors (eqs. 4/6); wrapper-stored weights are used
        when omitted, exactly as in the measure functions.
    tol, max_iterations, require_convergence, deadline_s
        Passed to :func:`repro.normalize.sinkhorn_knopp`; ``deadline_s``
        bounds the iteration in wall-clock time (graceful degradation —
        see :mod:`repro.robust`).
    warm_start
        Warm-start scaling vectors, as in
        :func:`repro.normalize.sinkhorn_knopp`.  A previous standard
        form of a near-identical matrix is a valid ``warm_start``.
    zeros : {"strict", "limit"}
        How to treat zero patterns for which no exact scaling
        ``D1 (ECS) D2`` with the required sums exists (Section VI):

        * ``"strict"`` — raise
          :class:`~repro.exceptions.NotNormalizableError` (the exact
          Menon-theorem test runs *before* iterating, so the failure is
          immediate instead of a 10⁴-iteration stall).
        * ``"limit"`` — return the limit that paper eq. (9) converges
          to.  For a matrix with support but not total support, the
          Sinkhorn–Knopp iterates converge (sub-linearly) to a matrix
          whose entries outside the usable pattern are zero; this mode
          zeroes those *blocking entries* analytically (via
          :func:`repro.structure.normalizability_report`) and
          standardizes the rest in a handful of iterations.  This is
          the semantics under which the paper's Fig. 4 matrices A, B
          and D "converge to the standard form of C".  Matrices whose
          margins are infeasible outright still raise.

    Returns
    -------
    NormalizationResult
        The same result :func:`repro.normalize.sinkhorn_knopp` returns,
        with the Theorem-2 ``row_target``/``col_target`` and the
        ``zeroed_entries`` the ``"limit"`` semantics zeroed (empty
        otherwise).  Its ``row_scale``/``col_scale`` are a valid
        ``warm_start`` for a later run.

    Examples
    --------
    >>> import numpy as np
    >>> res = standardize(np.array([[1.0, 0.0], [0.0, 3.0]]))
    >>> np.round(res.matrix, 6)
    array([[1., 0.],
           [0., 1.]])

    Fig. 4 matrix A under the limit semantics:

    >>> res = standardize([[10.0, 0.0], [9.0, 1.0]], zeros="limit")
    >>> np.round(res.matrix, 6)
    array([[1., 0.],
           [0., 1.]])
    >>> res.zeroed_entries
    ((1, 0),)
    """
    ecs = weight_ecs(*coerce_ecs_and_weights(matrix, task_weights, machine_weights))
    check_choice(zeros, name="zeros", choices=("strict", "limit"))
    tol = check_positive_scalar(tol, name="tol", allow_zero=True)
    max_iterations = check_positive_int(max_iterations, name="max_iterations")
    ecs, zeroed = _usable_pattern(ecs, zeros)
    result = _scale_stack(
        ecs[None].copy(),
        *standard_targets(*ecs.shape),
        kind="scalar",
        tol=tol,
        max_iterations=max_iterations,
        require_convergence=require_convergence,
        deadline_s=deadline_s,
        warm_start=warm_start,
    )
    return _slice(result, 0, copy=False, zeroed_entries=zeroed)


def _usable_pattern(ecs: np.ndarray, zeros: str) -> tuple[np.ndarray, tuple]:
    """The Section VI step of :func:`standardize`: the array to scale
    and the entries zeroed to reach the eq. 9 limit (``ecs`` and ``()``
    when the exact standard form exists).  Raises
    :class:`~repro.exceptions.NotNormalizableError` as ``zeros`` says."""
    if not (ecs == 0).any():
        return ecs, ()
    from ..structure import normalizability_report

    report = normalizability_report(ecs)
    if not report.feasible:
        raise NotNormalizableError(
            "no standard form exists and eq. 9 has no limit: the zero "
            "pattern admits no matrix with equal row sums and equal "
            "column sums at all"
        )
    if not report.blocking_edges:
        return ecs, ()
    if zeros == "strict":
        raise NotNormalizableError(
            "no standard form exists: the matrix's zero pattern is "
            "decomposable (paper Section VI, e.g. its eq. 10); use "
            "zeros='limit' for the eq.-9 limit or TMA with "
            "method='column'"
        )
    ecs = ecs.copy()
    rows, cols = zip(*report.blocking_edges)
    ecs[list(rows), list(cols)] = 0.0
    return ecs, report.blocking_edges


def column_normalize(
    matrix, *, task_weights=None, machine_weights=None
) -> np.ndarray:
    """Scale every column of an ECS matrix to sum to 1 (1-norm).

    This is the normalization used in the paper's precursor [2] and in
    TMA eq. (5).  The MPH of the result is 1 by construction; row sums
    are *not* equalized, which is exactly why this paper introduces the
    full standard form once TDH joins the measure set.  Weighting
    factors follow the canonical override rule (wrapper-stored weights
    unless explicitly given).
    """
    return _column_normalize(
        weight_ecs(*coerce_ecs_and_weights(matrix, task_weights, machine_weights))
    )


def _column_normalize(ecs: np.ndarray) -> np.ndarray:
    """The body of :func:`column_normalize` on a validated ECS array."""
    return ecs / ecs.sum(axis=0, keepdims=True)


def is_standard(
    matrix, *, tol: float = 1e-6
) -> bool:
    """True when the matrix already has the Theorem-2 row/column sums."""
    ecs = weight_ecs(*coerce_ecs_and_weights(matrix))
    row_target, col_target = standard_targets(*ecs.shape)
    return (
        np.abs(ecs.sum(axis=1) - row_target).max() <= tol
        and np.abs(ecs.sum(axis=0) - col_target).max() <= tol
    )
