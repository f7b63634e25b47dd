"""The standard ECS matrix (paper Section III-C, Theorems 1 and 2).

A *standard* ECS matrix has every row summing to ``sqrt(M/T)`` and
every column summing to ``sqrt(T/M)``.  By Theorem 2 its largest
singular value is exactly 1, which

* makes TMA independent of MPH (all column sums equal) and of TDH (all
  row sums equal), and
* removes the ``1/σ1`` factor from the TMA formula (eq. 5 → eq. 8).

:func:`standardize` accepts a raw array or an :class:`~repro.core.ECSMatrix`
(whose weighting factors are applied first, per eqs. 4/6) and runs the
Sinkhorn iteration of :mod:`repro.normalize.sinkhorn` with those targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .._validation import (
    as_ecs_array,
    check_choice,
    check_positive_int,
    check_positive_scalar,
    check_weights,
    weight_ecs,
)
from ..backends import resolve_backend
from ..core.environment import ECSMatrix, ETCMatrix
from ..exceptions import NotNormalizableError
from .sinkhorn import NormalizationResult, _sinkhorn
# Not called here since standardize runs the private body, but still
# looked up in this module by name (benchmarks/suite/spans.py HOOKS).
from .sinkhorn import sinkhorn_knopp  # noqa: F401

__all__ = [
    "StandardFormResult",
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


@dataclass(frozen=True)
class StandardFormResult:
    """A standardized ECS matrix plus the iteration diagnostics.

    Attributes
    ----------
    matrix : numpy.ndarray
        The standard ECS matrix (rows sum to ``sqrt(M/T)``, columns to
        ``sqrt(T/M)``; largest singular value 1 by Theorem 2).
    normalization : NormalizationResult
        Full Sinkhorn diagnostics (scaling diagonals, residual history).
    zeroed_entries : tuple of (int, int)
        Entries that were zeroed to reach the Sinkhorn *limit* (only
        non-empty under ``zeros="limit"``; see :func:`standardize`).
    """

    matrix: np.ndarray
    normalization: NormalizationResult
    zeroed_entries: tuple[tuple[int, int], ...] = ()

    @property
    def row_scale(self) -> np.ndarray:
        """Diagonal of ``D1`` (ScalingOutcome field; feeds warm starts)."""
        return self.normalization.row_scale

    @property
    def col_scale(self) -> np.ndarray:
        """Diagonal of ``D2`` (ScalingOutcome field; feeds warm starts)."""
        return self.normalization.col_scale

    @property
    def iterations(self) -> int:
        """Full column+row iterations used (paper reports 6/7 for SPEC)."""
        return self.normalization.iterations

    @property
    def converged(self) -> bool:
        return self.normalization.converged

    @property
    def residual(self) -> float:
        return self.normalization.residual

    @property
    def residual_history(self) -> tuple[float, ...]:
        """Residual after each iteration (ScalingOutcome field; entry 0
        is the residual of the input matrix)."""
        return self.normalization.residual_history


def _coerce_ecs(
    matrix, task_weights=None, machine_weights=None
) -> np.ndarray:
    """Canonical environment coercion (the normalize-side twin of
    :func:`repro.measures._coerce.coerce_ecs_and_weights`).

    Accepts an :class:`~repro.core.ECSMatrix` (stored weights applied
    unless explicitly overridden), an :class:`~repro.core.ETCMatrix`
    (converted through paper eq. 1 first), or a raw array-like.
    Explicit ``task_weights``/``machine_weights`` follow the same
    override rule as the measure functions: they replace the wrapper's
    stored weights for this call.
    """
    if isinstance(matrix, ETCMatrix):
        matrix = matrix.to_ecs()
    if isinstance(matrix, ECSMatrix):
        if task_weights is None:
            task_weights = matrix.task_weights
        if machine_weights is None:
            machine_weights = matrix.machine_weights
        ecs = matrix.values
    else:
        ecs = as_ecs_array(matrix)
    if task_weights is None and machine_weights is None:
        return ecs
    w_t = check_weights(task_weights, ecs.shape[0], name="task_weights")
    w_m = check_weights(machine_weights, ecs.shape[1], name="machine_weights")
    return weight_ecs(ecs, w_t, w_m)


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
    backend=None,
    warm_start=None,
) -> StandardFormResult:
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
    backend, warm_start
        Kernel backend and warm-start scaling vectors, passed straight to
        :func:`repro.normalize.sinkhorn_knopp` (see
        :mod:`repro.backends`).  A previous ``StandardFormResult`` on a
        near-identical matrix is a valid ``warm_start``.
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
    ecs = _coerce_ecs(matrix, task_weights, machine_weights)
    check_choice(zeros, name="zeros", choices=("strict", "limit"))
    return _standardize(
        ecs,
        zeros=zeros,
        backend=resolve_backend(backend),
        tol=check_positive_scalar(tol, name="tol", allow_zero=True),
        max_iterations=check_positive_int(max_iterations, name="max_iterations"),
        require_convergence=require_convergence,
        deadline_s=deadline_s,
        warm_start=warm_start,
    )


def _standardize(
    ecs: np.ndarray,
    *,
    zeros: str,
    backend,
    tol: float,
    max_iterations: int = 100_000,
    require_convergence: bool = True,
    deadline_s: float | None = None,
    warm_start=None,
) -> StandardFormResult:
    """The body of :func:`standardize` on a validated (weighted) ECS
    array, a resolved backend and checked ``tol``/``max_iterations``."""
    zeroed: tuple[tuple[int, int], ...] = ()
    if (ecs == 0).any():
        from ..structure import normalizability_report

        report = normalizability_report(ecs)
        if not report.feasible:
            raise NotNormalizableError(
                "no standard form exists and eq. 9 has no limit: the zero "
                "pattern admits no matrix with equal row sums and equal "
                "column sums at all"
            )
        if report.blocking_edges:
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
            zeroed = report.blocking_edges
    row_target, col_target = standard_targets(*ecs.shape)
    norm = _sinkhorn(
        ecs.copy(),
        row_target,
        col_target,
        tol=tol,
        max_iterations=max_iterations,
        require_convergence=require_convergence,
        deadline_s=deadline_s,
        backend=backend,
        warm_start=warm_start,
    )
    return StandardFormResult(
        matrix=norm.matrix, normalization=norm, zeroed_entries=zeroed
    )


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
    return _column_normalize(_coerce_ecs(matrix, task_weights, machine_weights))


def _column_normalize(ecs: np.ndarray) -> np.ndarray:
    """The body of :func:`column_normalize` on a validated ECS array."""
    return ecs / ecs.sum(axis=0, keepdims=True)


def is_standard(
    matrix, *, tol: float = 1e-6
) -> bool:
    """True when the matrix already has the Theorem-2 row/column sums."""
    ecs = _coerce_ecs(matrix)
    row_target, col_target = standard_targets(*ecs.shape)
    return (
        np.abs(ecs.sum(axis=1) - row_target).max() <= tol
        and np.abs(ecs.sum(axis=0) - col_target).max() <= tol
    )
