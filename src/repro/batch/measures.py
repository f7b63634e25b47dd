"""Vectorized MPH / TDH / TMA over ``(N, T, M)`` ensemble stacks.

Each function computes the same quantity as its scalar counterpart in
:mod:`repro.measures`, for every slice of the stack at once.  MPH and
TDH are sorted-adjacent-ratio reductions (eqs. 3 and 7) over stacked
row/column sums; TMA (eq. 8) rides on ``numpy.linalg.svd``'s stacked
matrix support, which dispatches the whole ensemble through one LAPACK
loop instead of N Python calls.

The differential harness in ``tests/batch/`` holds these to ≤ 1e-10
agreement with the scalar implementations per slice.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_weights
from ..exceptions import MatrixValueError
from ..normalize.standard_form import DEFAULT_TOL
from ..obs import span as _obs_span
from ._stack import as_ecs_stack
from .sinkhorn import standardize_batched

__all__ = [
    "average_adjacent_ratio_batched",
    "machine_performance_batched",
    "task_difficulty_batched",
    "mph_batched",
    "tdh_batched",
    "standard_singular_values_batched",
    "tma_batched",
]


def average_adjacent_ratio_batched(values) -> np.ndarray:
    """Row-wise mean ratio of each sorted value to its successor.

    ``values`` is an ``(N, K)`` array of strictly positive vectors; the
    return is ``(N,)``, one eq. 3/7 homogeneity per row.  ``K = 1``
    rows are defined as perfectly homogeneous (1.0), matching
    :func:`repro.measures.average_adjacent_ratio`.

    Examples
    --------
    >>> average_adjacent_ratio_batched([[1.0, 2.0, 4.0, 8.0, 16.0]])
    array([0.5])
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise MatrixValueError(
            f"values must be a non-empty 2-D (N, K) array, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all() or (arr <= 0).any():
        raise MatrixValueError("values must be strictly positive and finite")
    return _adjacent_ratio_batched(arr)


def _adjacent_ratio_batched(values: np.ndarray) -> np.ndarray:
    """The body of :func:`average_adjacent_ratio_batched`: ``values`` is
    a validated ``(N, K)`` float64 array."""
    if values.shape[1] == 1:
        return np.ones(values.shape[0], dtype=np.float64)
    ordered = np.sort(values, axis=1)
    return (ordered[:, :-1] / ordered[:, 1:]).mean(axis=1)


def _stack_and_weights(stack, task_weights, machine_weights):
    arr = as_ecs_stack(stack)
    w_t = check_weights(task_weights, arr.shape[1], name="task_weights")
    w_m = check_weights(machine_weights, arr.shape[2], name="machine_weights")
    return arr, w_t, w_m


def machine_performance_batched(
    stack, *, task_weights=None, machine_weights=None
) -> np.ndarray:
    """Per-slice machine performance vectors, shape ``(N, M)``.

    Slice ``i`` equals :func:`repro.measures.machine_performance` of
    ``stack[i]`` (eq. 2 / weighted eq. 4).

    Examples
    --------
    >>> ecs = [[4., 8., 5.], [5., 9., 4.], [6., 5., 2.], [2., 1., 3.]]
    >>> machine_performance_batched([ecs])
    array([[17., 23., 14.]])
    """
    arr, w_t, w_m = _stack_and_weights(stack, task_weights, machine_weights)
    return w_m[None, :] * (w_t @ arr)


def task_difficulty_batched(
    stack, *, task_weights=None, machine_weights=None
) -> np.ndarray:
    """Per-slice task difficulty vectors, shape ``(N, T)`` (eq. 6).

    Examples
    --------
    >>> ecs = [[4., 8., 5.], [5., 9., 4.], [6., 5., 2.], [2., 1., 3.]]
    >>> task_difficulty_batched([ecs])
    array([[17., 18., 13.,  6.]])
    """
    arr, w_t, w_m = _stack_and_weights(stack, task_weights, machine_weights)
    return w_t[None, :] * (arr @ w_m)


def mph_batched(
    stack, *, task_weights=None, machine_weights=None
) -> np.ndarray:
    """Machine performance homogeneity of every slice, shape ``(N,)``.

    Examples
    --------
    >>> import numpy as np
    >>> mph_batched(np.diag([1.0, 2.0, 4.0, 8.0, 16.0])[None, :, :])
    array([0.5])
    """
    return average_adjacent_ratio_batched(
        machine_performance_batched(
            stack, task_weights=task_weights, machine_weights=machine_weights
        )
    )


def tdh_batched(
    stack, *, task_weights=None, machine_weights=None
) -> np.ndarray:
    """Task difficulty homogeneity of every slice, shape ``(N,)``.

    Examples
    --------
    >>> tdh_batched([[[1.0, 2.0], [2.0, 1.0]]])
    array([1.])
    """
    return average_adjacent_ratio_batched(
        task_difficulty_batched(
            stack, task_weights=task_weights, machine_weights=machine_weights
        )
    )


def standard_singular_values_batched(
    stack,
    *,
    tol: float = DEFAULT_TOL,
    max_iterations: int = 100_000,
    require_convergence: bool = True,
) -> np.ndarray:
    """Singular values of every standard-form slice, shape
    ``(N, min(T, M))``, descending per slice.

    By Theorem 2 column 0 is ≈ 1 for every converged slice.  The SVD of
    the whole standardized stack is computed in one
    ``numpy.linalg.svd`` call (stacked-matrix support, values only).
    """
    standard = standardize_batched(
        stack,
        tol=tol,
        max_iterations=max_iterations,
        require_convergence=require_convergence,
    )
    shape = standard.matrix.shape
    with _obs_span(
        "svd.batched", slices=shape[0], rows=shape[1], cols=shape[2]
    ):
        return np.linalg.svd(standard.matrix, compute_uv=False)


def tma_batched(
    stack,
    *,
    tol: float = DEFAULT_TOL,
    max_iterations: int = 100_000,
    require_convergence: bool = True,
) -> np.ndarray:
    """Task-machine affinity of every slice (eq. 8), shape ``(N,)``.

    Values are clamped into ``[0, 1]`` exactly like the scalar
    :func:`repro.measures.tma`; stacks whose slices have a single row
    or column get 0 (no non-maximum singular values).  Zero-patterned
    slices with no standard form surface as
    :class:`~repro.exceptions.ConvergenceError` (or best-iterate values
    under ``require_convergence=False``); route those through the
    scalar path for the Section-VI limit semantics.

    Examples
    --------
    >>> import numpy as np
    >>> stack = np.array([[[2.0, 2.0], [1.0, 1.0]],
    ...                   [[1.0, 0.0], [0.0, 1.0]]])
    >>> np.round(tma_batched(stack), 9)
    array([0., 1.])
    """
    values = standard_singular_values_batched(
        stack,
        tol=tol,
        max_iterations=max_iterations,
        require_convergence=require_convergence,
    )
    if values.shape[1] < 2:
        return np.zeros(values.shape[0], dtype=np.float64)
    # sigma_1 == 1 by Theorem 2 (up to tol); eq. 8 drops the 1/sigma_1.
    raw = values[:, 1:].sum(axis=1) / (values.shape[1] - 1)
    return np.clip(raw, 0.0, 1.0)
