"""Vectorized MPH / TDH / TMA over ``(N, T, M)`` ensemble stacks.

Each function computes the same quantity as its scalar counterpart in
:mod:`repro.measures`, for every slice of the stack at once.  MPH and
TDH are sorted-adjacent-ratio reductions (eqs. 3 and 7) over stacked
row/column sums; TMA (eq. 8) takes the members' Gram eigenvalues
(``numpy.linalg.eigvalsh``, a few stacked calls) and one stacked
``numpy.linalg.svd`` of the members that fail the Theorem 2 and
conditioning test (:func:`repro.measures.affinity._singular_values`),
so the whole ensemble goes through LAPACK loops instead of N Python
calls.

:func:`_standard_measures` is the one measure body: the fused pass runs
it on a batch, :func:`_scalar_measures` on a stack of one.

The conformance table in ``tests/test_conformance.py`` holds these
bit-identical to the scalar implementations per slice.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_weights
from ..backends.base import _line_sums, working_copy
from ..exceptions import ConvergenceError, MatrixValueError, NotNormalizableError
from ..measures._coerce import weighted_line_sums
from ..measures.affinity import _column_tma, _singular_values, _tma_column
from ..normalize.sinkhorn import _scale_stack, _unscalable_error
from ..normalize.standard_form import DEFAULT_TOL, _usable_pattern, standard_targets
from ..obs import metrics as _metrics, span as _obs_span
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


def _weighted_sums(stack, task_weights, machine_weights):
    arr = as_ecs_stack(stack)
    w_t = check_weights(task_weights, arr.shape[1], name="task_weights")
    w_m = check_weights(machine_weights, arr.shape[2], name="machine_weights")
    return weighted_line_sums(arr, w_t, w_m)


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
    return _weighted_sums(stack, task_weights, machine_weights)[1]


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
    return _weighted_sums(stack, task_weights, machine_weights)[0]


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

    By Theorem 2 column 0 is ≈ 1 for every converged slice.  A slice
    that converged, with ``|sigma_1 - 1| <= tol`` and a smallest Gram
    eigenvalue of at least 1e-8 of its largest, takes the square roots
    of its Gram eigenvalues; the other slices take one stacked
    ``numpy.linalg.svd`` call (values only) and its bits.  Row ``i``
    is the bits :func:`repro.measures.standard_singular_values` gives
    slice ``i``.
    """
    standard = standardize_batched(
        stack,
        tol=tol,
        max_iterations=max_iterations,
        require_convergence=require_convergence,
    )
    return _singular_values(standard.matrix, "batched", tol, standard.converged)


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
    return _tma_column(values)


def _standard_measures(stack, sums, *, kind: str, warm_start=None, **options):
    """The one measure body: ``(tma, standard, sums)`` of a validated
    ``(N, T, M)`` stack that has a standard form: the eq. 8 column, the
    scaling of one working copy, and the ``(N, T)``/``(N, M)`` line
    sums (summed here when None) that the caller reduces to TDH and MPH.
    ``kind`` labels the Sinkhorn and SVD spans and metrics (``"scalar"``
    for a stack of one); ``options`` are ``tol``, ``max_iterations``,
    ``require_convergence`` and ``deadline_s``.  Unscalable line sums
    raise :class:`~repro.exceptions.MatrixValueError`."""
    if sums is None:
        sums = _line_sums(stack)
    if warm_start is not None:
        # MPH and TDH still need finite raw line sums.
        isfinite = np.isfinite
        finite = isfinite(sums[0]).all(axis=1) & isfinite(sums[1]).all(axis=1)
        if not finite.all():
            raise _unscalable_error(~finite, None, kind)
    standard = _scale_stack(
        working_copy(stack),
        *standard_targets(*stack.shape[1:]),
        kind=kind,
        sums=sums,
        warm_start=warm_start,
        # The sinkhorn.scalar span samples the residual history.
        keep_history=kind == "scalar",
        **options,
    )
    values = _singular_values(
        standard.matrix, kind, options["tol"], standard.converged
    )
    tma = _tma_column(values)
    return tma, standard, sums


def _scalar_measures(weighted, *, tma_fallback: str, tol: float, max_iterations: int):
    """``(tma, method, standard, sums)`` of one validated, weighted ECS
    matrix by :func:`repro.characterize`'s fallback chain: the strict
    standard form, the eq. 9 limit form, then eq. 5 (``standard`` is
    None).  ``sums`` are the matrix's ``(1, T)``/``(1, M)`` line sums.

    A run that misses ``tol`` is not retried in the limit form: with no
    blocking entries, that form is the same run."""
    sums = _line_sums(weighted[None])
    standard = None
    with _obs_span(
        "measures.characterize", rows=weighted.shape[0], cols=weighted.shape[1]
    ) as sp:
        try:
            scaled, zeroed = _usable_pattern(
                weighted, "limit" if tma_fallback == "limit" else "strict"
            )
            tma, standard, _ = _standard_measures(
                scaled[None],
                sums if scaled is weighted else None,
                kind="scalar",
                tol=tol,
                max_iterations=max_iterations,
                require_convergence=True,
                deadline_s=None,
            )
            tma, method = float(tma[0]), "limit" if zeroed else "standard"
        except NotNormalizableError:
            # Even the eq. 9 limit may not exist (the margins can be
            # infeasible outright, e.g. one machine compatible with a
            # single task type); eq. 5 always is.
            if tma_fallback == "raise":
                raise
        except ConvergenceError:
            if tma_fallback != "column":
                raise
        if standard is None:
            tma, method = _column_tma(weighted), "column"
        iterations = None if standard is None else int(standard.iterations[0])
        sp.note(tma_method=method, iterations=iterations)
    _metrics.record(("repro_characterize_runs_total", (method,), 1.0))
    return tma, method, standard, sums
