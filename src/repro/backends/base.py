"""The :class:`KernelBackend` protocol and the helpers backends share.

A backend supplies the *inner loops* the library's kernels are built
from — one batched Sinkhorn core, singular values, and a fused
normalize-and-measure pass — while everything around those loops
(input validation, warm-start application, observability
spans/metrics, error messages, result objects) lives in the public
entry points and their shared body in :mod:`repro.normalize.sinkhorn`.

There is one Sinkhorn core per backend.  A single matrix is a stack of
one: ``sinkhorn_knopp`` and ``scale_to_margins`` run a ``(T, M)``
matrix as its ``(1, T, M)`` view through the same core and body as
``sinkhorn_knopp_batched``.

The core operates **in place** on caller-owned state so a backend never
decides result semantics.  ``sinkhorn_core_batched(work, row_target,
col_target, ...)`` takes an ``(N, T, M)`` stack and ``(T,)``/``(M,)``
target vectors in the stack's dtype (constant for ``sinkhorn_knopp``,
prescribed margins for ``scale_to_margins``).  It iterates every slice
that is ``active`` and has run fewer than ``max_iterations`` iterations
(counted in ``iterations``), and it:

* scales ``work`` and the ``row_scale``/``col_scale`` accumulators;
* adds each slice's full (column pass + row pass) iterations to
  ``iterations`` and stores its latest residual in ``residual``;
* clears ``active`` for slices whose residual reached ``tol``;
* appends every residual it computes to ``trace``, in iteration order,
  as ``(owners, values)`` chunks: ``values[k]`` is a residual of slice
  ``owners[k]``, and ``owners`` is ``None`` when the chunk holds one
  residual per slice in slice order (:func:`residual_histories` turns a
  trace into per-slice tuples when a batched result's
  ``residual_history`` is first read, so a chunk's arrays must not be
  written again);
* records nothing when ``trace`` is None, and otherwise leaves the same
  state: callers that never read histories (the fused pass below, and
  so ``characterize_ensemble``, ``characterize_store`` and the server's
  characterize) pass None, so their memory does not grow with the
  iteration count;
* returns ``(iterations_run, timed_out)``.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from ..exceptions import MatrixValueError

__all__ = [
    "KernelBackend",
    "KernelBackendBase",
    "coerce_warm_start",
    "residual_histories",
    "residuals",
]


@runtime_checkable
class KernelBackend(Protocol):
    """Structural protocol every kernel backend satisfies.

    ``name`` is the registry/metrics label; ``tolerance`` is the
    documented worst-case disagreement of the backend against the
    pure-numpy reference on convergent float64 inputs (0.0 for the
    reference itself), asserted by the conformance table in
    ``tests/test_conformance.py``.
    """

    @property
    def name(self) -> str: ...

    @property
    def tolerance(self) -> float: ...

    def sinkhorn_core_batched(
        self,
        work,
        row_target,
        col_target,
        *,
        tol,
        max_iterations,
        row_scale,
        col_scale,
        residual,
        active,
        iterations,
        trace,
        t_end,
        on_progress,
    ): ...

    def svd_values(self, matrix): ...

    def svd_values_batched(self, stack): ...

    def fused_standard_measures(
        self, stack, *, tol, max_iterations, deadline_s, warm_start
    ): ...


def _warm_vectors(warm_start):
    """Extract ``(row_scale, col_scale)`` from a warm-start argument.

    Accepts a previous scaling result exposing ``row_scale``/
    ``col_scale`` (a :class:`~repro.normalize.NormalizationResult` or a
    :class:`~repro.batch.BatchNormalizationResult`) or an explicit
    2-sequence of vectors.
    """
    if hasattr(warm_start, "row_scale") and hasattr(warm_start, "col_scale"):
        return warm_start.row_scale, warm_start.col_scale
    try:
        row, col = warm_start
    except (TypeError, ValueError):
        raise MatrixValueError(
            "warm_start must be a previous scaling result (with "
            ".row_scale/.col_scale) or a (row_scale, col_scale) pair, "
            f"got {warm_start!r}"
        ) from None
    return row, col


def _check_warm(vec: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(vec).all() or (vec <= 0).any():
        raise MatrixValueError(
            f"warm_start {what} must be strictly positive and finite"
        )
    return vec


def coerce_warm_start(
    warm_start, n_slices: int, n_rows: int, n_cols: int
) -> tuple[np.ndarray, np.ndarray]:
    """Validated ``((N, T), (N, M))`` float64 scale arrays, freshly
    allocated, for an ``(N, T, M)`` stack (one matrix is ``N == 1``).

    A ``(T,)``/``(M,)`` pair (e.g. from a run on the unperturbed base
    matrix) broadcasts to every slice; per-slice ``(N, T)``/``(N, M)``
    arrays are used as-is.
    """
    row, col = _warm_vectors(warm_start)
    row = np.asarray(row, dtype=np.float64)
    col = np.asarray(col, dtype=np.float64)
    if row.ndim == 1 and col.ndim == 1:
        shapes = (n_rows,), (n_cols,)
    else:
        shapes = (n_slices, n_rows), (n_slices, n_cols)
    if (row.shape, col.shape) != shapes:
        raise MatrixValueError(
            "warm_start scaling vectors must match the matrix shape "
            f"({n_rows}, {n_cols}): one ({n_rows},)/({n_cols},) pair, or "
            f"one such pair per member; got shapes {row.shape} and "
            f"{col.shape}"
        )
    row = np.broadcast_to(row, (n_slices, n_rows)).copy()
    col = np.broadcast_to(col, (n_slices, n_cols)).copy()
    return _check_warm(row, "row_scale"), _check_warm(col, "col_scale")


def residuals(stack, row_target, col_target) -> np.ndarray:
    """Per-slice residual of an ``(N, T, M)`` stack: the largest absolute
    deviation of any row or column sum from its ``(T,)``/``(M,)``
    target.

    The reductions are the ufuncs ``.sum``/``.max`` wrap, and the
    targets get a leading unit axis so a stack of one stays off numpy's
    broadcasting path; both only shave per-call overhead.
    """
    add = np.add.reduce
    return _sum_residuals(
        add(stack, axis=2), add(stack, axis=1), row_target, col_target
    )


def _sum_residuals(row_sums, col_sums, row_target, col_target) -> np.ndarray:
    """:func:`residuals` from the stack's ``(N, T)`` row and ``(N, M)``
    column sums."""
    highest = np.maximum.reduce
    return np.maximum(
        highest(np.abs(row_sums - row_target[None]), axis=1),
        highest(np.abs(col_sums - col_target[None]), axis=1),
    )


def _line_sums(stack) -> tuple[np.ndarray, np.ndarray]:
    """The ``(N, T)`` row and ``(N, M)`` column sums of a stack, in the
    reductions :func:`residuals` uses.  A sum past the float64 range is
    inf (or NaN, from opposite infinities), without numpy's warning:
    callers screen for it."""
    add = np.add.reduce
    with np.errstate(over="ignore", invalid="ignore"):
        return add(stack, axis=2), add(stack, axis=1)


def residual_histories(trace, n_slices: int) -> tuple[tuple[float, ...], ...]:
    """Per-slice residual tuples recorded by a trace (see the module
    docstring for the chunk format)."""
    if all(owners is None for owners, _ in trace):
        rows = np.array([values for _, values in trace], dtype=np.float64)
        return tuple(map(tuple, rows.T.tolist()))
    owners = np.concatenate(
        [np.arange(n_slices) if o is None else o for o, _ in trace]
    )
    # Grouped by slice, chronological within each slice.
    order = np.argsort(owners, kind="stable")
    owners = owners[order]
    values = np.concatenate([v for _, v in trace])[order]
    bounds = np.cumsum(np.bincount(owners, minlength=n_slices))[:-1]
    return tuple(tuple(part.tolist()) for part in np.split(values, bounds))


class KernelBackendBase:
    """Shared default implementations for concrete backends.

    Subclasses must provide ``name``, ``tolerance`` and
    ``sinkhorn_core_batched``; the SVD defaults are one LAPACK routine,
    ``numpy.linalg.svd(..., compute_uv=False)`` (``gesdd``, values
    only), on one matrix or a stack, and the fused pass composes the
    batched kernels' private bodies so every backend inherits identical
    measure semantics.
    """

    name = "abstract"
    tolerance = 0.0

    def svd_values(self, matrix) -> np.ndarray:
        return np.linalg.svd(matrix, compute_uv=False)

    def svd_values_batched(self, stack) -> np.ndarray:
        return np.linalg.svd(stack, compute_uv=False)

    def fused_standard_measures(
        self, stack, *, tol, max_iterations, deadline_s=None, warm_start=None
    ):
        """Batched (MPH, TDH, TMA, iterations, converged) columns of a
        strictly positive ``(N, T, M)`` stack in one backend pass: the
        one measure body (:func:`repro.batch.measures._standard_measures`)
        on the batch, whose line sums give MPH and TDH.  The stack is
        left as it is; unscalable line sums raise
        :class:`~repro.exceptions.MatrixValueError` naming the slices.
        """
        from ..batch.measures import _adjacent_ratio_batched, _standard_measures

        tma, standard, (row_sums, col_sums) = _standard_measures(
            stack,
            None,
            kind="batched",
            backend=self,
            tol=tol,
            max_iterations=max_iterations,
            require_convergence=False,
            deadline_s=deadline_s,
            warm_start=warm_start,
        )
        mph, tdh = _adjacent_ratio_batched(col_sums), _adjacent_ratio_batched(row_sums)
        return mph, tdh, tma, standard.iterations, standard.converged
