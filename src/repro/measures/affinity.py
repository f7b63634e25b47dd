"""Task-machine affinity (paper Sections II-E and III-D).

TMA captures the aspect of heterogeneity MPH and TDH miss: different
sets of task types being better suited to different sets of machines.
Geometrically it is column correlation — identical column directions
(zero affinity) collapse the non-maximum singular values to 0, while
orthogonal affinity structure pushes them up toward σ1.

Two computation methods:

* ``method="standard"`` (default, eq. 8): standardize the ECS matrix
  (rows sum to ``sqrt(M/T)``, columns to ``sqrt(T/M)``) so σ1 = 1
  exactly (Theorem 2), then ::

      TMA = sum_{i=2}^{min(T,M)} σ_i / (min(T,M) - 1)

  This is the paper's contribution: with the standard form, TMA is
  independent of both MPH and TDH.

* ``method="column"`` (eq. 5, the precursor [2]): 1-norm column
  normalization only, with the explicit ``1/σ1`` factor.  Available for
  comparison and as a fallback for matrices whose zero pattern admits
  no standard form (Section VI).

TMA lies in ``[0, 1]``; matrices with a single row or column have no
non-maximum singular values and TMA is defined as 0.
"""

from __future__ import annotations

import time

import numpy as np

from .._validation import check_choice
from ..backends import resolve_backend
from ..normalize.standard_form import (
    DEFAULT_TOL,
    _coerce_ecs,
    _column_normalize,
    standardize,
)
from ..obs import metrics as _metrics
from ..obs import span as _obs_span

__all__ = ["tma", "task_machine_affinity", "standard_singular_values"]


def _singular_values(stack: np.ndarray, backend, kind: str) -> np.ndarray:
    """The ``(N, min(T, M))`` descending singular values of a stack,
    timed as the ``svd.<kind>`` span and metric: ``backend.svd_values``
    on a stack of one (``"scalar"``), else ``svd_values_batched``."""
    t0 = time.perf_counter()
    n_slices, n_rows, n_cols = stack.shape
    if kind == "batched":
        with _obs_span("svd.batched", slices=n_slices, rows=n_rows, cols=n_cols):
            values = backend.svd_values_batched(stack)
    else:
        with _obs_span("svd.scalar", rows=n_rows, cols=n_cols):
            values = backend.svd_values(stack[0])[None]
    _metrics.record(("repro_svd_seconds", (kind,), time.perf_counter() - t0))
    return values


def _tma_column(values: np.ndarray) -> np.ndarray:
    """eq. 8 on each row of the ``(N, K)`` singular values of standard
    forms, clamped into [0, 1] against excursions of order ``tol``."""
    if values.shape[1] < 2:
        return np.zeros(values.shape[0], dtype=np.float64)
    # sigma_1 == 1 by Theorem 2 (up to tol); eq. 8 drops the 1/sigma_1.
    return np.clip(values[:, 1:].sum(axis=1) / (values.shape[1] - 1), 0.0, 1.0)


def _column_tma(ecs: np.ndarray, backend) -> float:
    """eq. 5 on a validated (weighted) ECS array."""
    values = _singular_values(_column_normalize(ecs)[None], backend, "scalar")[0]
    if values.shape[0] < 2:
        return 0.0
    raw = values[1:].sum() / ((values.shape[0] - 1) * values[0])
    return float(min(max(raw, 0.0), 1.0))


def standard_singular_values(
    matrix,
    *,
    task_weights=None,
    machine_weights=None,
    tol: float = DEFAULT_TOL,
    max_iterations: int = 100_000,
    zeros: str = "strict",
) -> np.ndarray:
    """Singular values of the standard-form ECS matrix, descending.

    By Theorem 2 the first value is 1 up to the normalization
    tolerance; the remainder are the raw material of TMA (eq. 8).
    The default backend's ``svd_values`` computes them — one
    ``numpy.linalg.svd(..., compute_uv=False)`` call, values only, no
    singular vectors, the same LAPACK routine the batched path stacks.
    ``zeros`` selects the Section-VI handling (see
    :func:`repro.normalize.standardize`); weighting factors follow the
    canonical override rule shared by every measure.
    """
    standard = standardize(
        matrix,
        task_weights=task_weights,
        machine_weights=machine_weights,
        tol=tol,
        max_iterations=max_iterations,
        zeros=zeros,
    )
    return _singular_values(standard.matrix[None], resolve_backend(), "scalar")[0]


def tma(
    matrix,
    *,
    task_weights=None,
    machine_weights=None,
    method: str = "standard",
    tol: float = DEFAULT_TOL,
    max_iterations: int = 100_000,
    zeros: str = "strict",
) -> float:
    """Task-machine affinity (paper eq. 8, or eq. 5 for ``"column"``).

    Parameters
    ----------
    matrix : ECSMatrix, ETCMatrix or array-like
        The environment.  ECSMatrix weighting factors are applied before
        normalization; ETC inputs are converted through eq. 1.
    task_weights, machine_weights : array-like, optional
        Explicit weighting factors, overriding any wrapper-stored ones
        — the same convention as :func:`repro.measures.mph` and
        :func:`repro.measures.tdh`.
    method : {"standard", "column"}
        ``"standard"`` — eq. 8 on the standard-form matrix (requires the
        zero pattern to be normalizable; raises
        :class:`~repro.exceptions.NotNormalizableError` otherwise).
        ``"column"`` — eq. 5 on the column-normalized matrix (always
        defined).
    tol, max_iterations
        Sinkhorn controls for the standard form (ignored for
        ``"column"``).
    zeros : {"strict", "limit"}
        Section-VI zero handling for the standard form; ``"limit"``
        evaluates TMA on the eq.-9 limit (the paper's Fig. 4 semantics
        for matrices A, B, D).  Ignored for ``method="column"``.

    Returns
    -------
    float in [0, 1]

    Examples
    --------
    Identical columns — no affinity:

    >>> round(tma([[2.0, 2.0], [1.0, 1.0]]), 9)
    0.0

    A task type that runs on only one machine — total affinity
    (paper Fig. 4, matrices A-D):

    >>> round(tma([[1.0, 0.0], [0.0, 1.0]]), 9)
    1.0
    """
    check_choice(method, name="method", choices=("standard", "column"))
    if method == "column":
        ecs = _coerce_ecs(matrix, task_weights, machine_weights)
        return _column_tma(ecs, resolve_backend())
    values = standard_singular_values(
        matrix,
        task_weights=task_weights,
        machine_weights=machine_weights,
        tol=tol,
        max_iterations=max_iterations,
        zeros=zeros,
    )
    return float(_tma_column(values[None])[0])


#: Long-form alias for :func:`tma`.
task_machine_affinity = tma
