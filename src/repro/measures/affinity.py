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

Eq. 8 needs only the singular values of the standard form, the square
roots of the eigenvalues of its K x K Gram matrix (K = min(T, M)).  A
standard form takes them from ``numpy.linalg.eigvalsh`` when its
Sinkhorn run converged, ``|sigma_1 - 1| <= tol`` (Theorem 2) and its
smallest eigenvalue is at least 1e-8 of its largest; that costs its TMA
at most ~1e-12.  Every other standard form, every one of more than 64
rows and columns, and the eq. 5 column form keep the values-only SVD
(:func:`repro.backends.svd_values`) and its bits
(:func:`_singular_values`).
"""

from __future__ import annotations

import time

import numpy as np

from .._validation import check_choice, weight_ecs
from .. import backends as kernels
from ..backends.base import _SCRATCH
from ..core.environment import coerce_ecs_and_weights
from ..normalize.standard_form import DEFAULT_TOL, _column_normalize, standardize
from ..obs import metrics as _metrics
from ..obs import span as _obs_span

__all__ = ["tma", "task_machine_affinity", "standard_singular_values"]


#: A member's Gram spectrum stands only where its smallest singular
#: value is at least this fraction of its largest (its smallest Gram
#: eigenvalue at least 1e-8 of its largest): below that, the Gram
#: matrix's squared condition number costs eq. 8 more than ~1e-12.
_SIGMA_FLOOR = 1e-4

#: Entries one block of the Gram step holds at most: the buffer numpy
#: (>= 2.3) adds to a broadcasting ufunc call, which the Sinkhorn core
#: holds on every iteration.  A stack's block also holds at most half
#: the stack, the most the core's compact copy holds.
_GRAM_BLOCK = 8192


def _singular_values(
    stack: np.ndarray, kind: str, tol=None, converged=None
) -> np.ndarray:
    """The ``(N, min(T, M))`` descending singular values of a stack,
    timed as the ``svd.<kind>`` span and metric.

    Given the Sinkhorn ``tol``, the stack holds standard forms (eq. 8)
    and ``converged`` their runs' flags (a bool, or one per member): a
    member takes its Gram spectrum (:func:`_gram_spectrum`) when that
    passes the test there.  The other members, every member of more
    than 64 rows and columns (one Gram matrix would outgrow the
    ``_SCRATCH`` entries a lone call may hold beside its working copy)
    and every member of a column form (eq. 5, no ``tol``) take
    ``kernels.svd_values`` on a stack of one (``"scalar"``), else one
    ``svd_values_batched`` call, and so the bits those give.  The span
    notes ``svd_members``, how many members took the SVD."""
    t0 = time.perf_counter()
    n_slices, n_rows, n_cols = stack.shape
    if kind == "batched":
        region = _obs_span("svd.batched", slices=n_slices, rows=n_rows, cols=n_cols)
    else:
        region = _obs_span("svd.scalar", rows=n_rows, cols=n_cols)
    with region as sp:
        accepted = None
        if tol is not None and min(n_rows, n_cols) ** 2 <= _SCRATCH:
            values, accepted = _gram_spectrum(stack, tol, converged)
        if accepted is None or not accepted.any():
            values = _svd(stack, kind)
            svd_members = n_slices
        else:
            rejected = (~accepted).nonzero()[0]
            svd_members = len(rejected)
            if svd_members:
                values[rejected] = _svd(stack[rejected], kind)
        sp.note(svd_members=svd_members)
    _metrics.record(("repro_svd_seconds", (kind,), time.perf_counter() - t0))
    return values


def _svd(stack: np.ndarray, kind: str) -> np.ndarray:
    """``kernels.svd_values`` of a stack of one (``"scalar"``), else
    ``svd_values_batched`` of the stack."""
    if kind == "batched":
        return kernels.svd_values_batched(stack)
    return kernels.svd_values(stack[0])[None]


def _gram_spectrum(stack: np.ndarray, tol: float, converged):
    """``(values, accepted)`` of an ``(N, T, M)`` stack of standard
    forms: the ``(N, K)`` descending square roots of the eigenvalues of
    each member's Gram matrix on its smaller side (``A^T A`` when T >=
    M, else ``A A^T``), and whether each member passes the test that
    lets them stand.

    A member passes when its run converged (``converged``), its Gram
    matrix is finite, its smallest singular value is at least
    :data:`_SIGMA_FLOOR` times its largest and ``|sigma_1 - 1| <= tol``
    (Theorem 2).  The test reads the member alone.

    The members go in blocks, one ``matmul`` and one ``eigvalsh`` each.
    A block's Gram stack, eigenvalues and, for a stack that is not
    C-ordered (member-last), its C copy hold at most
    :data:`_GRAM_BLOCK` entries and half the stack, or one member, so
    the step holds no more than the Sinkhorn core did before it.
    ``matmul`` then takes a lone matrix's BLAS path on every member, so
    a member's values and verdict are the same bits in any stack, of
    either layout, at any offset.  On a member-last block it would take
    numpy's own loop instead, whose summation order rounds differently
    on some shapes (32 x 8 members, for one)."""
    n_slices, n_rows, n_cols = stack.shape
    size = min(n_rows, n_cols)
    copy = not stack.flags.c_contiguous
    per_member = size * size + size + copy * n_rows * n_cols
    budget = min(_GRAM_BLOCK, n_slices // 2 * n_rows * n_cols)
    block = max(1, min(n_slices, budget // per_member))
    grams = np.empty((block, size, size))
    copies = np.empty((block, n_rows, n_cols)) if copy else None
    values = np.empty((n_slices, size))
    for start in range(0, n_slices, block):
        stop = min(start + block, n_slices)
        part, gram = stack[start:stop], grams[: stop - start]
        if copy:
            part = copies[: stop - start]
            np.copyto(part, stack[start:stop])
        flipped = part.transpose(0, 2, 1)
        if n_rows >= n_cols:
            np.matmul(flipped, part, out=gram)
        else:
            np.matmul(part, flipped, out=gram)
        try:
            ascending = np.linalg.eigvalsh(gram)
        except np.linalg.LinAlgError:
            # A non-finite member: its Gram matrix is zeroed, so its
            # sigma_1 of 0 sends it to the SVD, which reports it as it
            # always has.
            gram[~np.isfinite(gram).all(axis=(1, 2))] = 0.0
            ascending = np.linalg.eigvalsh(gram)
        # Rounding can leave an eigenvalue a hair below zero.
        np.maximum(ascending, 0.0, out=ascending)
        np.sqrt(ascending, out=ascending)
        values[start:stop] = ascending[:, ::-1]
        # Freed before the next block's eigvalsh allocates its own.
        del ascending
    accepted = (
        (values[:, -1] >= _SIGMA_FLOOR * values[:, 0])
        & (np.abs(values[:, 0] - 1.0) <= tol)
        & converged
    )
    return values, accepted


def _tma_column(values: np.ndarray) -> np.ndarray:
    """eq. 8 on each row of the ``(N, K)`` singular values of standard
    forms, clamped into [0, 1] against excursions of order ``tol``."""
    if values.shape[1] < 2:
        return np.zeros(values.shape[0], dtype=np.float64)
    # sigma_1 == 1 by Theorem 2 (up to tol); eq. 8 drops the 1/sigma_1.
    return np.clip(values[:, 1:].sum(axis=1) / (values.shape[1] - 1), 0.0, 1.0)


def _column_tma(ecs: np.ndarray) -> float:
    """eq. 5 on a validated (weighted) ECS array."""
    values = _singular_values(_column_normalize(ecs)[None], "scalar")[0]
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
    They are the square roots of the Gram eigenvalues
    (``numpy.linalg.eigvalsh``) where the run converged,
    ``|sigma_1 - 1| <= tol`` and the smallest eigenvalue is at least
    1e-8 of the largest, within ~1e-12 of the SVD's TMA; otherwise
    :func:`repro.backends.svd_values`
    (``numpy.linalg.svd(..., compute_uv=False)``) gives them.  Either way they are the bits the batched path gives
    the same matrix.  ``zeros`` selects the Section-VI handling (see
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
    return _singular_values(
        standard.matrix[None], "scalar", tol, standard.converged
    )[0]


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
        ecs = weight_ecs(*coerce_ecs_and_weights(matrix, task_weights, machine_weights))
        return _column_tma(ecs)
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
