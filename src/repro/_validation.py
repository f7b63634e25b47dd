"""Shared argument-validation helpers.

These are internal: every public entry point funnels its array inputs
through the functions here so that error messages are uniform and the
numerical kernels can assume clean, C-contiguous ``float64`` data (a
vectorization-friendly invariant; see the repo's DESIGN.md).

There is one float coercer, :func:`as_float_array`, for a matrix
(``ndim=2``) and for an ``(N, T, M)`` stack (``ndim=3``), with one
dtype rule (:func:`check_numeric_dtype`).  There is one environment
coercion, :func:`repro.core.environment.coerce_ecs_and_weights`, which
returns ``(ecs, w_t, w_m)``; :func:`weight_ecs` applies the weights.

The rule: **public entry points validate once; private ``_…`` bodies
take validated arrays.**  A public function checks its input here and
then calls private bodies (``batch.measures._scalar_measures``,
``sinkhorn._scale_stack``, ``alternatives._line_statistics``, ...)
that trust it, so a call that chains several kernels — e.g.
:func:`repro.characterize` — checks its matrix once, not once per
kernel.  A private body never re-validates, and a public function never
skips a check its error contract promises.

The batched entry points follow the same rule.
:func:`repro.batch.characterize_ensemble` (and the chunks of
:func:`repro.shard.characterize_store`) screens its stack once
(``batch._stack._ecs_stack`` or ``robust.taxonomy._classify``, which
also find the strictly positive members), and the fused pass
sums the batch's lines once for MPH/TDH
(``batch.measures._adjacent_ratio_batched``) and for the Sinkhorn body
``normalize.sinkhorn._scale_stack``.
:func:`repro.batch.standardize_batched` screens and sums once and calls
that body itself, while :func:`repro.batch.sinkhorn_knopp_batched`
keeps its own full checks.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .exceptions import (
    EmptyRowColumnError,
    MatrixShapeError,
    MatrixValueError,
    WeightError,
)

__all__ = [
    "check_numeric_dtype",
    "as_array",
    "as_float_array",
    "as_ecs_array",
    "as_etc_array",
    "as_positive_vector",
    "check_weights",
    "unit_weights",
    "weight_ecs",
    "check_choice",
    "check_probability",
    "check_positive_scalar",
    "check_positive_int",
    "INT64_MAX",
]


def check_choice(value, *, name: str, choices) -> str:
    """Validate a keyword that takes one of a fixed set of strings.

    Every mode-selecting kwarg in the library (``zeros=``, ``method=``,
    ``tma_fallback=``) funnels through this helper so the accepted
    values are spelled out the same way and the error type is uniformly
    :class:`MatrixValueError` (which is also a ``ValueError``).
    """
    if value not in choices:
        expected = ", ".join(repr(c) for c in choices)
        raise MatrixValueError(
            f"{name} must be one of {expected}; got {value!r}"
        )
    return value


def check_numeric_dtype(arr: np.ndarray, *, name: str) -> None:
    """Reject an array whose dtype is not integer or float.

    Complex data is not real-valued; booleans, strings, bytes and
    Python objects are not numbers, even where numpy would cast them.
    """
    kind = arr.dtype.kind
    if kind == "c":
        raise MatrixValueError(f"{name} must be real-valued")
    if kind not in "iuf":
        raise MatrixValueError(
            f"{name} must hold int or float entries, got dtype {arr.dtype}"
        )


def as_array(values, *, ndim: int, name: str) -> np.ndarray:
    """``np.asarray(values)``, with nested sequences of unequal lengths
    rejected as :class:`MatrixShapeError` in a stable message: numpy's
    own ``ValueError`` words itself differently from version to version.
    ``ndim`` (2 for a matrix, 3 for a stack) only words the message."""
    try:
        return np.asarray(values)
    except ValueError:
        parts = "rows" if ndim == 2 else "members or their rows"
        raise MatrixShapeError(
            f"{name} is ragged: its {parts} differ in length"
        ) from None


def as_float_array(
    values, *, ndim: int, name: str, allow_nan: bool = False
) -> np.ndarray:
    """Coerce ``values`` to a C-contiguous float64 array of ``ndim``
    dimensions: a matrix (2) or an ``(N, T, M)`` stack (3).

    Raises :class:`MatrixShapeError` for ragged, empty or
    other-ndim input and :class:`MatrixValueError` for non-numeric
    (:func:`check_numeric_dtype`), complex or NaN entries.  ``inf`` is
    allowed here because ETC matrices use it for incompatible
    task/machine pairs.  ``allow_nan=True`` skips the NaN screen, so
    the robust pipeline can quarantine a corrupt member instead of
    rejecting the whole input.
    """
    arr = as_array(values, ndim=ndim, name=name)
    check_numeric_dtype(arr, name=name)
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if arr.ndim != ndim:
        expected = "2-D" if ndim == 2 else "3-D (N, T, M)"
        raise MatrixShapeError(
            f"{name} must be {expected}, got ndim={arr.ndim} (shape {arr.shape})"
        )
    if arr.size == 0:
        raise MatrixShapeError(f"{name} must be non-empty, got shape {arr.shape}")
    if not allow_nan and np.isnan(arr).any():
        raise MatrixValueError(f"{name} contains NaN entries")
    return arr


def as_ecs_array(values, *, name: str = "ECS matrix") -> np.ndarray:
    """Validate an ECS (estimated computation speed) matrix.

    ECS entries are finite and non-negative; zero marks an incompatible
    task/machine pair.  All-zero rows or columns are rejected per
    Section II-B of the paper.
    """
    arr = as_float_array(values, ndim=2, name=name)
    if np.isinf(arr).any():
        raise MatrixValueError(
            f"{name} contains infinite entries; infinities belong in the "
            "ETC representation (use zero ECS for incompatible pairs)"
        )
    if (arr < 0).any():
        raise MatrixValueError(f"{name} contains negative entries")
    _reject_empty_lines(arr, name=name)
    return arr


def as_etc_array(values, *, name: str = "ETC matrix") -> np.ndarray:
    """Validate an ETC (estimated time to compute) matrix.

    ETC entries are strictly positive; ``inf`` marks an incompatible
    task/machine pair.  Rows or columns that are entirely ``inf`` are
    rejected (they would become all-zero ECS rows/columns).
    """
    arr = as_float_array(values, ndim=2, name=name)
    if (arr <= 0).any():
        raise MatrixValueError(
            f"{name} contains non-positive entries; execution times must be "
            "> 0 (use inf for incompatible task/machine pairs)"
        )
    finite = np.isfinite(arr)
    if not finite.any(axis=1).all():
        raise EmptyRowColumnError(
            f"{name} has a row of all-inf entries: a task type that no "
            "machine can execute"
        )
    if not finite.any(axis=0).all():
        raise EmptyRowColumnError(
            f"{name} has a column of all-inf entries: a machine that can "
            "execute no task type"
        )
    return arr


def _reject_empty_lines(ecs: np.ndarray, *, name: str) -> None:
    if not (ecs > 0).any(axis=1).all():
        raise EmptyRowColumnError(
            f"{name} has an all-zero row: a task type that no machine can "
            "execute"
        )
    if not (ecs > 0).any(axis=0).all():
        raise EmptyRowColumnError(
            f"{name} has an all-zero column: a machine that can execute no "
            "task type"
        )


def as_positive_vector(values, *, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D float64 array of strictly positive finite values."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise MatrixShapeError(f"{name} must be a non-empty 1-D array")
    if not np.isfinite(arr).all():
        raise MatrixValueError(f"{name} contains non-finite entries")
    if (arr <= 0).any():
        raise MatrixValueError(f"{name} must be strictly positive")
    return arr


def check_weights(weights, length: int, *, name: str) -> np.ndarray:
    """Validate a weighting-factor vector (paper eq. 4/6).

    ``None`` means unweighted and returns a vector of ones so callers can
    multiply unconditionally (branch-free inner kernels).
    """
    if weights is None:
        return np.ones(length, dtype=np.float64)
    arr = np.ascontiguousarray(weights, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != length:
        raise WeightError(
            f"{name} must be a 1-D vector of length {length}, got shape "
            f"{arr.shape}"
        )
    if not np.isfinite(arr).all() or (arr <= 0).any():
        raise WeightError(f"{name} must contain strictly positive finite values")
    return arr


def unit_weights(w_t: np.ndarray, w_m: np.ndarray) -> bool:
    """Whether validated weights apply no product: every factor is 1.0
    (as :func:`check_weights` returns for absent weights, and as an
    unweighted :class:`~repro.core.ECSMatrix` stores), so
    ``w_t[i] * w_m[j] * x == x`` exactly and the eq. 4/6 product is the
    matrix itself."""
    return bool((w_t == 1.0).all() and (w_m == 1.0).all())


def weight_ecs(ecs: np.ndarray, w_t: np.ndarray, w_m: np.ndarray) -> np.ndarray:
    """The weighted ECS matrix ``w_t[i] * w_m[j] * ecs[i, j]`` (eqs. 4/6).

    Unit weights (:func:`unit_weights`) return ``ecs`` itself, not a
    copy.  Otherwise ``ecs`` is a validated ECS array and ``w_t``/``w_m``
    validated weights, so the product can only break by leaving the float64
    range: entries that overflow to ``inf``, or a line sum that
    underflows to zero or to a value the standard form cannot scale.
    Either raises :class:`WeightError` naming the weights (silently,
    without numpy's overflow warning).  A matrix whose own line sums
    are already too small to scale is the matrix's fault, and unless
    the weights zero out a line it is left to Sinkhorn's "rescale the
    matrix" error.
    """
    if unit_weights(w_t, w_m):
        return ecs
    # Products and line sums past the float64 range are screened below.
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = w_t[:, None] * w_m[None, :] * ecs
        underflow = _too_small_to_scale(weighted) and (
            not _too_small_to_scale(ecs)
            # A valid ECS line has a positive entry, so a line the
            # weights zero out is their doing even when the matrix is
            # tiny too.
            or not (weighted.any(axis=1).all() and weighted.any(axis=0).all())
        )
    if not np.isfinite(weighted).all():
        raise WeightError(
            "task_weights and machine_weights overflow the weighted ECS "
            "matrix (an entry w_t[i] * w_m[j] * ECS[i, j] exceeds the "
            "float64 range); rescale the weights"
        )
    if underflow:
        raise WeightError(
            "task_weights and machine_weights underflow the weighted ECS "
            "matrix (a row or column sum is zero or too small to scale); "
            "rescale the weights"
        )
    return weighted


def _too_small_to_scale(ecs: np.ndarray) -> bool:
    """Whether a line sum of ``ecs`` is zero or so small that the
    standard form's first factor ``target / sum`` overflows.

    The test ``sinkhorn._scale_stack`` applies, with the Theorem-2
    targets of ``standard_form.standard_targets``.  Division is
    monotone, so the smallest sum of each axis decides it.  A sum past
    the float64 range is inf, which is not too small; the caller
    silences numpy's overflow warning for it.
    """
    n_rows, n_cols = ecs.shape
    low_row = float(np.add.reduce(ecs, axis=1).min())
    low_col = float(np.add.reduce(ecs, axis=0).min())
    # Python float division overflows to inf without a warning.
    return (
        low_row == 0.0
        or low_col == 0.0
        or math.isinf(math.sqrt(n_cols / n_rows) / low_row)
        or math.isinf(math.sqrt(n_rows / n_cols) / low_col)
    )


def check_probability(value, *, name: str) -> float:
    """Validate a scalar in [0, 1]."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise MatrixValueError(f"{name} must be a real number in [0, 1]")
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise MatrixValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def check_positive_scalar(value, *, name: str, allow_zero: bool = False) -> float:
    """Validate a finite scalar > 0 (or >= 0 when ``allow_zero``)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise MatrixValueError(f"{name} must be a real number")
    value = float(value)
    if not np.isfinite(value):
        raise MatrixValueError(f"{name} must be finite, got {value}")
    if allow_zero:
        if value < 0:
            raise MatrixValueError(f"{name} must be >= 0, got {value}")
    elif value <= 0:
        raise MatrixValueError(f"{name} must be > 0, got {value}")
    return value


#: The largest count the kernels' int64 counters hold.
INT64_MAX = int(np.iinfo(np.int64).max)


def check_positive_int(value, *, name: str) -> int:
    """Validate an integer in ``[1, INT64_MAX]``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise MatrixValueError(f"{name} must be an integer")
    value = int(value)
    if value < 1:
        raise MatrixValueError(f"{name} must be >= 1, got {value}")
    if value > INT64_MAX:
        raise MatrixValueError(
            f"{name} must be <= {INT64_MAX} (the int64 maximum), got {value}"
        )
    return value
