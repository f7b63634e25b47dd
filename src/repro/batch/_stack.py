"""Validation and coercion for ``(N, T, M)`` ensemble stacks.

The batched kernels assume clean, C-contiguous ``float64`` stacks the
same way the scalar kernels assume clean matrices (see
``repro._validation``).  A *stack* bundles N same-shape ECS matrices
along a leading ensemble axis; slice ``stack[i]`` is one environment.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import MatrixShapeError, MatrixValueError
from ..robust.taxonomy import _value_screens

__all__ = ["as_float_stack", "as_ecs_stack", "stack_environments"]


def as_float_stack(
    values, *, name: str = "stack", allow_nan: bool = False
) -> np.ndarray:
    """Coerce ``values`` to a 3-D C-contiguous float64 array.

    Raises :class:`MatrixShapeError` for non-3D or empty input and
    :class:`MatrixValueError` for complex or NaN entries.  ``allow_nan=True``
    skips the NaN screen — the robust pipeline coerces corrupt stacks
    deliberately so it can quarantine the offending slices per member
    instead of rejecting the whole stack.
    """
    arr = np.asarray(values)
    if arr.dtype.kind == "c":
        raise MatrixValueError(f"{name} must be real-valued")
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if arr.ndim != 3:
        raise MatrixShapeError(
            f"{name} must be 3-D (N, T, M), got ndim={arr.ndim} "
            f"(shape {arr.shape})"
        )
    if arr.size == 0:
        raise MatrixShapeError(f"{name} must be non-empty, got shape {arr.shape}")
    if not allow_nan and np.isnan(arr).any():
        raise MatrixValueError(f"{name} contains NaN entries")
    return arr


def as_ecs_stack(values, *, name: str = "ECS stack") -> np.ndarray:
    """Validate a stack of ECS matrices.

    Entries must be finite and non-negative; no slice may contain an
    all-zero row or column (the same per-matrix rule as
    :func:`repro._validation.as_ecs_array`, reported with the offending
    slice index).  The checks are the robust pipeline's value screens
    (:func:`repro.robust.classify_stack`), raising on the first
    category any slice trips.
    """
    return _ecs_stack(values, name=name)[0]


def _ecs_stack(values, *, name: str = "ECS stack"):
    """:func:`as_ecs_stack`, and the mask of its strictly positive
    slices from the same screen."""
    arr = as_float_stack(values, name=name, allow_nan=True)
    screens, positive = _value_screens(arr)
    for category, _detail, mask in screens:
        if not mask.any():
            continue
        if category == "empty-line":
            bad = list(np.flatnonzero(mask))
            raise MatrixValueError(
                f"{name} has an all-zero row or column in slice(s) "
                f"{bad[:5]}{'...' if len(bad) > 5 else ''}"
            )
        raise MatrixValueError(f"{name} {_STACK_ERRORS[category]}")
    return arr, positive


#: What :func:`as_ecs_stack` says about a stack with each value fault.
_STACK_ERRORS = {
    "nan": "contains NaN entries",
    "non-finite": (
        "contains infinite entries; infinities belong in the ETC "
        "representation (use zero ECS for incompatible pairs)"
    ),
    "negative": "contains negative entries",
}


def stack_environments(environments) -> np.ndarray | None:
    """Stack same-shape environments into an ``(N, T, M)`` array.

    Each element may be a raw array, an :class:`~repro.core.ECSMatrix`
    (weighting factors folded in) or an :class:`~repro.core.ETCMatrix`
    (converted through paper eq. 1 first) — the same coercion every
    scalar measure applies.  Returns ``None`` when the shapes are ragged
    (the caller should fall back to the scalar path) and raises on an
    empty sequence.

    Examples
    --------
    >>> import numpy as np
    >>> stack_environments([np.ones((2, 3)), 2 * np.ones((2, 3))]).shape
    (2, 2, 3)
    >>> stack_environments([np.ones((2, 3)), np.ones((4, 3))]) is None
    True
    """
    from ..normalize.standard_form import _coerce_ecs

    arrays = [_coerce_ecs(env) for env in environments]
    if not arrays:
        raise MatrixShapeError("cannot stack an empty environment sequence")
    return stack_members(arrays)


def stack_members(members: list) -> np.ndarray | None:
    """``np.stack`` of coerced members; ``None`` unless every member is
    a 2-D array of one common shape."""
    if all(isinstance(m, np.ndarray) and m.ndim == 2 for m in members) and (
        len({m.shape for m in members}) == 1
    ):
        return np.stack(members)
    return None
