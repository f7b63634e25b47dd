"""Validation of ``(N, T, M)`` ensemble stacks.

The batched kernels assume clean, C-contiguous ``float64`` stacks the
same way the scalar kernels assume clean matrices; one coercer,
``repro._validation.as_float_array``, makes both.  A *stack* bundles N
same-shape ECS matrices along a leading ensemble axis; slice
``stack[i]`` is one environment.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_float_array
from ..exceptions import MatrixValueError
from ..normalize.sinkhorn import _first_slices
from ..robust.taxonomy import _value_screens

__all__ = ["as_ecs_stack"]


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


def _ecs_stack(values, *, name: str = "ECS stack", offset: int = 0):
    """:func:`as_ecs_stack`, and the mask of its strictly positive
    slices from the same screen; errors name slices from member
    ``offset`` on."""
    arr = as_float_array(values, ndim=3, name=name, allow_nan=True)
    screens, positive = _value_screens(arr)
    for category, _detail, mask in screens:
        if not mask.any():
            continue
        if category == "empty-line":
            raise MatrixValueError(
                f"{name} has an all-zero row or column in slice(s) "
                f"{_first_slices(np.flatnonzero(mask) + offset)}"
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


def stack_members(members: list) -> np.ndarray | None:
    """``np.stack`` of coerced members; ``None`` unless every member is
    a 2-D float64 array of one common shape (a member the robust
    coercion left as it came, e.g. non-numeric, never stacks)."""
    if all(
        isinstance(m, np.ndarray) and m.ndim == 2 and m.dtype == np.float64
        for m in members
    ) and len({m.shape for m in members}) == 1:
        return np.stack(members)
    return None
