"""Input coercion shared by the measure functions.

Every measure accepts:

* a raw array-like (interpreted as an ECS matrix),
* an :class:`~repro.core.ECSMatrix` (stored weights used unless the
  caller overrides them), or
* an :class:`~repro.core.ETCMatrix` (converted through paper eq. 1,
  stored weights used unless overridden).
"""

from __future__ import annotations

import numpy as np

from .._validation import as_ecs_array, check_weights, unit_weights
from ..backends.base import _line_sums
from ..core.environment import ECSMatrix, ETCMatrix

__all__ = ["coerce_ecs_and_weights", "weighted_line_sums"]


def coerce_ecs_and_weights(
    matrix, task_weights, machine_weights
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(ecs, w_t, w_m)`` as validated float64 arrays."""
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
    w_t = check_weights(task_weights, ecs.shape[0], name="task_weights")
    w_m = check_weights(machine_weights, ecs.shape[1], name="machine_weights")
    return ecs, w_t, w_m


def weighted_line_sums(stack, w_t, w_m) -> tuple[np.ndarray, np.ndarray]:
    """The ``(N, T)`` TD and ``(N, M)`` MP vectors (eqs. 4/6) of an ECS
    stack: the line sums of ``w_t[i] * w_m[j] * ECS[i, j]``, summed as
    :func:`repro.characterize` sums them, without its scaling screen.
    Unit weights sum ``stack`` itself, with no weighted copy."""
    if unit_weights(w_t, w_m):
        return _line_sums(stack)
    return _line_sums(w_t[:, None] * w_m[None, :] * stack)
