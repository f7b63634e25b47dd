"""Weighted line sums shared by the measure functions.

Every measure coerces its input with
:func:`repro.core.environment.coerce_ecs_and_weights`; MP and TD are
then the line sums of the weighted matrix (eqs. 4/6), summed here.
"""

from __future__ import annotations

import numpy as np

from .._validation import unit_weights
from ..backends.base import _line_sums

__all__ = ["weighted_line_sums"]


def weighted_line_sums(stack, w_t, w_m) -> tuple[np.ndarray, np.ndarray]:
    """The ``(N, T)`` TD and ``(N, M)`` MP vectors (eqs. 4/6) of an ECS
    stack: the line sums of ``w_t[i] * w_m[j] * ECS[i, j]``, summed as
    :func:`repro.characterize` sums them, without its scaling screen.
    Unit weights sum ``stack`` itself, with no weighted copy."""
    if unit_weights(w_t, w_m):
        return _line_sums(stack)
    return _line_sums(w_t[:, None] * w_m[None, :] * stack)
