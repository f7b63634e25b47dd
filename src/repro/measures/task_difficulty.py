"""Task difficulty and its homogeneity (paper Section III).

The difficulty of task type ``i`` is quantified by its weighted row sum
in the ECS matrix (eq. 6)::

    TD_i = w_t[i] * sum_j  w_m[j] * ECS(i, j)

Higher row sums mean the task completes faster across the machine set,
i.e. the task is *less* difficult.  With task types sorted ascending by
TD, the task difficulty homogeneity is the average adjacent ratio
(eq. 7), mirroring MPH::

    TDH = (1 / (T-1)) * sum_{i=1}^{T-1}  TD_(i) / TD_(i+1)

TDH lies in ``(0, 1]``; a single-task environment is defined as
perfectly homogeneous (TDH = 1).  TDH is the measure this paper adds to
the MPH/TMA pair of the authors' earlier work [2]; its introduction is
what forces the full row-and-column standard form for TMA.
"""

from __future__ import annotations

import numpy as np

from ..core.environment import coerce_ecs_and_weights
from ._coerce import weighted_line_sums
from .alternatives import average_adjacent_ratio

__all__ = ["task_difficulty", "tdh", "task_difficulty_homogeneity"]


def task_difficulty(
    matrix, *, task_weights=None, machine_weights=None
) -> np.ndarray:
    """Per-task difficulty vector TD (paper eq. 6).

    Returns the vector in original task order (not sorted).  Note that
    larger TD means an *easier* task type (more of it completes per
    unit time across the machines).

    Examples
    --------
    >>> ecs = [[4., 8., 5.], [5., 9., 4.], [6., 5., 2.], [2., 1., 3.]]
    >>> task_difficulty(ecs)
    array([17., 18., 13.,  6.])
    """
    ecs, w_t, w_m = coerce_ecs_and_weights(matrix, task_weights, machine_weights)
    return weighted_line_sums(ecs[None], w_t, w_m)[0][0]


def tdh(matrix, *, task_weights=None, machine_weights=None) -> float:
    """Task difficulty homogeneity (paper eq. 7).

    Examples
    --------
    Two equally difficult task types are perfectly homogeneous:

    >>> tdh([[1.0, 2.0], [2.0, 1.0]])
    1.0
    """
    diff = task_difficulty(
        matrix, task_weights=task_weights, machine_weights=machine_weights
    )
    return average_adjacent_ratio(diff)


#: Long-form alias for :func:`tdh`.
task_difficulty_homogeneity = tdh
