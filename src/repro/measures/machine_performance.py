"""Machine performance and its homogeneity (paper Section II-C).

The performance of machine ``j`` is the weighted column sum of the ECS
matrix (eq. 4, reducing to eq. 2 with unit weights)::

    MP_j = w_m[j] * sum_i  w_t[i] * ECS(i, j)

With machines sorted ascending by performance, the machine performance
homogeneity is the average ratio of each machine's performance to the
next better one (eq. 3)::

    MPH = (1 / (M-1)) * sum_{j=1}^{M-1}  MP_(j) / MP_(j+1)

MPH lies in ``(0, 1]``; 1 means all machines perform identically.  A
single-machine environment is defined as perfectly homogeneous
(MPH = 1): the sum in eq. 3 is empty and there is no heterogeneity to
report.
"""

from __future__ import annotations

import numpy as np

from ..core.environment import coerce_ecs_and_weights
from ._coerce import weighted_line_sums
from .alternatives import average_adjacent_ratio

__all__ = ["machine_performance", "mph", "machine_performance_homogeneity"]


def machine_performance(
    matrix, *, task_weights=None, machine_weights=None
) -> np.ndarray:
    """Per-machine performance vector MP (eq. 2 / weighted eq. 4).

    Parameters
    ----------
    matrix : ECSMatrix, ETCMatrix or array-like
        The environment (raw arrays are interpreted as ECS).
    task_weights, machine_weights : array-like, optional
        Weighting factors ``w_t``/``w_m``; wrapper-stored weights are
        used when the argument is omitted.

    Returns
    -------
    numpy.ndarray, shape (M,)
        In original machine order (not sorted).

    Examples
    --------
    Figure 1 of the paper: machine 1's performance is 17.

    >>> ecs = [[4., 8., 5.], [5., 9., 4.], [6., 5., 2.], [2., 1., 3.]]
    >>> machine_performance(ecs)
    array([17., 23., 14.])
    """
    ecs, w_t, w_m = coerce_ecs_and_weights(matrix, task_weights, machine_weights)
    return weighted_line_sums(ecs[None], w_t, w_m)[1][0]


def mph(matrix, *, task_weights=None, machine_weights=None) -> float:
    """Machine performance homogeneity (paper eq. 3).

    Examples
    --------
    The paper's Figure 2, environment 1 (performances 1, 2, 4, 8, 16):

    >>> mph(np.diag([1.0, 2.0, 4.0, 8.0, 16.0]))
    0.5
    """
    perf = machine_performance(
        matrix, task_weights=task_weights, machine_weights=machine_weights
    )
    return average_adjacent_ratio(perf)


#: Long-form alias for :func:`mph`.
machine_performance_homogeneity = mph
