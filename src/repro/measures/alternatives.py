"""Homogeneity statistics over performance vectors (Section II-D).

The paper compares MPH against three other candidate measures on the
machine-performance vector and shows only MPH matches intuition about
the spread of *intermediate* machines:

* ``R`` (:func:`min_max_ratio`) — lowest/highest performance ratio,
* ``G`` (:func:`geometric_mean_ratio`) — geometric mean of adjacent
  sorted ratios, which telescopes to ``R ** (1/(M-1))``,
* ``COV`` (:func:`coefficient_of_variation`) — population standard
  deviation over mean (a *heterogeneity* measure: higher = more
  heterogeneous, unlike the other three).

:func:`average_adjacent_ratio` is the shared kernel of MPH (eq. 3) and
TDH (eq. 7).  All functions take a 1-D vector of strictly positive
values (performances or difficulties) in any order; they sort
internally.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_positive_vector

__all__ = [
    "average_adjacent_ratio",
    "min_max_ratio",
    "geometric_mean_ratio",
    "coefficient_of_variation",
]


def average_adjacent_ratio(values) -> float:
    """Mean ratio of each sorted value to its successor (eqs. 3 and 7).

    For ascending values ``v_(1) <= ... <= v_(n)`` this is
    ``mean(v_(k) / v_(k+1))``.  Returns 1.0 for a single value (empty
    sum; a lone machine/task is perfectly homogeneous).

    Examples
    --------
    >>> average_adjacent_ratio([1.0, 2.0, 4.0, 8.0, 16.0])
    0.5
    >>> round(average_adjacent_ratio([16.0, 1.0, 1.0, 1.0, 1.0]), 4)
    0.7656
    """
    return _adjacent_ratio(np.sort(as_positive_vector(values, name="values")))


def _adjacent_ratio(ordered: np.ndarray) -> float:
    """:func:`average_adjacent_ratio` of a validated, sorted vector."""
    if ordered.shape[0] == 1:
        return 1.0
    # np.mean without its wrapper: the same sum and division.
    ratios = ordered[:-1] / ordered[1:]
    return float(np.add.reduce(ratios) / ratios.shape[0])


def min_max_ratio(values) -> float:
    """The measure ``R``: worst performance over best (Section II-D).

    Captures only the two extremes — the paper's Fig. 2 environments 1
    through 4 all share ``R = 1/16`` despite clearly different spreads.

    Examples
    --------
    >>> min_max_ratio([1.0, 2.0, 4.0, 8.0, 16.0])
    0.0625
    """
    vec = as_positive_vector(values, name="values")
    return _min_max(vec.min(), vec.max())


def _min_max(low, high) -> float:
    """:func:`min_max_ratio` of values spanning ``[low, high]``."""
    return float(low / high)


def geometric_mean_ratio(values) -> float:
    """The measure ``G``: geometric mean of adjacent sorted ratios.

    Telescopes to ``(min/max) ** (1/(n-1))``, so like ``R`` it ignores
    the intermediate machines entirely (Fig. 2: G = 0.5 for all four
    environments).  Returns 1.0 for a single value.

    Examples
    --------
    >>> geometric_mean_ratio([1.0, 2.0, 4.0, 8.0, 16.0])
    0.5
    >>> geometric_mean_ratio([1.0, 1.0, 1.0, 1.0, 16.0])
    0.5
    """
    vec = as_positive_vector(values, name="values")
    return _geometric_ratio(vec.min(), vec.max(), vec.shape[0])


def _geometric_ratio(low, high, n: int) -> float:
    """:func:`geometric_mean_ratio` of ``n`` values spanning
    ``[low, high]``."""
    if n == 1:
        return 1.0
    # Computed in log space for numerical robustness; identical to the
    # product-of-adjacent-ratios definition.
    return float(np.exp((np.log(low) - np.log(high)) / (n - 1)))


def coefficient_of_variation(values) -> float:
    """The measure ``COV``: population standard deviation over mean.

    A *heterogeneity* measure (larger = more heterogeneous).  Uses the
    population standard deviation (``ddof=0``), which is what reproduces
    the paper's Fig. 2 values (COV = 1.5 for performances
    ``(1, 1, 1, 1, 16)``).

    Examples
    --------
    >>> coefficient_of_variation([1.0, 1.0, 1.0, 1.0, 16.0])
    1.5
    """
    return _cov(as_positive_vector(values, name="values"))


def _cov(vec: np.ndarray) -> float:
    """:func:`coefficient_of_variation` of a validated vector.

    ``vec.std(ddof=0) / vec.mean()`` without the wrappers: the same
    reductions in the same order, so the same bits.
    """
    n = vec.shape[0]
    mean = np.add.reduce(vec) / n
    deviation = vec - mean
    return float(np.sqrt(np.add.reduce(deviation * deviation) / n) / mean)


def _line_statistics(values) -> tuple[float, float, float, float]:
    """``(average_adjacent_ratio, min_max_ratio, geometric_mean_ratio,
    coefficient_of_variation)`` of one vector, validated once; the
    extremes and the adjacent ratios come from one sorted copy."""
    vec = as_positive_vector(values, name="values")
    ordered = np.sort(vec)
    low, high, n = ordered[0], ordered[-1], ordered.shape[0]
    return (
        _adjacent_ratio(ordered),
        _min_max(low, high),
        _geometric_ratio(low, high, n),
        _cov(vec),
    )
