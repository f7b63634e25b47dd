"""Additional heterogeneity statistics (companion-work measures).

The authors' companion paper ("Statistical measures for quantifying
task and machine heterogeneity", the paper's reference [3]) explores
further distribution statistics over the performance/difficulty
vectors.  This module supplies the common ones so studies can compare
MPH/TDH against a fuller battery than Section II-D's R/G/COV:

* :func:`gini_coefficient` — inequality of the performance mass
  (0 = perfectly homogeneous, → 1 as one machine dominates),
* :func:`quartile_dispersion` — (Q3 − Q1)/(Q3 + Q1), a robust spread
  measure insensitive to the extremes R and G over-weight,
* :func:`skewness` — population skewness: does heterogeneity come from
  a few fast machines (right skew) or a few stragglers (left skew)?

All are scale-invariant (property 2) like the paper's measures; like
COV they are *heterogeneity* measures (larger = more heterogeneous),
except :func:`skewness` which is signed.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_positive_vector
from .alternatives import _unit_scaled

__all__ = ["gini_coefficient", "quartile_dispersion", "skewness"]


def gini_coefficient(values) -> float:
    """Gini coefficient of a positive vector (0 = equal shares).

    Computed from the sorted form:
    ``sum((2k - n - 1) * v_(k)) / (n * sum(v))``.

    Examples
    --------
    >>> gini_coefficient([5.0, 5.0, 5.0])
    0.0
    >>> round(gini_coefficient([1.0, 1.0, 1.0, 1.0, 16.0]), 4)
    0.6
    """
    vec = np.sort(as_positive_vector(values, name="values"))
    n = vec.shape[0]
    if n == 1:
        return 0.0
    ranks = np.arange(1, n + 1)
    return float(((2 * ranks - n - 1) * vec).sum() / (n * vec.sum()))


def quartile_dispersion(values) -> float:
    """Quartile coefficient of dispersion: (Q3 − Q1)/(Q3 + Q1).

    Robust to the extreme values that make ``R`` and ``G`` blind to the
    intermediate machines; 0 for homogeneous vectors.

    Examples
    --------
    >>> quartile_dispersion([4.0, 4.0, 4.0, 4.0])
    0.0
    >>> round(quartile_dispersion([1.0, 2.0, 4.0, 8.0, 16.0]), 4)
    0.6
    """
    vec = as_positive_vector(values, name="values")
    q1, q3 = np.percentile(vec, [25.0, 75.0])
    if q1 + q3 == 0:  # pragma: no cover - positive inputs forbid this
        return 0.0
    return float((q3 - q1) / (q3 + q1))


def skewness(values) -> float:
    """Population skewness (Fisher): third standardized moment.

    Zero for symmetric performance profiles; positive when a few
    machines are much *faster* than the pack, negative when a few are
    much slower.  Returns 0.0 for constant vectors (no spread to skew).

    Examples
    --------
    >>> skewness([3.0, 3.0, 3.0])
    0.0
    >>> skewness([1.0, 1.0, 1.0, 1.0, 16.0]) > 0
    True
    """
    vec = as_positive_vector(values, name="values")
    if vec.shape[0] == 1:
        return 0.0
    vec = _unit_scaled(vec, vec.max())
    centered = vec - vec.mean()
    std = vec.std(ddof=0)
    # Relative threshold: a constant vector can carry float rounding
    # noise after scaling, which would otherwise explode the ratio.
    if std <= 1e-12 * vec.mean():
        return 0.0
    return float(np.mean((centered / std) ** 3))
