"""Heterogeneity measures (the paper's core contribution).

Three independent, scale-invariant measures characterize an HC
environment given as an ECS matrix:

* :func:`mph` — machine performance homogeneity (paper eq. 3; Section II-C),
* :func:`tdh` — task difficulty homogeneity (eq. 7; Section III — the
  measure this paper introduces),
* :func:`tma` — task-machine affinity from the singular values of the
  standard-form ECS matrix (eqs. 5 and 8; Sections II-E and III-D).

Plus the comparison measures of Section II-D (:func:`min_max_ratio`,
:func:`geometric_mean_ratio`, :func:`coefficient_of_variation`) that the
paper shows *fail* the intuition property, and a one-call
:func:`characterize` that produces the full
:class:`HeterogeneityProfile` for an environment.

All functions accept either raw arrays or the labelled
:class:`~repro.core.ECSMatrix`/:class:`~repro.core.ETCMatrix` wrappers
(ETC inputs are converted through eq. 1 first; wrapper weighting
factors are honoured).
"""

from .machine_performance import (
    machine_performance,
    mph,
    machine_performance_homogeneity,
)
from .task_difficulty import (
    task_difficulty,
    tdh,
    task_difficulty_homogeneity,
)
from .affinity import (
    tma,
    task_machine_affinity,
    standard_singular_values,
)
from .alternatives import (
    average_adjacent_ratio,
    min_max_ratio,
    geometric_mean_ratio,
    coefficient_of_variation,
)
from .report import HeterogeneityProfile, characterize
from .clusters import AffinityClusters, affinity_clusters

__all__ = [
    "machine_performance",
    "mph",
    "machine_performance_homogeneity",
    "task_difficulty",
    "tdh",
    "task_difficulty_homogeneity",
    "tma",
    "task_machine_affinity",
    "standard_singular_values",
    "average_adjacent_ratio",
    "min_max_ratio",
    "geometric_mean_ratio",
    "coefficient_of_variation",
    "HeterogeneityProfile",
    "characterize",
    "AffinityClusters",
    "affinity_clusters",
]
