"""ETC-matrix generators for simulation studies.

The paper's introduction lists "generating ETC matrices for simulation
studies that span the entire range of heterogeneities" as a primary
application of the measures (reference [2]).  This package implements
the three families of generators the literature uses:

* :func:`range_based` — the Ali/Siegel/Maheswaran/Hensgen range-based
  method (reference [4]), the most widely used ETC generator: task and
  machine heterogeneity are uniform ranges multiplied together, with
  consistent / inconsistent / partially-consistent variants.
* :func:`cvb` — the coefficient-of-variation-based method (gamma
  distributions parameterized by task/machine COV), the companion
  method from the same line of work.
* :func:`from_targets` — the measure-driven generator: produce a matrix
  whose MPH, TDH and TMA *exactly* equal requested targets, using the
  diagonal-scaling invariance of TMA (Theorem 1) plus margin Sinkhorn
  scaling.  This is the constructive inverse of the paper's measures
  and the tool behind the independence experiments (E9 in DESIGN.md).
* :mod:`repro.generate.ensembles` — grids/sweeps of generated
  environments for the analysis benchmarks.
"""

from .range_based import range_based, make_consistent, make_partially_consistent
from .cvb import cvb
from .target_driven import (
    from_targets,
    affinity_core,
    margins_for_homogeneity,
    TargetSpec,
)
from .braun import BRAUN_CASES, braun_case
from .correlated import correlated
from .ensembles import (
    heterogeneity_grid,
    random_ecs,
    random_ecs_stack,
    random_ecs_store,
    EnsembleMember,
    perturb,
    perturb_stack,
)

__all__ = [
    "range_based",
    "make_consistent",
    "make_partially_consistent",
    "cvb",
    "from_targets",
    "affinity_core",
    "margins_for_homogeneity",
    "TargetSpec",
    "BRAUN_CASES",
    "braun_case",
    "correlated",
    "heterogeneity_grid",
    "random_ecs",
    "random_ecs_stack",
    "random_ecs_store",
    "EnsembleMember",
    "perturb",
    "perturb_stack",
]
