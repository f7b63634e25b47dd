"""Matrix normalization: standard and canonical ECS forms.

Section III-C of the paper shows that the three heterogeneity measures
are independent only when TMA is computed from a *standard* ECS matrix —
one whose row sums are all equal and whose column sums are all equal.
This package implements:

* :func:`sinkhorn_knopp` — the alternating row/column scaling iteration
  of paper eq. (9), generalized to arbitrary consistent row/column sum
  targets (Theorem 1, a rectangular extension of Sinkhorn's theorem).
* :func:`standardize` — the specific target choice of Theorem 2
  (row sums ``sqrt(M/T)``, column sums ``sqrt(T/M)``) that pins the
  largest singular value to exactly 1 and enables the simplified TMA
  formula of eq. (8).
* :func:`column_normalize` — the simpler 1-norm column scaling used by
  the paper's precursor work [2] and by eq. (5).
* :func:`canonical_form` — sorts machines by performance and task types
  by difficulty (ascending), the ordering MPH and TDH are defined on.
"""

from .sinkhorn import (
    NormalizationResult,
    sinkhorn_knopp,
    scale_to_margins,
    scale_by_diagonals,
)
from .standard_form import (
    standardize,
    standard_targets,
    column_normalize,
    is_standard,
)
from .canonical import CanonicalFormResult, canonical_form
from .diagnostics import (
    ConvergenceDiagnostics,
    convergence_diagnostics,
    predict_iterations,
)

__all__ = [
    "NormalizationResult",
    "sinkhorn_knopp",
    "scale_to_margins",
    "scale_by_diagonals",
    "standardize",
    "standard_targets",
    "column_normalize",
    "is_standard",
    "CanonicalFormResult",
    "canonical_form",
    "ConvergenceDiagnostics",
    "convergence_diagnostics",
    "predict_iterations",
]
