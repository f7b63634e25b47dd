"""Batched ensemble kernels over ``(N, T, M)`` matrix stacks.

Every study layer in this library (sensitivity trials, independence
ensembles, generator regime sweeps) characterizes many same-shape ETC
matrices.  The paper's kernels are pure row/column reductions plus one
SVD, so they batch naturally along a leading ensemble axis; this
package provides that stacked evaluation path:

* :func:`sinkhorn_knopp_batched` / :func:`standardize_batched` —
  broadcast row/column scaling with per-slice convergence masks and
  residual histories (paper eq. 9, Theorems 1–2);
* :func:`mph_batched` / :func:`tdh_batched` / :func:`tma_batched` —
  the three measures vectorized over the stack, TMA through stacked
  Gram eigenvalues, with one stacked ``numpy.linalg.svd`` for the
  slices that fail the Theorem 2 and conditioning test;
* :func:`characterize_ensemble` — one-call columnar characterization
  (structured arrays of MPH/TDH/TMA, iteration counts, converged
  flags) with automatic scalar fallback for zero-patterned slices and
  ragged inputs.

The batched and scalar paths agree bit for bit per slice; the
conformance table in ``tests/test_conformance.py`` and the
property-based harness in ``tests/batch/`` enforce this, and
``benchmarks/bench_batched_pipeline.py`` records the scalar-vs-batched
throughput.  See ``docs/BATCHED.md`` for the
dispatch rules and the memory trade-off of materializing full stacks.
"""

from ._stack import as_ecs_stack
from .sinkhorn import (
    BatchNormalizationResult,
    sinkhorn_knopp_batched,
    standardize_batched,
)
from .measures import (
    average_adjacent_ratio_batched,
    machine_performance_batched,
    task_difficulty_batched,
    mph_batched,
    tdh_batched,
    standard_singular_values_batched,
    tma_batched,
)
from .ensemble import (
    ENSEMBLE_DTYPE,
    EnsembleCharacterization,
    characterize_ensemble,
)

__all__ = [
    "as_ecs_stack",
    "BatchNormalizationResult",
    "sinkhorn_knopp_batched",
    "standardize_batched",
    "average_adjacent_ratio_batched",
    "machine_performance_batched",
    "task_difficulty_batched",
    "mph_batched",
    "tdh_batched",
    "standard_singular_values_batched",
    "tma_batched",
    "ENSEMBLE_DTYPE",
    "EnsembleCharacterization",
    "characterize_ensemble",
]
