"""repro — heterogeneity measures for heterogeneous computing environments.

A production-quality reproduction of

    A. M. Al-Qawasmeh, A. A. Maciejewski, R. G. Roberts, H. J. Siegel,
    "Characterizing Task-Machine Affinity in Heterogeneous Computing
    Environments", IEEE IPDPS 2011.

The library characterizes an HC environment — an ETC (estimated time to
compute) matrix over task types and machines — with three independent,
scale-invariant measures:

* **MPH** machine performance homogeneity,
* **TDH** task difficulty homogeneity,
* **TMA** task-machine affinity (singular values of the standard-form
  ECS matrix).

Quickstart
----------
>>> from repro import ETCMatrix, characterize
>>> etc = ETCMatrix([[10.0, 5.0], [4.0, 8.0]])
>>> profile = characterize(etc)
>>> 0 < profile.mph <= 1 and 0 <= profile.tma <= 1
True

Subpackages
-----------
``repro.core``
    ETC/ECS matrix model, weights, CSV/JSON I/O.
``repro.measures``
    MPH, TDH, TMA and the Section II-D comparison statistics.
``repro.normalize``
    Sinkhorn standard form (Theorems 1–2), canonical ordering.
``repro.structure``
    Zero-pattern decomposability and exact normalizability (Section VI).
``repro.generate``
    ETC-matrix generators for simulation studies.
``repro.spec``
    SPEC CPU2006Rate-derived evaluation environments (Section V).
``repro.scheduling``
    Static mapping heuristics and heterogeneity-aware heuristic selection.
``repro.analysis``
    What-if studies, measure-independence experiments, reports.
``repro.batch``
    Batched ensemble kernels over ``(N, T, M)`` stacks (stacked
    Sinkhorn, vectorized MPH/TDH/TMA, columnar
    :func:`characterize_ensemble`).
``repro.obs``
    Zero-dependency structured tracing of the Sinkhorn/SVD/scheduling
    hot paths: :func:`recording`, :func:`span`, :func:`traced`,
    :func:`summary`, pluggable sinks.
``repro.robust``
    Fault-tolerant ensemble pipeline: quarantine/repair policies
    (:class:`QuarantineReport`, :class:`Budget`), the repair ladder and
    seedable chaos fault injection (:class:`FaultPlan`).
``repro.backends``
    The kernels behind every Sinkhorn/SVD entry point: the batched
    Sinkhorn core, the singular values, the fused normalize-and-measure
    pass, and the warm-start and line-sum helpers they share.
``repro.shard``
    Out-of-core sharded ensembles: the on-disk :class:`StackStore`
    format, memory-budgeted chunk planning and
    :func:`characterize_store` — streaming execution with speculative
    straggler mitigation, bit-identical to the in-memory path.
"""

from .core import (
    ECSMatrix,
    ETCMatrix,
    ecs_to_etc,
    etc_to_ecs,
    load_environment_json,
    load_etc_csv,
    save_environment_json,
    save_etc_csv,
)
from .exceptions import (
    ConvergenceError,
    DatasetError,
    EmptyRowColumnError,
    GenerationError,
    MatrixShapeError,
    MatrixValueError,
    NotNormalizableError,
    ReproError,
    SchedulingError,
    WeightError,
)
from .measures import (
    HeterogeneityProfile,
    characterize,
    coefficient_of_variation,
    geometric_mean_ratio,
    machine_performance,
    min_max_ratio,
    mph,
    standard_singular_values,
    task_difficulty,
    tdh,
    tma,
)
from .normalize import (
    CanonicalFormResult,
    NormalizationResult,
    canonical_form,
    column_normalize,
    sinkhorn_knopp,
    standard_targets,
    standardize,
)
from .obs import recording, span, summary, traced
from .structure import (
    has_support,
    has_total_support,
    is_fully_indecomposable,
    is_normalizable,
    permute_to_block_form,
)
from .batch import (
    BatchNormalizationResult,
    EnsembleCharacterization,
    characterize_ensemble,
    mph_batched,
    sinkhorn_knopp_batched,
    standardize_batched,
    tdh_batched,
    tma_batched,
)
from .robust import (
    Budget,
    FaultPlan,
    MemberFault,
    QuarantineReport,
    repaired_matrix,
)
from .shard import (
    StackStore,
    StackStoreWriter,
    characterize_store,
    create_store,
    open_store,
    plan_shards,
    write_store,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "ETCMatrix",
    "ECSMatrix",
    "etc_to_ecs",
    "ecs_to_etc",
    "load_etc_csv",
    "save_etc_csv",
    "load_environment_json",
    "save_environment_json",
    # measures
    "machine_performance",
    "mph",
    "task_difficulty",
    "tdh",
    "tma",
    "standard_singular_values",
    "min_max_ratio",
    "geometric_mean_ratio",
    "coefficient_of_variation",
    "characterize",
    "HeterogeneityProfile",
    # normalize
    "sinkhorn_knopp",
    "standardize",
    "standard_targets",
    "column_normalize",
    "canonical_form",
    "NormalizationResult",
    "CanonicalFormResult",
    # obs
    "recording",
    "span",
    "traced",
    "summary",
    # structure
    "has_support",
    "has_total_support",
    "is_fully_indecomposable",
    "is_normalizable",
    "permute_to_block_form",
    # batch
    "BatchNormalizationResult",
    "EnsembleCharacterization",
    "characterize_ensemble",
    "sinkhorn_knopp_batched",
    "standardize_batched",
    "mph_batched",
    "tdh_batched",
    "tma_batched",
    # robust
    "Budget",
    "FaultPlan",
    "MemberFault",
    "QuarantineReport",
    "repaired_matrix",
    # shard
    "StackStore",
    "StackStoreWriter",
    "create_store",
    "open_store",
    "write_store",
    "plan_shards",
    "characterize_store",
    # exceptions
    "ReproError",
    "MatrixShapeError",
    "MatrixValueError",
    "EmptyRowColumnError",
    "WeightError",
    "ConvergenceError",
    "NotNormalizableError",
    "DatasetError",
    "SchedulingError",
    "GenerationError",
]
