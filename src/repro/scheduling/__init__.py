"""Static mapping heuristics for HC environments.

The paper's introduction motivates the heterogeneity measures with the
application of "selecting appropriate heuristics to use in an HC
environment based on its heterogeneity" (reference [3]).  This package
supplies that substrate: the classic batch-mode mapping heuristics of
Braun et al. (paper reference [6]) operating on ETC matrices —

* immediate heuristics: :func:`olb`, :func:`met`, :func:`mct`,
  :func:`random_mapping`,
* batch heuristics: :func:`min_min`, :func:`max_min`, :func:`sufferage`,
  :func:`duplex`,
* a light genetic-algorithm refiner :func:`ga` seeded with Min-min,

plus :class:`Mapping` (assignment + makespan/flowtime accounting),
workload expansion from task types to task instances, and the
heterogeneity-aware heuristic-selection study used by benchmark E12.
"""

from .mapping import Mapping, evaluate_mapping
from .workload import Workload, expand_workload
from .heuristics import (
    HEURISTICS,
    olb,
    met,
    mct,
    min_min,
    max_min,
    sufferage,
    duplex,
    ga,
    random_mapping,
    run_heuristic,
)
from .selection import (
    HeuristicComparison,
    compare_heuristics,
    recommend_from_measures,
    recommend_heuristic,
    selection_study,
)
from .robustness import (
    RobustnessReport,
    robustness_comparison,
    robustness_radius,
)
from .dynamic import (
    BATCH_SELECT_RULES,
    ONLINE_POLICIES,
    OnlineResult,
    poisson_arrivals,
    simulate_batch_mode,
    simulate_online,
)

__all__ = [
    "Mapping",
    "evaluate_mapping",
    "Workload",
    "expand_workload",
    "HEURISTICS",
    "olb",
    "met",
    "mct",
    "min_min",
    "max_min",
    "sufferage",
    "duplex",
    "ga",
    "random_mapping",
    "run_heuristic",
    "HeuristicComparison",
    "compare_heuristics",
    "recommend_heuristic",
    "recommend_from_measures",
    "selection_study",
    "ONLINE_POLICIES",
    "BATCH_SELECT_RULES",
    "OnlineResult",
    "poisson_arrivals",
    "simulate_online",
    "simulate_batch_mode",
    "RobustnessReport",
    "robustness_radius",
    "robustness_comparison",
]
