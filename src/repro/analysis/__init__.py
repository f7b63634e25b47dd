"""Analysis toolkit built on the measures.

The paper's introduction lists the downstream applications these
modules implement:

* :mod:`repro.analysis.whatif` — "what-if studies to identify the
  effect of adding/removing task types or machines from an HC system on
  its heterogeneity".
* :mod:`repro.analysis.independence` — empirical verification of the
  third measure property (the three measures can be moved
  independently), plus correlation studies over random ensembles.
* :mod:`repro.analysis.compare` — side-by-side environment comparison
  tables (the presentation of Figs. 6–8).
"""

from .whatif import (
    WhatIfEntry,
    whatif_drop_tasks,
    whatif_drop_machines,
    whatif_add_task,
    whatif_add_machine,
)
from .independence import (
    IndependenceResult,
    independence_study,
    measure_correlations,
)
from .compare import (
    comparison_table,
    format_table,
    measure_distance,
    equivalent_up_to_scaling,
    rank_by_similarity,
)
from .sensitivity import SensitivityResult, sensitivity_study
from .regimes import (
    GeneratorFootprint,
    RegimeThresholds,
    characterize_generator,
    describe_regime,
)
from .reporting import environment_report

__all__ = [
    "WhatIfEntry",
    "whatif_drop_tasks",
    "whatif_drop_machines",
    "whatif_add_task",
    "whatif_add_machine",
    "IndependenceResult",
    "independence_study",
    "measure_correlations",
    "comparison_table",
    "format_table",
    "measure_distance",
    "equivalent_up_to_scaling",
    "rank_by_similarity",
    "SensitivityResult",
    "sensitivity_study",
    "RegimeThresholds",
    "describe_regime",
    "GeneratorFootprint",
    "characterize_generator",
    "environment_report",
]
