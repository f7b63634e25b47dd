"""The Braun et al. twelve-case ETC benchmark suite (paper reference [6]).

"A comparison of eleven static heuristics ..." standardized twelve ETC
classes — the cross product of task heterogeneity {high, low}, machine
heterogeneity {high, low}, and consistency {consistent, semi,
inconsistent} — generated with the range-based method of reference [4].
Those classes became the de-facto benchmark for mapping-heuristic
papers; this module ships them as named presets so studies in this
repository can cite a case by its conventional name (e.g. ``hihi-c``).

Naming: ``<task-het><machine-het>-<consistency>`` with ``hi``/``lo``
and ``c``/``s``/``i``, e.g. ``hilo-s`` = high task heterogeneity, low
machine heterogeneity, semi-consistent.

Classic range parameters: task 3000 (hi) / 100 (lo); machine 1000 (hi)
/ 10 (lo).
"""

from __future__ import annotations

from ..core.environment import ETCMatrix
from ..exceptions import GenerationError
from .range_based import range_based

__all__ = ["BRAUN_CASES", "braun_case"]

_TASK_RANGE = {"hi": 3000.0, "lo": 100.0}
_MACHINE_RANGE = {"hi": 1000.0, "lo": 10.0}
_CONSISTENCY = {"c": "consistent", "s": "partially", "i": "inconsistent"}

#: The twelve conventional case names, in the order papers tabulate them.
BRAUN_CASES: tuple[str, ...] = tuple(
    f"{t}{m}-{c}"
    for t in ("hi", "lo")
    for m in ("hi", "lo")
    for c in ("c", "s", "i")
)


def braun_case(
    name: str,
    *,
    n_tasks: int = 512,
    n_machines: int = 16,
    seed=None,
) -> ETCMatrix:
    """Generate one of the twelve Braun et al. ETC classes by name.

    The classic study used 512 tasks × 16 machines; override the shape
    for faster experiments.

    Examples
    --------
    >>> etc = braun_case("hihi-c", n_tasks=32, n_machines=8, seed=0)
    >>> etc.shape
    (32, 8)
    >>> bool((etc.values[:, :-1] <= etc.values[:, 1:]).all())   # consistent
    True
    """
    key = name.lower()
    if key not in BRAUN_CASES:
        raise GenerationError(
            f"unknown Braun case {name!r}; valid names: "
            f"{', '.join(BRAUN_CASES)}"
        )
    het, consistency = key.split("-")
    return range_based(
        n_tasks,
        n_machines,
        task_range=_TASK_RANGE[het[:2]],
        machine_range=_MACHINE_RANGE[het[2:]],
        consistency=_CONSISTENCY[consistency],
        consistent_fraction=0.5,
        seed=seed,
    )

