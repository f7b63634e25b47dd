"""Batch-mode mapping heuristics (paper reference [6], Braun et al.).

All heuristics take the per-instance ETC array (or a
:class:`~repro.scheduling.Workload`) and return a
:class:`~repro.scheduling.Mapping`.  ``inf`` entries mark incompatible
task/machine pairs and are never selected.

Immediate mode (one pass in arrival order): OLB, MET, MCT, random.
Batch mode (consider all unmapped tasks each step): Min-min, Max-min,
Sufferage, Duplex.  ``ga`` refines Min-min with a small steady-state
genetic algorithm.

The batch kernels are vectorized over machines and over the unmapped
set: each of the N steps does O(U·M) numpy work instead of Python-level
scanning, following the repo's vectorization rule.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..exceptions import SchedulingError
from ..generate._rng import resolve_rng
from ..obs import span as _obs_span
from .mapping import Mapping, evaluate_mapping
from .workload import Workload

__all__ = [
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
]


def _coerce(etc) -> np.ndarray:
    if isinstance(etc, Workload):
        etc = etc.etc_instances
    arr = np.asarray(etc, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise SchedulingError("per-instance ETC must be a non-empty 2-D array")
    if (np.nan_to_num(arr, posinf=1.0) <= 0).any():
        raise SchedulingError("ETC values must be positive (inf = incompatible)")
    if np.isinf(arr).all(axis=1).any():
        raise SchedulingError("some task instance is incompatible with every machine")
    return arr


def olb(etc, *, seed=None) -> Mapping:
    """Opportunistic Load Balancing: next task goes to the machine with
    the lightest current load, ignoring the task's own ETC there
    (compatible machines only)."""
    arr = _coerce(etc)
    n_tasks, n_machines = arr.shape
    loads = np.zeros(n_machines)
    assignment = np.empty(n_tasks, dtype=np.intp)
    for k in range(n_tasks):
        masked = np.where(np.isfinite(arr[k]), loads, np.inf)
        m = int(np.argmin(masked))
        assignment[k] = m
        loads[m] += arr[k, m]
    return evaluate_mapping(arr, assignment, heuristic="olb")


def met(etc, *, seed=None) -> Mapping:
    """Minimum Execution Time: each task to its fastest machine,
    ignoring load (prone to overloading the best machine)."""
    arr = _coerce(etc)
    assignment = np.argmin(arr, axis=1)
    return evaluate_mapping(arr, assignment, heuristic="met")


def mct(etc, *, seed=None) -> Mapping:
    """Minimum Completion Time: next task to the machine where it
    finishes earliest given current loads."""
    arr = _coerce(etc)
    n_tasks, n_machines = arr.shape
    loads = np.zeros(n_machines)
    assignment = np.empty(n_tasks, dtype=np.intp)
    for k in range(n_tasks):
        m = int(np.argmin(loads + arr[k]))
        assignment[k] = m
        loads[m] += arr[k, m]
    return evaluate_mapping(arr, assignment, heuristic="mct")


def random_mapping(etc, *, seed=None) -> Mapping:
    """Uniform random compatible machine per task (baseline)."""
    arr = _coerce(etc)
    rng = resolve_rng(seed)
    n_tasks, n_machines = arr.shape
    assignment = np.empty(n_tasks, dtype=np.intp)
    for k in range(n_tasks):
        compatible = np.nonzero(np.isfinite(arr[k]))[0]
        assignment[k] = int(rng.choice(compatible))
    return evaluate_mapping(arr, assignment, heuristic="random")


def _batch_kernel(
    arr: np.ndarray, select: str, initial_loads=None
) -> np.ndarray:
    """Shared Min-min / Max-min / Sufferage loop.

    Each step computes, for every unmapped task, the machine minimizing
    its completion time; ``select`` picks which task commits first:
    the smallest best completion (min), the largest (max), or the
    largest best-vs-second-best gap (sufferage).  ``initial_loads``
    seeds the machine ready times (used by the batch-mode dynamic
    simulator, where machines carry work from earlier regenerations).
    """
    n_tasks, n_machines = arr.shape
    loads = (
        np.zeros(n_machines)
        if initial_loads is None
        else np.asarray(initial_loads, dtype=np.float64).copy()
    )
    assignment = np.empty(n_tasks, dtype=np.intp)
    remaining = np.arange(n_tasks)
    while remaining.size:
        completion = loads[None, :] + arr[remaining]  # (U, M)
        best_machine = np.argmin(completion, axis=1)
        best_value = completion[np.arange(remaining.size), best_machine]
        if select == "min":
            pick = int(np.argmin(best_value))
        elif select == "max":
            pick = int(np.argmax(best_value))
        else:  # sufferage
            if n_machines == 1:
                pick = int(np.argmin(best_value))
            else:
                tmp = completion.copy()
                tmp[np.arange(remaining.size), best_machine] = np.inf
                second = tmp.min(axis=1)
                gap = np.where(np.isfinite(second), second - best_value,
                               np.inf)
                pick = int(np.argmax(gap))
        task = int(remaining[pick])
        machine = int(best_machine[pick])
        assignment[task] = machine
        loads[machine] += arr[task, machine]
        remaining = np.delete(remaining, pick)
    return assignment


def min_min(etc, *, seed=None) -> Mapping:
    """Min-min: repeatedly commit the (task, machine) pair with the
    globally smallest completion time.  The strongest simple heuristic
    of Braun et al.'s study in most heterogeneity regimes."""
    arr = _coerce(etc)
    return evaluate_mapping(arr, _batch_kernel(arr, "min"), heuristic="min_min")


def max_min(etc, *, seed=None) -> Mapping:
    """Max-min: commit the task whose *best* completion time is largest
    (long tasks first); wins when a few dominant tasks exist."""
    arr = _coerce(etc)
    return evaluate_mapping(arr, _batch_kernel(arr, "max"), heuristic="max_min")


def sufferage(etc, *, seed=None) -> Mapping:
    """Sufferage: commit the task that would suffer most if denied its
    best machine (largest best/second-best completion gap)."""
    arr = _coerce(etc)
    return evaluate_mapping(
        arr, _batch_kernel(arr, "sufferage"), heuristic="sufferage"
    )


def duplex(etc, *, seed=None) -> Mapping:
    """Duplex: run Min-min and Max-min, keep the better makespan."""
    arr = _coerce(etc)
    a = min_min(arr)
    b = max_min(arr)
    best = a if a.makespan <= b.makespan else b
    return evaluate_mapping(arr, best.assignment, heuristic="duplex")


def ga(
    etc,
    *,
    population: int = 24,
    generations: int = 60,
    mutation_rate: float = 0.08,
    seed=None,
) -> Mapping:
    """Genetic-algorithm refinement seeded with Min-min.

    A compact steady-state GA over assignment chromosomes: tournament
    selection, uniform crossover, per-gene reassignment mutation
    restricted to compatible machines, elitism of one.  Never returns a
    mapping worse than its Min-min seed.
    """
    arr = _coerce(etc)
    rng = resolve_rng(seed)
    n_tasks, n_machines = arr.shape
    finite = np.isfinite(arr)
    compatible = [np.nonzero(finite[k])[0] for k in range(n_tasks)]

    def makespan_of(chrom: np.ndarray) -> float:
        times = arr[np.arange(n_tasks), chrom]
        return float(
            np.bincount(chrom, weights=times, minlength=n_machines).max()
        )

    seed_chrom = min_min(arr).assignment.astype(np.intp)
    pop = [seed_chrom.copy()]
    for _ in range(population - 1):
        chrom = seed_chrom.copy()
        flips = rng.random(n_tasks) < 0.3
        for k in np.nonzero(flips)[0]:
            chrom[k] = int(rng.choice(compatible[k]))
        pop.append(chrom)
    fitness = np.array([makespan_of(c) for c in pop])

    for _ in range(generations):
        # Tournament parents.
        idx = rng.integers(0, population, size=4)
        p1 = pop[idx[0]] if fitness[idx[0]] <= fitness[idx[1]] else pop[idx[1]]
        p2 = pop[idx[2]] if fitness[idx[2]] <= fitness[idx[3]] else pop[idx[3]]
        mask = rng.random(n_tasks) < 0.5
        child = np.where(mask, p1, p2).astype(np.intp)
        for k in np.nonzero(rng.random(n_tasks) < mutation_rate)[0]:
            child[k] = int(rng.choice(compatible[k]))
        child_fit = makespan_of(child)
        worst = int(np.argmax(fitness))
        if child_fit < fitness[worst]:
            pop[worst] = child
            fitness[worst] = child_fit
    best = pop[int(np.argmin(fitness))]
    return evaluate_mapping(arr, best, heuristic="ga")


#: Registry used by :func:`run_heuristic` and the selection study.
HEURISTICS: dict[str, Callable[..., Mapping]] = {
    "olb": olb,
    "met": met,
    "mct": mct,
    "min_min": min_min,
    "max_min": max_min,
    "sufferage": sufferage,
    "duplex": duplex,
    "ga": ga,
    "random": random_mapping,
}


def run_heuristic(name: str, etc, *, seed=None, **kwargs) -> Mapping:
    """Run a heuristic by registry name.

    Examples
    --------
    >>> run_heuristic("min_min", [[1.0, 2.0], [2.0, 1.0]]).makespan
    1.0
    """
    name = name.lower()
    try:
        fn = HEURISTICS[name]
    except KeyError:
        raise SchedulingError(
            f"unknown heuristic {name!r}; available: "
            f"{', '.join(sorted(HEURISTICS))}"
        ) from None
    with _obs_span(f"scheduling.{name}") as sp:
        mapping = fn(etc, seed=seed, **kwargs)
        sp.note(
            tasks=int(mapping.assignment.shape[0]),
            makespan=mapping.makespan,
        )
    return mapping
