"""Heterogeneity regimes: naming and mapping environments in measure space.

Two services on top of the three measures:

* :func:`describe_regime` — translate a
  :class:`~repro.measures.HeterogeneityProfile` (or any environment)
  into the conventional regime vocabulary of the ETC literature
  ("high/low task heterogeneity", "high/low machine heterogeneity",
  with/without significant affinity).
* :func:`characterize_generator` — place a *generator family* in
  (MPH, TDH, TMA) space by sampling it: the related-work gap the paper
  points out is that the widely used generation methods ([4], [6]) say
  nothing about where their outputs land on standard heterogeneity
  measures.  Feeding the Braun twelve-case suite through this function
  produces exactly that missing table (bench
  ``bench_generator_regimes.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .._validation import check_positive_int
from ..batch import characterize_ensemble
from ..generate._rng import resolve_rng
from ..measures.report import HeterogeneityProfile, characterize

__all__ = [
    "RegimeThresholds",
    "describe_regime",
    "GeneratorFootprint",
    "characterize_generator",
]


@dataclass(frozen=True)
class RegimeThresholds:
    """Cut points separating "high heterogeneity" from "low".

    MPH/TDH are *homogeneity* measures, so "high machine heterogeneity"
    means MPH **below** ``machine``; TMA is affinity itself, "affine"
    means TMA **above** ``affinity``.
    """

    machine: float = 0.5
    task: float = 0.5
    affinity: float = 0.15


def describe_regime(
    environment_or_profile,
    *,
    thresholds: RegimeThresholds | None = None,
) -> str:
    """Name the heterogeneity regime of an environment.

    Accepts an environment (anything :func:`characterize` takes) or an
    already-computed profile.

    Examples
    --------
    >>> import numpy as np
    >>> describe_regime(np.ones((3, 3)))
    'homogeneous machines, homogeneous tasks, no significant affinity'
    >>> describe_regime(np.diag([1.0, 100.0]) + 0.01)
    'heterogeneous machines, heterogeneous tasks, strong task-machine affinity'
    """
    thresholds = thresholds or RegimeThresholds()
    if isinstance(environment_or_profile, HeterogeneityProfile):
        profile = environment_or_profile
    else:
        profile = characterize(environment_or_profile)
    machine = (
        "heterogeneous machines"
        if profile.mph < thresholds.machine
        else "homogeneous machines"
    )
    task = (
        "heterogeneous tasks"
        if profile.tdh < thresholds.task
        else "homogeneous tasks"
    )
    if profile.tma >= max(2 * thresholds.affinity, 0.3):
        affinity = "strong task-machine affinity"
    elif profile.tma >= thresholds.affinity:
        affinity = "moderate task-machine affinity"
    else:
        affinity = "no significant affinity"
    return f"{machine}, {task}, {affinity}"


@dataclass(frozen=True)
class GeneratorFootprint:
    """Sampled (MPH, TDH, TMA) statistics of one generator family.

    ``mean`` and ``std`` are length-3 arrays in (mph, tdh, tma) order;
    ``samples`` is the raw (n, 3) array for downstream plotting.
    """

    name: str
    mean: np.ndarray
    std: np.ndarray
    samples: np.ndarray

    def row(self) -> str:
        m, t, a = self.mean
        sm, st, sa = self.std
        return (
            f"{self.name:<10} MPH {m:.3f}±{sm:.3f}  "
            f"TDH {t:.3f}±{st:.3f}  TMA {a:.3f}±{sa:.3f}"
        )


def characterize_generator(
    name: str,
    factory: Callable[[int], object],
    *,
    samples: int = 10,
    seed=0,
) -> GeneratorFootprint:
    """Sample a generator family and summarize its measure footprint.

    Parameters
    ----------
    name : str
        Label for the family (e.g. a Braun case name).
    factory : callable
        ``factory(seed) -> environment``; called with derived integer
        seeds.
    samples : int
        Environments to draw.
    seed : int or Generator
        Master seed.  The drawn environments are characterized together
        by :func:`repro.batch.characterize_ensemble`: as one stack when
        they share a shape (they do for every generator family in
        :mod:`repro.generate`), member by member when they are ragged.

    Examples
    --------
    >>> from repro.generate import braun_case
    >>> fp = characterize_generator(
    ...     "hihi-i",
    ...     lambda s: braun_case("hihi-i", n_tasks=16, n_machines=6, seed=s),
    ...     samples=3,
    ... )
    >>> fp.samples.shape
    (3, 3)
    """
    samples = check_positive_int(samples, name="samples")
    rng = resolve_rng(seed)
    environments = [
        factory(int(rng.integers(0, 2**63 - 1))) for _ in range(samples)
    ]
    values = characterize_ensemble(environments).measures
    return GeneratorFootprint(
        name=name,
        mean=values.mean(axis=0),
        std=values.std(axis=0),
        samples=values,
    )
