"""Empirical independence of the three measures (measure property 3).

Two complementary experiments:

* :func:`independence_study` — the *constructive* check: hold two
  measure targets fixed, sweep the third through its range with
  :func:`repro.generate.from_targets`, and record all three achieved
  values.  Independence means the swept measure tracks its target while
  the other two stay pinned — this is exactly what the standard form of
  Section III-C buys, and the E9 benchmark regenerates the table.
* :func:`measure_correlations` — the *statistical* check: Pearson
  correlations of (MPH, TDH, TMA) over a random ensemble.  Unlike the
  totally-correlated pairs the paper warns against (e.g. standard
  deviation vs variance), the three measures show only weak empirical
  correlation on unconstrained random environments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .._validation import check_choice
from ..batch import characterize_ensemble
from ..generate.ensembles import random_ecs
from ..generate.target_driven import TargetSpec, from_targets
from ..obs import span as _obs_span
from ..measures.machine_performance import mph as _mph
from ..measures.task_difficulty import tdh as _tdh
from ..measures.affinity import tma as _tma

__all__ = ["IndependenceResult", "independence_study", "measure_correlations"]

_MEASURES = ("mph", "tdh", "tma")


@dataclass(frozen=True)
class IndependenceResult:
    """Outcome of one constructive independence sweep.

    ``swept`` names the measure whose target varied; ``targets`` are the
    requested values; ``achieved`` is a (len(targets), 3) array of the
    achieved (MPH, TDH, TMA); ``fixed`` holds the two pinned targets.
    """

    swept: str
    targets: np.ndarray
    achieved: np.ndarray
    fixed: dict[str, float]

    def max_drift(self) -> float:
        """Largest deviation of the *pinned* measures from their targets
        across the sweep — the quantity independence drives to ~0."""
        drift = 0.0
        for k, name in enumerate(_MEASURES):
            if name == self.swept:
                continue
            drift = max(
                drift, float(np.abs(self.achieved[:, k] - self.fixed[name]).max())
            )
        return drift

    def sweep_error(self) -> float:
        """Largest deviation of the swept measure from its targets."""
        k = _MEASURES.index(self.swept)
        return float(np.abs(self.achieved[:, k] - self.targets).max())


def independence_study(
    swept: str,
    *,
    n_tasks: int = 8,
    n_machines: int = 6,
    targets: Sequence[float] | None = None,
    fixed: dict[str, float] | None = None,
    jitter: float = 0.0,
    seed=None,
) -> IndependenceResult:
    """Sweep one measure while holding the other two fixed.

    Parameters
    ----------
    swept : {"mph", "tdh", "tma"}
        Which measure to sweep.
    targets : sequence of float, optional
        Swept values; defaults to an even grid over the measure's range.
    fixed : dict, optional
        Pinned values of the other two measures (default 0.7 each).
    jitter, seed
        Generator controls (see :func:`repro.generate.from_targets`).
    """
    check_choice(swept, name="swept", choices=_MEASURES)
    if targets is None:
        targets = (
            np.linspace(0.05, 0.85, 9)
            if swept == "tma"
            else np.linspace(0.15, 0.95, 9)
        )
    targets = np.asarray(targets, dtype=np.float64)
    pinned = {name: 0.7 for name in _MEASURES if name != swept}
    if fixed:
        pinned.update(fixed)
    achieved = np.empty((targets.shape[0], 3))
    with _obs_span(
        "analysis.independence", swept=swept, points=int(targets.shape[0])
    ):
        for row, value in enumerate(targets):
            spec_kwargs = dict(pinned)
            spec_kwargs[swept] = float(value)
            env = from_targets(
                n_tasks,
                n_machines,
                TargetSpec(**spec_kwargs),
                jitter=jitter,
                seed=seed,
            )
            achieved[row] = (_mph(env), _tdh(env), _tma(env))
    return IndependenceResult(
        swept=swept, targets=targets, achieved=achieved, fixed=pinned
    )


def measure_correlations(
    *,
    n_tasks: int = 10,
    n_machines: int = 6,
    samples: int = 200,
    spread: float = 8.0,
    seed=0,
) -> np.ndarray:
    """3×3 Pearson correlation matrix of (MPH, TDH, TMA) over a random
    ensemble of environments.

    Returns the symmetric correlation matrix in measure order
    (mph, tdh, tma).  Perfectly redundant measures — the paper's
    standard-deviation-vs-variance example — would show off-diagonal
    entries of ±1; the three paper measures stay far from that.

    The per-sample seeds are derived up front from the master seed,
    and the whole ensemble is characterized as one stack by
    :func:`repro.batch.characterize_ensemble`.
    """
    rng = np.random.default_rng(seed)
    item_seeds = [int(rng.integers(0, 2**63 - 1)) for _ in range(samples)]
    with _obs_span("analysis.correlations", samples=samples):
        stack = np.stack(
            [
                random_ecs(n_tasks, n_machines, spread=float(spread), seed=s).values
                for s in item_seeds
            ]
        )
        values = characterize_ensemble(stack).measures
    return np.corrcoef(values, rowvar=False)
