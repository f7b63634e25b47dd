"""Sensitivity of the measures to ETC estimation noise.

ETC values come from profiling, benchmarking, or user estimates (paper
Section I), all of which carry error.  A usable heterogeneity measure
must degrade gracefully under that error; this module quantifies it by
multiplicative log-normal perturbation: each positive entry becomes
``x * exp(N(0, σ))`` and the three measures are re-computed over many
trials.

:func:`sensitivity_study` returns, per noise level, the mean absolute
shift and the worst shift of each measure — the robustness curve the
E-ablation benchmark tabulates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .._validation import as_ecs_array, check_positive_int
from ..batch import characterize_ensemble
from ..generate._rng import resolve_rng
from ..generate.ensembles import perturb
from ..obs import span as _obs_span
from ..measures.machine_performance import mph as _mph
from ..measures.task_difficulty import tdh as _tdh
from ..measures.affinity import tma as _tma

__all__ = ["SensitivityResult", "sensitivity_study"]

_MEASURES = ("mph", "tdh", "tma")


@dataclass(frozen=True)
class SensitivityResult:
    """Robustness curves of the three measures under estimation noise.

    Attributes
    ----------
    noise_levels : numpy.ndarray, shape (L,)
        The log-space σ values swept.
    baseline : dict
        Unperturbed measure values.
    mean_shift, max_shift : numpy.ndarray, shape (L, 3)
        Mean/max absolute deviation from baseline over the trials, in
        measure order (mph, tdh, tma).
    trials : int
    """

    noise_levels: np.ndarray
    baseline: dict
    mean_shift: np.ndarray
    max_shift: np.ndarray
    trials: int

    def table(self) -> str:
        """Render the robustness curve as aligned text."""
        lines = [
            "sigma    mean|dMPH|  mean|dTDH|  mean|dTMA|   "
            "max|dMPH|  max|dTDH|  max|dTMA|"
        ]
        for level, mean, worst in zip(
            self.noise_levels, self.mean_shift, self.max_shift
        ):
            lines.append(
                f"{level:<7.3f}  {mean[0]:.4f}      {mean[1]:.4f}      "
                f"{mean[2]:.4f}       {worst[0]:.4f}     {worst[1]:.4f}"
                f"     {worst[2]:.4f}"
            )
        return "\n".join(lines)


def sensitivity_study(
    matrix,
    *,
    noise_levels: Sequence[float] = (0.01, 0.05, 0.1, 0.2),
    trials: int = 20,
    seed=0,
) -> SensitivityResult:
    """Measure-shift statistics under multiplicative estimation noise.

    Parameters
    ----------
    matrix : ECSMatrix, ETCMatrix or array-like
        The environment to perturb (interpreted as ECS when raw).
    noise_levels : sequence of float
        Log-space standard deviations to sweep (0.1 ≈ ±10% typical
        estimation error).
    trials : int
        Perturbation draws per level.
    seed : int or Generator
        Randomness source (deterministic by default).  Per-trial seeds
        are derived up front; each level's trials are characterized as
        one stack by :func:`repro.batch.characterize_ensemble`, which
        sends zero-patterned draws down its scalar path.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> result = sensitivity_study(rng.uniform(1, 5, (6, 4)), trials=5)
    >>> bool((result.mean_shift[0] <= result.mean_shift[-1] + 0.2).all())
    True
    """
    from ..core.environment import ECSMatrix, ETCMatrix

    if isinstance(matrix, ETCMatrix):
        ecs = matrix.to_ecs().values
    elif isinstance(matrix, ECSMatrix):
        ecs = matrix.values
    else:
        ecs = as_ecs_array(matrix)
    trials = check_positive_int(trials, name="trials")
    rng = resolve_rng(seed)
    levels = np.asarray(noise_levels, dtype=np.float64)
    if levels.ndim != 1 or levels.size == 0 or (levels <= 0).any():
        raise ValueError("noise_levels must be a non-empty positive sequence")

    baseline = {
        "mph": _mph(ecs),
        "tdh": _tdh(ecs),
        "tma": _tma(ecs, zeros="limit"),
    }
    base_vec = np.array([baseline[m] for m in _MEASURES])
    mean_shift = np.empty((levels.size, 3))
    max_shift = np.empty((levels.size, 3))
    for li, sigma in enumerate(levels):
        item_seeds = [int(rng.integers(0, 2**63 - 1)) for _ in range(trials)]
        with _obs_span(
            "analysis.sensitivity_level", sigma=float(sigma), trials=trials
        ):
            stack = np.stack(
                [perturb(ecs, float(sigma), seed=s) for s in item_seeds]
            )
            measured = characterize_ensemble(
                stack, tma_fallback="limit"
            ).measures
        shifts = np.abs(measured - base_vec[None, :])
        mean_shift[li] = shifts.mean(axis=0)
        max_shift[li] = shifts.max(axis=0)
    return SensitivityResult(
        noise_levels=levels,
        baseline=baseline,
        mean_shift=mean_shift,
        max_shift=max_shift,
        trials=trials,
    )
