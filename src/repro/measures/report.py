"""One-call environment characterization.

:func:`characterize` computes the full profile of an HC environment:
the paper's three measures, the Section II-D comparison statistics for
both machines and task types, and the normalization diagnostics
(standard-form iteration count, residual) that the paper reports for
the SPEC matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._validation import check_choice, check_positive_scalar, weight_ecs
from ..backends import resolve_backend
from ..batch.measures import _scalar_measures
from ..normalize.standard_form import DEFAULT_TOL
# Not called here since characterize runs the private body, but still
# looked up in this module by name (benchmarks/suite/spans.py HOOKS).
from ..normalize.standard_form import standardize  # noqa: F401
from ._coerce import coerce_ecs_and_weights
from .alternatives import _line_statistics

__all__ = ["HeterogeneityProfile", "characterize"]


@dataclass(frozen=True)
class HeterogeneityProfile:
    """Complete heterogeneity characterization of one environment.

    Attributes
    ----------
    mph, tdh, tma : float
        The paper's three measures.  ``tma`` may come from the
        column-normalized fallback (eq. 5) when the standard form does
        not exist; ``tma_method`` records which formula produced it.
    machine_performance, task_difficulty : numpy.ndarray
        The MP and TD vectors in original order.
    machine_r, machine_g, machine_cov : float
        Section II-D comparison statistics over MP.
    task_r, task_g, task_cov : float
        The same statistics over TD.
    sinkhorn_iterations : int or None
        Standard-form iteration count (None when the fallback was used).
    sinkhorn_residual : float or None
        Final max row/column-sum error of the standard form.
    tma_method : str
        ``"standard"`` (eq. 8) or ``"column"`` (eq. 5 fallback).
    n_tasks, n_machines : int
        Environment dimensions.
    """

    mph: float
    tdh: float
    tma: float
    machine_performance: np.ndarray = field(repr=False)
    task_difficulty: np.ndarray = field(repr=False)
    machine_r: float
    machine_g: float
    machine_cov: float
    task_r: float
    task_g: float
    task_cov: float
    sinkhorn_iterations: int | None
    sinkhorn_residual: float | None
    tma_method: str
    n_tasks: int
    n_machines: int

    def summary(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"HC environment: {self.n_tasks} task types x "
            f"{self.n_machines} machines",
            f"  MPH = {self.mph:.4f}   (R={self.machine_r:.4f}, "
            f"G={self.machine_g:.4f}, COV={self.machine_cov:.4f})",
            f"  TDH = {self.tdh:.4f}   (R={self.task_r:.4f}, "
            f"G={self.task_g:.4f}, COV={self.task_cov:.4f})",
            f"  TMA = {self.tma:.4f}   [{self.tma_method} form]",
        ]
        if self.sinkhorn_iterations is not None:
            lines.append(
                f"  standard form: {self.sinkhorn_iterations} iterations, "
                f"residual {self.sinkhorn_residual:.2e}"
            )
        return "\n".join(lines)


def characterize(
    matrix,
    *,
    task_weights=None,
    machine_weights=None,
    tol: float = DEFAULT_TOL,
    tma_fallback: str = "limit",
    backend=None,
) -> HeterogeneityProfile:
    """Compute the full heterogeneity profile of an environment.

    Parameters
    ----------
    matrix : ECSMatrix, ETCMatrix or array-like
        The environment.
    task_weights, machine_weights : array-like, optional
        Weighting factors (wrapper-stored weights used by default).
    tol : float
        Sinkhorn stopping tolerance for the standard form; finite and
        >= 0.
    tma_fallback : {"limit", "column", "raise"}
        What to do when the exact standard form does not exist
        (non-normalizable zero pattern, Section VI):

        * ``"limit"`` (default) — evaluate TMA on the limit of the
          paper's eq. 9 iteration (the Fig. 4 semantics); recorded as
          ``tma_method="limit"``.
        * ``"column"`` — fall back to the eq. 5 column-normalized
          formula; recorded as ``tma_method="column"``.
        * ``"raise"`` — propagate the
          :class:`~repro.exceptions.NotNormalizableError`.
    backend : str or KernelBackend, optional
        Kernel backend running the Sinkhorn iteration and the SVD (see
        :mod:`repro.backends`).

    Examples
    --------
    >>> profile = characterize([[1.0, 2.0], [2.0, 4.0]])
    >>> round(profile.mph, 4), round(profile.tdh, 4), round(profile.tma, 4)
    (0.5, 0.5, 0.0)
    """
    check_choice(
        tma_fallback, name="tma_fallback", choices=("limit", "column", "raise")
    )
    # The one validation of this call: the private bodies below trust it.
    ecs, w_t, w_m = coerce_ecs_and_weights(matrix, task_weights, machine_weights)
    weighted = weight_ecs(ecs, w_t, w_m)
    tma_value, method, standard, (row_sums, col_sums) = _scalar_measures(
        weighted,
        tma_fallback=tma_fallback,
        backend=resolve_backend(backend),
        tol=check_positive_scalar(tol, name="tol", allow_zero=True),
        max_iterations=100_000,
    )
    mph, machine_r, machine_g, machine_cov = _line_statistics(col_sums[0])
    tdh, task_r, task_g, task_cov = _line_statistics(row_sums[0])
    return HeterogeneityProfile(
        mph=mph,
        tdh=tdh,
        tma=tma_value,
        machine_performance=col_sums[0],
        task_difficulty=row_sums[0],
        machine_r=machine_r,
        machine_g=machine_g,
        machine_cov=machine_cov,
        task_r=task_r,
        task_g=task_g,
        task_cov=task_cov,
        sinkhorn_iterations=None if standard is None else int(standard.iterations[0]),
        sinkhorn_residual=None if standard is None else float(standard.residual[0]),
        tma_method=method,
        n_tasks=ecs.shape[0],
        n_machines=ecs.shape[1],
    )
