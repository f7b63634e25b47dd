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
from ..exceptions import ConvergenceError, NotNormalizableError
from ..normalize.standard_form import DEFAULT_TOL, _standardize
# Not called here since characterize runs the private body, but still
# looked up in this module by name (benchmarks/suite/spans.py HOOKS).
from ..normalize.standard_form import standardize  # noqa: F401
from ..obs import metrics as _metrics
from ..obs import span as _obs_span
from ._coerce import coerce_ecs_and_weights
from .affinity import _column_tma, _singular_values, _standard_tma
from .alternatives import _line_statistics

__all__ = ["HeterogeneityProfile", "characterize", "characterize_many"]


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
    be = resolve_backend(backend)
    tol = check_positive_scalar(tol, name="tol", allow_zero=True)
    options = dict(tol=tol, backend=be)

    iterations: int | None = None
    residual: float | None = None
    method = "standard"
    with _obs_span(
        "measures.characterize", rows=ecs.shape[0], cols=ecs.shape[1]
    ) as sp:
        try:
            standard = _standardize(weighted, zeros="strict", **options)
        except (NotNormalizableError, ConvergenceError):
            if tma_fallback == "raise":
                raise
            standard = None
            if tma_fallback == "limit":
                try:
                    standard = _standardize(weighted, zeros="limit", **options)
                    method = "limit"
                except NotNormalizableError:
                    # Even the eq. 9 limit may not exist (the margins can
                    # be infeasible outright, e.g. one machine compatible
                    # with a single task type); eq. 5 always is.
                    pass
        if standard is None:
            method = "column"
            tma_value = _column_tma(weighted, be)
        else:
            iterations = standard.iterations
            residual = standard.residual
            tma_value = _standard_tma(_singular_values(standard.matrix, be))
        sp.note(tma_method=method, iterations=iterations)
    _metrics.record(("repro_characterize_runs_total", (method,), 1.0))

    # Summed after the standard form: a line sum that overflows raises
    # there, before numpy would warn about it here.
    mp = weighted.sum(axis=0)
    td = weighted.sum(axis=1)
    mph, machine_r, machine_g, machine_cov = _line_statistics(mp)
    tdh, task_r, task_g, task_cov = _line_statistics(td)
    return HeterogeneityProfile(
        mph=mph,
        tdh=tdh,
        tma=tma_value,
        machine_performance=mp,
        task_difficulty=td,
        machine_r=machine_r,
        machine_g=machine_g,
        machine_cov=machine_cov,
        task_r=task_r,
        task_g=task_g,
        task_cov=task_cov,
        sinkhorn_iterations=iterations,
        sinkhorn_residual=residual,
        tma_method=method,
        n_tasks=ecs.shape[0],
        n_machines=ecs.shape[1],
    )


def _characterize_worker(args: tuple) -> HeterogeneityProfile:
    """Module-level worker (picklable) for :func:`characterize_many`."""
    matrix, tol, tma_fallback = args
    return characterize(matrix, tol=tol, tma_fallback=tma_fallback)


def characterize_many(
    environments,
    *,
    tol: float = DEFAULT_TOL,
    tma_fallback: str = "limit",
    n_jobs: int | None = None,
) -> list[HeterogeneityProfile]:
    """Characterize a batch of environments, optionally in parallel.

    Equivalent to ``[characterize(e, ...) for e in environments]``;
    with ``n_jobs > 1`` the batch is distributed across a process pool
    (raw arrays and the core matrix wrappers are picklable).  Ensemble
    studies over hundreds of environments are the intended use.

    Examples
    --------
    >>> import numpy as np
    >>> profiles = characterize_many([np.ones((2, 2)), np.eye(2) + 0.01])
    >>> [round(p.tma, 2) for p in profiles]
    [0.0, 0.98]
    """
    from .._parallel import parallel_map

    items = [(env, tol, tma_fallback) for env in environments]
    return parallel_map(_characterize_worker, items, n_jobs=n_jobs)
