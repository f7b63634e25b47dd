"""Retry-with-repair for quarantined ensemble members.

The ladder maps each fault category to its recovery move:

* ``timeout`` — the member's data is fine, only its worker straggled:
  recompute locally (the coded-computation move — re-issue the
  straggler's work instead of waiting for it).
* ``empty-line`` / ``decomposable`` / ``infeasible`` — pattern surgery
  via :func:`repro.structure.suggest_repairs`: drop the Marshall–Olkin
  blocking entries (exact submatrix extraction) when the margins are
  feasible, otherwise greedily add compatibilities (zero-fill with a
  plausible speed) until the pattern normalizes.
* ``non-convergent`` — exponential residual-tolerance backoff: attempt
  ``k`` reruns the standard-form iteration at ``tol * backoff**k`` with
  a ``growth**k`` larger iteration budget, so slow-but-convergent
  members recover at a documented, relaxed tolerance.

Corrupt data (``nan``, ``non-finite``, ``negative``, shapes, unknown
worker errors) is never "repaired" — inventing entries would silently
fabricate measures — so those members stay quarantined.

One ladder serves both ensemble entry points: ``characterize_ensemble``
turns a repaired member's standard form into measure columns
(:func:`repair_member`), ``standardize_batched`` splices the standard
form itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..backends import resolve_backend
from ..exceptions import MatrixValueError, ReproError
from ..measures.affinity import _singular_values, _tma_column
from ..measures.alternatives import average_adjacent_ratio
from ..normalize.standard_form import standardize
from ..obs import metrics as _metrics, span as _obs_span
from .budget import Budget, Deadline
from .taxonomy import UNREPAIRABLE_CATEGORIES, MemberFault, QuarantineReport

__all__ = ["MemberRecovery", "repair_member", "repaired_matrix"]

#: Categories the pattern surgery step repairs.
PATTERN_CATEGORIES = ("empty-line", "decomposable", "infeasible")


@dataclass(frozen=True)
class MemberRecovery:
    """A successful repair: the recovered profile columns plus how.

    ``columns`` matches the ensemble column layout:
    ``(mph, tdh, tma, iterations, converged)``.
    """

    columns: tuple[float, float, float, int, bool]
    attempts: int
    repair: str


def _pattern_plan(arr: np.ndarray):
    """The exact ``drop`` plan, or the greedy ``add`` plan when the
    margins are infeasible outright (e.g. an all-zero row)."""
    from ..structure import suggest_repairs

    try:
        return suggest_repairs(arr, strategy="drop")
    except MatrixValueError:
        return suggest_repairs(arr, strategy="add")


def _median_fill(arr: np.ndarray) -> float:
    """The median positive entry: a plausible ECS speed for an added
    compatibility (1.0 when there is none)."""
    positive = arr[arr > 0]
    return float(np.median(positive)) if positive.size else 1.0


def repaired_matrix(matrix, *, fill: float | None = None) -> np.ndarray:
    """Pattern-repair ``matrix`` into a normalizable copy.

    Tries the exact ``drop`` plan first (unique blocking set,
    Marshall–Olkin submatrix extraction); falls back to the greedy
    ``add`` plan when the margins are infeasible outright (e.g. an
    all-zero row, which only new compatibilities can fix).  Added
    entries are filled with ``fill`` — by default the median positive
    entry, a plausible ECS speed for the new compatibility.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.structure import is_normalizable
    >>> eq10 = np.array([[0, 0, 1], [1, 0, 1], [0, 1, 0]], dtype=float)
    >>> bool(is_normalizable(repaired_matrix(eq10)))
    True
    """
    arr = np.asarray(matrix, dtype=np.float64)
    return _pattern_plan(arr).apply(
        arr, fill=_median_fill(arr) if fill is None else fill
    )


def _repair(
    matrix,
    category: str,
    *,
    tol: float,
    max_iterations: int,
    budget: Budget,
    deadline: Deadline,
):
    """Walk the ladder for one member.

    Returns ``(repaired, standard, attempts, label)``: the repaired
    matrix, its converged standard form
    (:class:`~repro.normalize.NormalizationResult`), the attempts used
    and the repair label; ``repaired``/``standard``/``label`` are None
    when the member is unrepairable, every attempt failed, or the
    deadline ran out first.  Standard forms run on the default backend
    with the Section-VI ``limit`` semantics.
    """
    failed = (None, None, 0, None)
    if category in UNREPAIRABLE_CATEGORIES or deadline.expired():
        return failed
    arr = np.asarray(matrix, dtype=np.float64)
    if category in PATTERN_CATEGORIES:
        try:
            plan = _pattern_plan(arr)
        except ReproError:
            return (None, None, 1, None)
        arr = plan.apply(arr, fill=_median_fill(arr))
        steps = [(tol, max_iterations, f"{plan.strategy}:{len(plan.entries)}")]
    elif category == "timeout":
        # Straggler: the data is healthy, re-run the work locally.
        steps = [(tol, max_iterations, "local-retry")]
    elif category == "non-convergent":
        steps = [
            (tol_k, iters_k, f"tol-backoff:{tol_k:g}")
            for tol_k, iters_k in zip(
                budget.attempt_tolerances(tol),
                budget.attempt_iterations(max_iterations),
            )
        ]
    else:
        return failed
    attempts = 0
    for tol_k, iters_k, label in steps:
        if deadline.expired():
            break
        attempts += 1
        try:
            standard = standardize(
                arr,
                tol=tol_k,
                max_iterations=iters_k,
                require_convergence=False,
                zeros="limit",
                deadline_s=deadline.remaining(),
            )
        except ReproError:
            continue
        if standard.converged:
            return (arr, standard, attempts, label)
    return (None, None, attempts, None)


def repair_member(
    matrix,
    category: str,
    *,
    tol: float,
    max_iterations: int,
    budget: Budget,
    deadline: Deadline | None = None,
) -> tuple[MemberRecovery | None, int]:
    """Attempt to recover one quarantined member.

    Returns ``(recovery, attempts_used)``; ``recovery`` is None when
    the member is unrepairable, every attempt failed, or the deadline
    budget ran out first.  ``matrix`` must be the member's (weighted)
    ECS array as the pipeline saw it.  MPH/TDH come from the repaired
    matrix's column/row sums, TMA from its standard form (eq. 8).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.robust import Budget
    >>> eq10 = np.array([[0, 0, 1], [1, 0, 1], [0, 1, 0]], dtype=float)
    >>> recovery, attempts = repair_member(
    ...     eq10, "decomposable", tol=1e-8, max_iterations=10_000,
    ...     budget=Budget())
    >>> recovery.repair, attempts
    ('drop:1', 1)
    """
    repaired, standard, attempts, label = _repair(
        matrix,
        category,
        tol=tol,
        max_iterations=max_iterations,
        budget=budget,
        deadline=deadline if deadline is not None else Deadline(None),
    )
    if standard is None:
        return None, attempts
    columns = recovered_columns(repaired, standard, tol)
    return MemberRecovery(columns, attempts=attempts, repair=label), attempts


def recovered_columns(repaired: np.ndarray, standard, tol: float) -> tuple:
    """``(mph, tdh, tma, iterations, converged)`` of a repaired member:
    MPH/TDH from its column/row sums, TMA from its standard form.  Its
    Gram spectrum stands only if the repaired run met the requested
    ``tol``, not just a relaxed one from the backoff ladder."""
    values = _singular_values(
        standard.matrix[None],
        resolve_backend(),
        "scalar",
        tol,
        standard.residual <= tol,
    )
    return (
        average_adjacent_ratio(repaired.sum(axis=0)),
        average_adjacent_ratio(repaired.sum(axis=1)),
        float(_tma_column(values)[0]),
        standard.iterations,
        True,
    )


def apply_policy(
    faults: dict,
    *,
    policy: str,
    member,
    splice,
    tol: float,
    max_iterations: int,
    budget: Budget,
    deadline: Deadline,
) -> QuarantineReport:
    """The fault-policy step of the ensemble entry points.

    ``faults`` maps member index to ``(category, detail)``.  Every fault
    becomes a :class:`MemberFault`; under ``policy="repair"`` each
    repairable one also walks the ladder on ``member(i)`` (an
    unrepairable member is never read) and a recovery is handed to
    ``splice(i, repaired, standard)``.  The report's outcomes are
    attributes of the ``robust.apply_policy`` span and series of the
    metrics registry.
    """
    with _obs_span("robust.apply_policy", policy=policy) as sp:
        records = []
        for i, (category, detail) in sorted(faults.items()):
            standard, attempts, label = None, 0, None
            if policy == "repair" and category not in UNREPAIRABLE_CATEGORIES:
                repaired, standard, attempts, label = _repair(
                    member(i),
                    category,
                    tol=tol,
                    max_iterations=max_iterations,
                    budget=budget,
                    deadline=deadline,
                )
                if standard is not None:
                    splice(i, repaired, standard)
            records.append(
                MemberFault(
                    index=i,
                    category=category,
                    detail=detail,
                    attempts=attempts,
                    repaired=standard is not None,
                    repair=label,
                )
            )
        report = QuarantineReport(policy=policy, faults=tuple(records))
        outcomes = {"quarantined": len(report.quarantined),
                    "repaired": len(report.repaired)}
        outcomes.update((f"fault.{category}", len(indices))
                        for category, indices in report.by_category().items())
        sp.note(retries=report.attempts, **outcomes)
    _metrics.record(*(("repro_member_outcomes_total", (outcome,), n)
                      for outcome, n in outcomes.items()))
    return report
