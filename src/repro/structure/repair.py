"""Repairing non-normalizable zero patterns.

When an environment's zero pattern admits no standard form
(Section VI), a practitioner has two levers:

* **drop** the blocking compatibilities — the entries that can never
  carry weight in any equal-margin matrix anyway (this is exactly what
  the eq. 9 limit does implicitly), or
* **add** compatibilities — port a task type to a machine it currently
  cannot use — until the pattern becomes normalizable.

:func:`suggest_repairs` computes either plan.  Dropping is exact and
minimal by construction (the blocking set is unique).  Adding is a
greedy search: at each step the candidate zero entry whose inclusion
most reduces the number of blocking edges is chosen (ties broken by
position), which is not guaranteed minimum-cardinality but is exact in
the common single-bottleneck cases.  It always ends with a normalizable
pattern, within as many steps as the pattern has zeros: while the
margins are infeasible some added entry raises the max flow, and every
step adds one entry toward the all-ones pattern, which is normalizable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import MatrixValueError
from .normalizability import _menon_test, normalizability_report
from .patterns import support_pattern

__all__ = ["RepairPlan", "suggest_repairs"]


@dataclass(frozen=True)
class RepairPlan:
    """A set of pattern edits that make the environment normalizable.

    Attributes
    ----------
    strategy : str
        ``"drop"`` or ``"add"``.
    entries : tuple of (int, int)
        Positions to zero out (drop) or to make compatible (add), in
        application order.
    already_normalizable : bool
        True when no edits were needed (``entries`` is empty).
    """

    strategy: str
    entries: tuple[tuple[int, int], ...]
    already_normalizable: bool

    def apply(self, matrix, *, fill: float = 1.0) -> np.ndarray:
        """Return a copy of ``matrix`` with the plan applied.

        Dropped entries become 0; added entries become ``fill`` (pick a
        plausible ECS speed for the new compatibility).
        """
        arr = np.array(matrix, dtype=np.float64, copy=True)
        for i, j in self.entries:
            arr[i, j] = 0.0 if self.strategy == "drop" else fill
        return arr


def suggest_repairs(matrix, *, strategy: str = "drop") -> RepairPlan:
    """Plan pattern edits that make ``matrix`` normalizable.

    Parameters
    ----------
    matrix : array-like
        Non-negative matrix (only the zero pattern matters).
    strategy : {"drop", "add"}
        ``"drop"`` removes the blocking entries (exact, unique);
        ``"add"`` proposes new task/machine compatibilities (greedy).

    Examples
    --------
    The paper's eq. 10 matrix needs exactly one edit either way:

    >>> eq10 = [[0, 0, 1], [1, 0, 1], [0, 1, 0]]
    >>> suggest_repairs(eq10, strategy="drop").entries
    ((1, 2),)
    >>> plan = suggest_repairs(eq10, strategy="add")
    >>> from repro.structure import is_normalizable
    >>> bool(is_normalizable(plan.apply(eq10)))
    True
    """
    if strategy not in ("drop", "add"):
        raise MatrixValueError(
            f"strategy must be 'drop' or 'add', got {strategy!r}"
        )
    pattern = support_pattern(matrix)
    report = normalizability_report(pattern)
    if report.normalizable:
        return RepairPlan(
            strategy=strategy, entries=(), already_normalizable=True
        )
    if strategy == "drop":
        if not report.feasible:
            raise MatrixValueError(
                "the pattern's margins are infeasible outright (no "
                "equal-sum matrix exists on any sub-pattern reachable by "
                "dropping entries); use strategy='add'"
            )
        return RepairPlan(
            strategy="drop",
            entries=report.blocking_edges,
            already_normalizable=False,
        )

    # Greedy "add": flip the zero entry that best reduces the blocking
    # count.  An infeasible pattern scores above every feasible one, by
    # its max-flow deficit, so a flip that routes more flow is progress.
    work = pattern.copy()
    added: list[tuple[int, int]] = []

    def badness(p: np.ndarray) -> int:
        rep, deficit = _menon_test(p)
        if not rep.feasible:
            return p.size + deficit
        return len(rep.blocking_edges)

    current = badness(work)
    while current:
        zeros = np.argwhere(~work)
        best_entry = None
        best_score = current
        for i, j in zeros:
            work[i, j] = True
            score = badness(work)
            work[i, j] = False
            if score < best_score:
                best_score = score
                best_entry = (int(i), int(j))
                if score == 0:
                    break
        if best_entry is None:
            # No single flip helps: take the first zero (progress
            # toward the all-ones pattern, which is normalizable).
            i, j = zeros[0]
            best_entry = (int(i), int(j))
            work[i, j] = True
            best_score = badness(work)
        else:
            work[best_entry] = True
        added.append(best_entry)
        current = best_score
    return RepairPlan(
        strategy="add", entries=tuple(added), already_normalizable=False
    )
