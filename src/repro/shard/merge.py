"""Merging per-shard results into one ensemble characterization.

The batched kernels are per-slice independent (the invariant the
conformance table in ``tests/test_conformance.py`` pins), so a sharded
run is just a partition of the in-memory run — merging is concatenation
plus index bookkeeping.  :func:`merge_characterizations` takes
``(start, result)`` parts whose member indices are *relative to the
part*, shifts quarantine-report indices by each part's offset, and
returns a single result indistinguishable from characterizing the
whole stack at once.

Merge is associative and order-independent: parts are sorted by their
start offset, and a merged result can itself be a part of a later
merge (carrying its own start).  The property harness in
``tests/shard/test_merge.py`` pins both laws.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..batch.ensemble import EnsembleCharacterization
from ..exceptions import MatrixShapeError, MatrixValueError
from ..robust.taxonomy import QuarantineReport

__all__ = ["merge_characterizations", "merge_reports", "shift_report"]


def shift_report(report: QuarantineReport, offset: int) -> QuarantineReport:
    """A copy of ``report`` with every member index shifted by ``offset``."""
    if offset == 0:
        return report
    return replace(
        report,
        faults=tuple(
            replace(fault, index=fault.index + offset)
            for fault in report.faults
        ),
    )


def merge_reports(parts) -> QuarantineReport:
    """Merge ``(offset, QuarantineReport)`` parts into one report.

    Fault indices in each part are relative to the part; the merged
    report carries absolute indices, sorted.  All parts must share a
    policy.
    """
    parts = sorted(parts, key=lambda p: p[0])
    if not parts:
        raise MatrixValueError("cannot merge zero quarantine reports")
    policies = {report.policy for _, report in parts}
    if len(policies) != 1:
        raise MatrixValueError(
            f"cannot merge quarantine reports of different policies "
            f"{sorted(policies)}"
        )
    faults = []
    for offset, report in parts:
        faults.extend(shift_report(report, offset).faults)
    faults.sort(key=lambda f: f.index)
    return QuarantineReport(policy=policies.pop(), faults=tuple(faults))


def _check_contiguous(parts) -> None:
    expected = parts[0][0]
    for start, result in parts:
        if start != expected:
            raise MatrixShapeError(
                f"shard parts are not contiguous: expected a part starting "
                f"at member {expected}, got {start} (shards must partition "
                "the ensemble exactly once)"
            )
        expected = start + len(result)
    starts = [start for start, _ in parts]
    if len(set(starts)) != len(starts):
        raise MatrixShapeError(
            f"shard parts overlap: duplicate start offsets in {starts}"
        )


def merge_characterizations(parts):
    """Merge ``(start, result)`` shard parts into one characterization.

    Parameters
    ----------
    parts : iterable of (int, EnsembleCharacterization)
        Each part's result covers members ``[start, start +
        len(result))`` of the ensemble, with quarantine-report indices
        relative to the part.  Parts may arrive in any order but must
        tile a contiguous range exactly once.  When *any* part carries
        a quarantine ``report``, all must, and the merged result carries
        the merged report.

    Returns
    -------
    EnsembleCharacterization
        Bit-identical to characterizing the concatenated members in one
        call (the conformance table in ``tests/test_conformance.py``
        enforces this against the real pipeline).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.batch import characterize_ensemble
    >>> stack = np.stack([np.ones((2, 2)), np.eye(2) + 0.5, np.ones((2, 2))])
    >>> whole = characterize_ensemble(stack)
    >>> merged = merge_characterizations([
    ...     (0, characterize_ensemble(stack[:2])),
    ...     (2, characterize_ensemble(stack[2:])),
    ... ])
    >>> bool(np.array_equal(merged.tma, whole.tma))
    True
    """
    parts = sorted(parts, key=lambda p: p[0])
    if not parts:
        raise MatrixValueError("cannot merge zero shard results")
    _check_contiguous(parts)

    robust = [result.report is not None for _, result in parts]
    if any(robust) and not all(robust):
        raise MatrixValueError(
            "cannot merge robust and non-robust shard results (all shards "
            "of one run share a policy)"
        )
    shapes = {
        (result.n_tasks, result.n_machines) for _, result in parts
    }
    if len(shapes) != 1:
        raise MatrixShapeError(
            f"shard results disagree on member shape: {sorted(shapes)}"
        )
    n_tasks, n_machines = shapes.pop()

    base = parts[0][0]
    columns = {
        name: np.concatenate(
            [getattr(result, name) for _, result in parts]
        )
        for name in ("mph", "tdh", "tma", "iterations", "converged", "batched")
    }
    report = None
    if all(robust):
        report = merge_reports(
            [(start - base, result.report) for start, result in parts]
        )
    return EnsembleCharacterization(
        n_tasks=n_tasks, n_machines=n_machines, report=report, **columns
    )
