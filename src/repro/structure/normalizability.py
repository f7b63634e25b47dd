"""Exact normalizability test (Menon's theorem via transportation flows).

The paper's Section VI gives *full indecomposability* as a sufficient —
but, as the diagonal-matrix example shows, not necessary — condition for
an equal-row-sum/equal-column-sum scaling ``D1 A D2`` to exist.  The
exact characterization (Menon 1968; Brualdi's convex-polytope analysis)
is:

    diagonal matrices ``D1, D2`` with ``D1 A D2`` having row sums ``r``
    and column sums ``c`` exist **iff** some non-negative matrix ``B``
    with *exactly* the zero pattern of ``A`` has those row/column sums.

Existence of such a ``B`` is a transportation problem: supplies ``r``
at the rows, demands ``c`` at the columns, edges only where ``A`` is
nonzero.  ``B`` must be strictly positive on every edge; because the
feasible set is convex, that holds iff (a) the transportation problem
is feasible at all and (b) *every* edge individually carries positive
flow in at least one feasible solution — checked in one pass from the
strongly connected components of the residual graph of any maximum
flow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .patterns import support_pattern

__all__ = ["is_normalizable", "normalizability_report", "NormalizabilityReport"]


@dataclass(frozen=True)
class NormalizabilityReport:
    """Outcome of the exact normalizability test.

    Attributes
    ----------
    normalizable : bool
        True when a scaling to equal row sums and equal column sums
        exists with the matrix's zero pattern preserved.
    feasible : bool
        True when the transportation problem (ignore strict positivity)
        is feasible; ``normalizable`` implies ``feasible``.
    blocking_edges : tuple of (int, int)
        Pattern positions that can never carry positive flow in any
        feasible solution — the entries whose forced-to-zero status
        breaks normalizability (the paper's eq. 10 matrix has exactly
        one: the entry shared by the heavy row and heavy column).
    """

    normalizable: bool
    feasible: bool
    blocking_edges: tuple[tuple[int, int], ...]


def _menon_test(pattern: np.ndarray) -> tuple[NormalizabilityReport, int]:
    """The report for a boolean pattern, and its max-flow deficit.

    The deficit is how many of the ``T*M`` units the pattern cannot
    route (0 exactly when it is feasible).
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components, maximum_flow

    # Nodes: rows 0..T-1, columns T..T+M-1, then source and sink.  Every
    # row supplies M units and every column demands T units, the
    # smallest integer margins with equal row sums and equal column
    # sums, so the flow is exact integer arithmetic.  Pattern edges get
    # capacity T*M: effectively uncapacitated.
    n_rows, n_cols = pattern.shape
    total = n_rows * n_cols
    source, sink = n_rows + n_cols, n_rows + n_cols + 1
    rows, cols = np.nonzero(pattern)
    tails = np.concatenate(
        [np.full(n_rows, source), rows, np.arange(n_rows, source)]
    )
    heads = np.concatenate(
        [np.arange(n_rows), n_rows + cols, np.full(n_cols, sink)]
    )
    caps = np.repeat(
        np.array([n_cols, total, n_rows], dtype=np.int32),
        [n_rows, rows.size, n_cols],
    )
    graph = csr_array((caps, (tails, heads)), shape=(sink + 1, sink + 1))
    result = maximum_flow(graph, source, sink)
    deficit = total - int(result.flow_value)
    if deficit:
        return NormalizabilityReport(False, False, ()), deficit
    # ``graph - flow`` is the residual capacity: cap - f on each forward
    # arc and f on its reverse.  A zero-flow pattern edge (u, v) can
    # carry positive flow in some feasible solution iff v reaches u in
    # the residual graph, i.e. u and v share a strongly connected
    # component.  An edge that carries flow qualifies outright: when the
    # flow fills it (a 1 x 1 pattern) u and v need not share one.
    residual = graph - result.flow
    residual.eliminate_zeros()
    _, component = connected_components(residual, connection="strong")
    carried = np.asarray(result.flow[rows, n_rows + cols]).reshape(-1) > 0
    blocking = ~carried & (component[rows] != component[n_rows + cols])
    edges = tuple(zip(rows[blocking].tolist(), cols[blocking].tolist()))
    return NormalizabilityReport(not edges, True, edges), 0


def normalizability_report(matrix) -> NormalizabilityReport:
    """Run the exact Menon-theorem test and return full diagnostics.

    Works for square and rectangular patterns alike and is polynomial
    (one max-flow plus one SCC pass), unlike the every-square-submatrix
    definition of full indecomposability.
    """
    return _menon_test(support_pattern(matrix))[0]


def is_normalizable(matrix) -> bool:
    """True when ``D1 A D2`` with equal row sums and equal column sums
    exists (zero pattern preserved).

    This is the exact condition — it accepts the paper's
    diagonal-matrix exception (decomposable but normalizable) and
    rejects the eq. 10 counterexample.

    Examples
    --------
    >>> is_normalizable([[0, 0, 1], [1, 0, 1], [0, 1, 0]])   # paper eq. 10
    False
    >>> is_normalizable([[2, 0], [0, 5]])                    # diagonal
    True
    """
    return normalizability_report(matrix).normalizable
