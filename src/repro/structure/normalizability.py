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
from typing import TYPE_CHECKING

import numpy as np

from .patterns import support_pattern

if TYPE_CHECKING:  # imported where used, so ``import repro`` skips it
    import networkx as nx

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


def _transportation_network(
    pattern: np.ndarray,
) -> tuple[nx.DiGraph, int]:
    """Build source→rows→cols→sink network with integer capacities.

    Row supplies are ``M`` units each and column demands ``T`` units
    each (both scaled), the smallest integer margins consistent with
    equal row sums and equal column sums.
    """
    import networkx as nx

    n_rows, n_cols = pattern.shape
    # Integer margins: every row supplies M units, every column demands
    # T units, so the grand totals agree exactly (T*M each way) and the
    # max-flow is computed in exact integer arithmetic.
    row_cap = n_cols
    col_cap = n_rows
    graph = nx.DiGraph()
    for i in range(n_rows):
        graph.add_edge("s", ("r", i), capacity=row_cap)
    for j in range(n_cols):
        graph.add_edge(("c", j), "t", capacity=col_cap)
    rows, cols = np.nonzero(pattern)
    for i, j in zip(rows, cols):
        # Pattern edges are effectively uncapacitated.
        graph.add_edge(("r", int(i)), ("c", int(j)),
                       capacity=n_rows * row_cap)
    return graph, n_rows * row_cap


def normalizability_report(matrix) -> NormalizabilityReport:
    """Run the exact Menon-theorem test and return full diagnostics.

    Works for square and rectangular patterns alike and is polynomial
    (one max-flow plus one SCC pass), unlike the every-square-submatrix
    definition of full indecomposability.
    """
    import networkx as nx

    pattern = support_pattern(matrix)
    if not pattern.any(axis=1).all() or not pattern.any(axis=0).all():
        # An all-zero row or column can never reach a positive sum.
        return NormalizabilityReport(
            normalizable=False,
            feasible=False,
            blocking_edges=(),
        )
    graph, total = _transportation_network(pattern)
    flow_value, flow = nx.maximum_flow(graph, "s", "t")
    if flow_value < total:
        return NormalizabilityReport(
            normalizable=False, feasible=False, blocking_edges=()
        )
    # Residual graph: forward edge when flow < capacity, backward when
    # flow > 0.  A zero-flow pattern edge (u, v) can carry positive flow
    # in some feasible solution iff v reaches u in the residual graph —
    # i.e. u and v share a strongly connected component (positive-flow
    # edges give the v→u residual arc directly, so they always qualify).
    residual = nx.DiGraph()
    for u, targets in flow.items():
        for v, f in targets.items():
            cap = graph[u][v]["capacity"]
            if f < cap:
                residual.add_edge(u, v)
            if f > 0:
                residual.add_edge(v, u)
    component_of: dict = {}
    for comp_id, comp in enumerate(nx.strongly_connected_components(residual)):
        for node in comp:
            component_of[node] = comp_id
    blocking: list[tuple[int, int]] = []
    rows, cols = np.nonzero(pattern)
    for i, j in zip(rows, cols):
        u, v = ("r", int(i)), ("c", int(j))
        if flow[u].get(v, 0) > 0:
            continue
        if component_of.get(u) != component_of.get(v):
            blocking.append((int(i), int(j)))
    return NormalizabilityReport(
        normalizable=not blocking,
        feasible=True,
        blocking_edges=tuple(blocking),
    )


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
