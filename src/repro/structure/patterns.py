"""Support structure of non-negative matrices.

A square non-negative matrix *has support* when some permutation puts a
positive entry on every diagonal position (equivalently: its bipartite
row/column graph has a perfect matching).  It has *total support* when
every positive entry lies on such a positive diagonal.  Sinkhorn &
Knopp's classical theorem ties these to the convergence of the
alternating-scaling iteration; the paper's Section VI counterexample
(eq. 10) has support but not total support.

Algorithms: Hopcroft–Karp maximum matching for support, and the
standard matching-plus-strongly-connected-components construction for
the total-support pattern (an entry ``(i, j)`` lies on a positive
diagonal iff it is in the matching or its endpoints share a strongly
connected component of the exchange digraph).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..exceptions import MatrixShapeError

if TYPE_CHECKING:  # imported where used, so ``import repro`` skips it
    import networkx as nx

__all__ = [
    "support_pattern",
    "has_support",
    "has_total_support",
    "total_support_pattern",
]


def support_pattern(matrix) -> np.ndarray:
    """Boolean zero/nonzero pattern of a matrix (True where nonzero)."""
    arr = np.asarray(matrix)
    if arr.ndim != 2 or arr.size == 0:
        raise MatrixShapeError("pattern requires a non-empty 2-D matrix")
    if arr.dtype == np.bool_:
        return arr.copy()
    return arr != 0


def _bipartite_graph(pattern: np.ndarray) -> nx.Graph:
    """Bipartite graph with rows as ``("r", i)`` and columns ``("c", j)``."""
    import networkx as nx

    graph = nx.Graph()
    n_rows, n_cols = pattern.shape
    graph.add_nodes_from(("r", i) for i in range(n_rows))
    graph.add_nodes_from(("c", j) for j in range(n_cols))
    rows, cols = np.nonzero(pattern)
    graph.add_edges_from(
        (("r", int(i)), ("c", int(j))) for i, j in zip(rows, cols)
    )
    return graph


def _maximum_matching(pattern: np.ndarray) -> dict[int, int]:
    """Row→column maximum matching of the pattern's bipartite graph."""
    import networkx as nx

    graph = _bipartite_graph(pattern)
    top = {("r", i) for i in range(pattern.shape[0])}
    matching = nx.bipartite.hopcroft_karp_matching(graph, top_nodes=top)
    return {
        node[1]: mate[1]
        for node, mate in matching.items()
        if node[0] == "r"
    }


def has_support(matrix) -> bool:
    """True when the matrix has a positive diagonal.

    For a square matrix this is the classical "support" of
    Sinkhorn–Knopp: some permutation ``σ`` has ``A[i, σ(i)] > 0`` for
    every ``i``.  For a T × M rectangular matrix the condition becomes a
    matching that saturates the smaller side (every row matched when
    T ≤ M, every column when M ≤ T).
    """
    pattern = support_pattern(matrix)
    match = _maximum_matching(pattern)
    return len(match) == min(pattern.shape)


def total_support_pattern(matrix) -> np.ndarray:
    """Boolean mask of the entries that lie on some positive diagonal.

    Only defined for square matrices (positive diagonals are
    permutations).  If the matrix has no support at all, no entry lies
    on a positive diagonal and the all-False mask is returned.

    Notes
    -----
    Construction: fix one perfect matching ``m`` (column matched to row
    ``row_of[j]``).  Build the exchange digraph on column indices with
    an edge ``j → k`` whenever ``A[row_of[j], k] != 0``.  An off-matching
    entry ``(row_of[j], k)`` lies on a positive diagonal iff ``k`` can
    reach ``j`` — i.e. ``j`` and ``k`` share a strongly connected
    component once the matching edges (self-loops) are present.
    """
    import networkx as nx

    pattern = support_pattern(matrix)
    n_rows, n_cols = pattern.shape
    if n_rows != n_cols:
        raise MatrixShapeError(
            "total support is defined for square matrices; got shape "
            f"{pattern.shape}"
        )
    match = _maximum_matching(pattern)
    if len(match) < n_rows:
        return np.zeros_like(pattern, dtype=bool)
    row_of_col = {col: row for row, col in match.items()}
    digraph = nx.DiGraph()
    digraph.add_nodes_from(range(n_cols))
    for j in range(n_cols):
        row = row_of_col[j]
        for k in np.nonzero(pattern[row])[0]:
            if int(k) != j:
                digraph.add_edge(j, int(k))
    component_of: dict[int, int] = {}
    for comp_id, comp in enumerate(nx.strongly_connected_components(digraph)):
        for node in comp:
            component_of[node] = comp_id
    mask = np.zeros_like(pattern, dtype=bool)
    for j in range(n_cols):
        row = row_of_col[j]
        mask[row, j] = True  # matching entries always qualify
        for k in np.nonzero(pattern[row])[0]:
            k = int(k)
            if k != j and component_of[j] == component_of[k]:
                mask[row, k] = True
    return mask


def has_total_support(matrix) -> bool:
    """True when every nonzero entry lies on some positive diagonal.

    Square matrices only.  Total support is exactly the Sinkhorn–Knopp
    condition for a square matrix to be scalable to doubly stochastic
    form with its zero pattern preserved — the paper's eq. 10 matrix has
    support but *not* total support, which is why its normalization
    fails.
    """
    pattern = support_pattern(matrix)
    if not pattern.any():
        return False
    return bool((total_support_pattern(pattern) == pattern).all())
