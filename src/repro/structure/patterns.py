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

import numpy as np

from .._validation import as_array
from ..exceptions import MatrixShapeError

__all__ = [
    "support_pattern",
    "has_support",
    "has_total_support",
    "total_support_pattern",
]


def support_pattern(matrix) -> np.ndarray:
    """Boolean zero/nonzero pattern of a matrix (True where nonzero)."""
    arr = as_array(matrix, ndim=2, name="matrix")
    if arr.ndim != 2 or arr.size == 0:
        raise MatrixShapeError("pattern requires a non-empty 2-D matrix")
    if arr.dtype == np.bool_:
        return arr.copy()
    return arr != 0


def _row_of_col(pattern: np.ndarray) -> np.ndarray:
    """Hopcroft–Karp maximum matching of the pattern's bipartite graph:
    the row matched to each column, or -1 where a column is unmatched."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_bipartite_matching

    return maximum_bipartite_matching(csr_array(pattern), perm_type="row")


def _bipartite_components(pattern: np.ndarray) -> tuple[int, np.ndarray]:
    """Connected components of the bipartite row/column graph.

    Rows are nodes ``0..T-1`` and columns ``T..T+M-1``; returns the
    component count and each node's label.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    n_rows, n_cols = pattern.shape
    rows, cols = np.nonzero(pattern)
    n = n_rows + n_cols
    graph = csr_array(
        (np.ones(rows.size, dtype=np.int8), (rows, n_rows + cols)), shape=(n, n)
    )
    return connected_components(graph, directed=False)


def has_support(matrix) -> bool:
    """True when the matrix has a positive diagonal.

    For a square matrix this is the classical "support" of
    Sinkhorn–Knopp: some permutation ``σ`` has ``A[i, σ(i)] > 0`` for
    every ``i``.  For a T × M rectangular matrix the condition becomes a
    matching that saturates the smaller side (every row matched when
    T ≤ M, every column when M ≤ T).
    """
    pattern = support_pattern(matrix)
    matched = int((_row_of_col(pattern) >= 0).sum())
    return matched == min(pattern.shape)


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
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    pattern = support_pattern(matrix)
    n_rows, n_cols = pattern.shape
    if n_rows != n_cols:
        raise MatrixShapeError(
            "total support is defined for square matrices; got shape "
            f"{pattern.shape}"
        )
    row_of_col = _row_of_col(pattern)
    if (row_of_col < 0).any():
        return np.zeros_like(pattern, dtype=bool)
    # Row j of ``exchange`` is the pattern row matched to column j, so
    # its entry (j, k) is the digraph edge j -> k; the matching entries
    # are its diagonal (self-loops, harmless to strong components).
    exchange = pattern[row_of_col]
    _, component = connected_components(
        csr_array(exchange), connection="strong"
    )
    mask = np.empty_like(pattern)
    mask[row_of_col] = exchange & (component[:, None] == component[None, :])
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
