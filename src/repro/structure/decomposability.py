"""Full indecomposability and block-form certificates (Section VI).

A square non-negative matrix ``A`` is *decomposable* when permutation
matrices ``P`` and ``Q`` exist with::

    P A Q = [[A11,   0],
             [A21, A22]]          (paper eq. 11)

for square ``A11`` and ``A22`` — equivalently, when some ``k`` rows and
``n - k`` columns meet in an all-zero submatrix.  *Fully indecomposable*
means no such block form exists.  Marshall & Olkin showed full
indecomposability is sufficient (not necessary — diagonal matrices are
the paper's counterexample) for row/column normalizability.

Combinatorics used here:

* ``A`` (square) is partly decomposable iff some nonempty proper column
  set ``S`` has neighbourhood ``|N(S)| <= |S|``; the complement rows of
  ``N(S)`` against ``S`` form the zero block.
* ``A`` is fully indecomposable iff it has total support **and** its
  bipartite graph is connected (Brualdi–Ryser); the expensive
  per-minor definition (``per(A(i|j)) > 0`` for all ``i, j``) is kept in
  the test suite as an independent oracle.
* A rectangular ``m × n`` matrix with ``m < n`` is fully indecomposable
  iff every ``m × m`` submatrix is (the paper's definition); matrices
  with ``m > n`` are transposed first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ..exceptions import MatrixShapeError
from .patterns import (
    _bipartite_components,
    _row_of_col,
    has_total_support,
    support_pattern,
)

__all__ = [
    "is_fully_indecomposable",
    "find_zero_block",
    "permute_to_block_form",
    "BlockForm",
]

#: Largest rectangular minor count we will enumerate for the paper's
#: every-square-submatrix definition before refusing.
_MAX_MINORS = 200_000


def _square_fully_indecomposable(pattern: np.ndarray) -> bool:
    if pattern.shape[0] == 1:
        return bool(pattern[0, 0])
    if not has_total_support(pattern):
        return False
    return _bipartite_components(pattern)[0] == 1


def is_fully_indecomposable(matrix) -> bool:
    """True when no permutation exposes the block form of eq. 11.

    Rectangular matrices follow the paper's Section VI definition: with
    ``m < n``, every ``m × m`` submatrix must be fully indecomposable
    (``m > n`` is handled by transposing).  Enumeration of
    ``C(n, m)`` minors is refused beyond ``200_000`` combinations —
    use :func:`repro.structure.is_normalizable` for the scalable exact
    normalizability test instead.
    """
    pattern = support_pattern(matrix)
    n_rows, n_cols = pattern.shape
    if n_rows == n_cols:
        return _square_fully_indecomposable(pattern)
    if n_rows > n_cols:
        pattern = pattern.T
        n_rows, n_cols = n_cols, n_rows
    from math import comb

    if comb(n_cols, n_rows) > _MAX_MINORS:
        raise MatrixShapeError(
            f"every-square-submatrix test would enumerate "
            f"C({n_cols},{n_rows}) minors; use is_normalizable() instead"
        )
    return all(
        _square_fully_indecomposable(pattern[:, list(cols)])
        for cols in combinations(range(n_cols), n_rows)
    )


def find_zero_block(matrix) -> tuple[list[int], list[int]] | None:
    """Find rows R and columns C with ``A[R, C] == 0`` and
    ``|R| + |C| == n`` (a certificate of decomposability).

    Square matrices only.  Returns ``None`` when the matrix is fully
    indecomposable.  The search uses the Hall-violator structure: it
    looks for a nonempty proper column set ``S`` with ``|N(S)| <= |S|``
    and returns ``R = rows \\ N(S)`` (padded from the zero rows of ``S``
    if the inequality is strict) against ``C = S``.

    Implementation: for every seed column ``j`` the minimal candidate is
    grown by alternating closure — a column enters ``S`` when adding it
    does not grow ``N(S)`` past ``|S|``.  For the matrix sizes this
    library targets (tens of machines) the ``O(n^2)``-ish closure is
    immediate; an exact polynomial algorithm via maximum matching is
    used when closure fails to certify.
    """
    pattern = support_pattern(matrix)
    n = pattern.shape[0]
    if pattern.shape[0] != pattern.shape[1]:
        raise MatrixShapeError(
            "find_zero_block expects a square matrix; rectangular "
            f"shape {pattern.shape} given"
        )
    if n == 1:
        return None if pattern[0, 0] else ([0], [0])

    # A zero block of size k x (n - k) exists iff there is a column set
    # C (|C| = n - k) whose rows-with-support N(C) satisfy
    # |N(C)| <= n - |R| = k' ... equivalently some column set S with
    # |N(S)| + |S| <= n.  Search exactly via matching on an auxiliary
    # graph: for each candidate size this is Hall's condition on the
    # bipartite graph where column j connects to rows it touches, asking
    # for a violator of |N(S)| >= |S| + 1.  We find it by testing, for
    # each (row r, column c) pair, whether deleting row r and column c
    # leaves a graph with a perfect matching; a missing matching yields
    # a violator by König's theorem.
    for r in range(n):
        for c in range(n):
            sub = np.delete(np.delete(pattern, r, axis=0), c, axis=1)
            if (_row_of_col(sub) < 0).any():
                # König: a vertex cover of size < n - 1 exists in the
                # minor; recover a Hall violator among its columns.
                cols_keep = [j for j in range(n) if j != c]
                violator = _hall_violator(sub)
                if violator is None:  # pragma: no cover - defensive
                    continue
                col_set = [cols_keep[j] for j in violator]
                neigh = set(
                    int(i) for i in np.nonzero(pattern[:, col_set].any(axis=1))[0]
                )
                row_set = [i for i in range(n) if i not in neigh]
                # Trim to |R| + |C| == n while keeping the block zero
                # (any subset of a zero block is a zero block).
                while len(row_set) + len(col_set) > n:
                    if len(row_set) > 1:
                        row_set.pop()
                    else:
                        col_set.pop()
                if len(row_set) + len(col_set) == n and row_set and col_set:
                    assert not pattern[np.ix_(row_set, col_set)].any()
                    return sorted(row_set), sorted(col_set)
    return None


def _hall_violator(pattern: np.ndarray) -> list[int] | None:
    """Columns S with |N(S)| < |S| in a (possibly rectangular) pattern.

    Found from a maximum matching: start from the unmatched columns and
    alternate (column → its rows → rows' matched columns); the reachable
    columns form a maximal violator when any column is unmatched.
    """
    row_of_col = _row_of_col(pattern)
    unmatched = np.flatnonzero(row_of_col < 0).tolist()
    if not unmatched:
        return None
    col_of_row = np.full(pattern.shape[0], -1)
    matched = row_of_col >= 0
    col_of_row[row_of_col[matched]] = np.flatnonzero(matched)
    seen_cols = set(unmatched)
    seen_rows: set[int] = set()
    frontier = list(unmatched)
    while frontier:
        j = frontier.pop()
        for i in np.nonzero(pattern[:, j])[0]:
            i = int(i)
            if i in seen_rows:
                continue
            seen_rows.add(i)
            mate = int(col_of_row[i])
            if mate >= 0 and mate not in seen_cols:
                seen_cols.add(mate)
                frontier.append(mate)
    violator = sorted(seen_cols)
    neigh = set(
        int(i) for i in np.nonzero(pattern[:, violator].any(axis=1))[0]
    )
    if len(neigh) < len(violator):
        return violator
    return None


@dataclass(frozen=True)
class BlockForm:
    """A permutation certificate for decomposability (paper eq. 12).

    ``matrix[np.ix_(row_order, col_order)]`` has an all-zero upper-right
    block: the first ``block_size`` rows meet the last
    ``n - block_size`` columns in zeros only, exhibiting eq. 11 with
    ``A11`` of size ``block_size``.
    """

    row_order: tuple[int, ...]
    col_order: tuple[int, ...]
    block_size: int

    def apply(self, matrix) -> np.ndarray:
        """Return the permuted matrix ``P A Q`` in block form."""
        arr = np.asarray(matrix)
        return arr[np.ix_(list(self.row_order), list(self.col_order))]


def permute_to_block_form(matrix) -> BlockForm | None:
    """Produce the eq.-11 block form of a decomposable square matrix.

    Returns ``None`` for fully indecomposable matrices.  For the paper's
    eq. 10 example the certificate reproduces the "move the last column
    to the front" transformation of eq. 12 (up to an equivalent
    permutation).
    """
    block = find_zero_block(matrix)
    if block is None:
        return None
    rows_zero, cols_zero = block
    n = np.asarray(matrix).shape[0]
    other_rows = [i for i in range(n) if i not in rows_zero]
    other_cols = [j for j in range(n) if j not in cols_zero]
    # Zero block occupies rows_zero x cols_zero.  Put those rows first
    # and those columns last: upper-right block (size |rows_zero| x
    # |cols_zero|) is zero and |rows_zero| + |cols_zero| == n makes A11
    # square of size |rows_zero|.
    row_order = tuple(rows_zero + other_rows)
    col_order = tuple(other_cols + cols_zero)
    return BlockForm(
        row_order=row_order,
        col_order=col_order,
        block_size=len(rows_zero),
    )
