"""Decomposition into fully indecomposable components.

A square non-negative matrix with *total support* is, up to row/column
permutations, a direct sum of fully indecomposable blocks (Brualdi–
Ryser).  The blocks are the connected components of the bipartite
row/column graph restricted to the total-support pattern; each block
normalizes independently, so this decomposition explains *why* the
paper's diagonal-matrix example is normalizable despite being
decomposable: every 1×1 positive block trivially is.

For matrices without total support the decomposition is computed on
the total-support pattern (the entries that survive the eq.-9 limit);
entries outside it belong to no block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import MatrixShapeError
from .patterns import (
    _bipartite_components,
    has_support,
    support_pattern,
    total_support_pattern,
)

__all__ = ["IndecomposableComponents", "fully_indecomposable_components"]


@dataclass(frozen=True)
class IndecomposableComponents:
    """The direct-sum structure of a square pattern.

    Attributes
    ----------
    blocks : tuple of (tuple[int, ...], tuple[int, ...])
        (rows, columns) of each fully indecomposable block, sorted by
        smallest row index.  Every block has equally many rows and
        columns.
    dropped_entries : tuple of (int, int)
        Nonzero positions outside the total-support pattern — the
        entries the Sinkhorn limit forces to zero; empty when the
        matrix has total support.
    """

    blocks: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    dropped_entries: tuple[tuple[int, int], ...]

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def permutation(self) -> tuple[np.ndarray, np.ndarray]:
        """Row/column orders exposing the block-diagonal form."""
        rows = np.concatenate([np.array(b[0], dtype=np.intp)
                               for b in self.blocks])
        cols = np.concatenate([np.array(b[1], dtype=np.intp)
                               for b in self.blocks])
        return rows, cols


def fully_indecomposable_components(matrix) -> IndecomposableComponents:
    """Split a square pattern into its fully indecomposable blocks.

    Raises
    ------
    MatrixShapeError
        For rectangular input, or square input with no support (no
        positive diagonal exists, so no block structure is defined).

    Examples
    --------
    >>> import numpy as np
    >>> comps = fully_indecomposable_components(np.diag([2.0, 3.0, 4.0]))
    >>> comps.n_blocks
    3
    >>> comps = fully_indecomposable_components(np.ones((3, 3)))
    >>> comps.n_blocks
    1
    """
    pattern = support_pattern(matrix)
    if pattern.shape[0] != pattern.shape[1]:
        raise MatrixShapeError(
            "component decomposition is defined for square matrices; got "
            f"shape {pattern.shape}"
        )
    if not has_support(pattern):
        raise MatrixShapeError(
            "matrix has no positive diagonal (no support); no "
            "fully indecomposable decomposition exists"
        )
    core = total_support_pattern(pattern)
    dropped = tuple(
        (int(i), int(j)) for i, j in zip(*np.nonzero(pattern & ~core))
    )
    n_blocks, label = _bipartite_components(core)
    n = pattern.shape[0]
    # The core keeps a perfect matching, so every block holds a row.
    blocks = sorted(
        (
            (tuple(np.flatnonzero(label[:n] == b).tolist()),
             tuple(np.flatnonzero(label[n:] == b).tolist()))
            for b in range(n_blocks)
        ),
        key=lambda block: block[0][0],
    )
    return IndecomposableComponents(
        blocks=tuple(blocks), dropped_entries=dropped
    )
