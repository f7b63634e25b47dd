"""Hypothesis strategies for ``(N, T, M)`` ensemble stacks.

Mirrors the matrix strategies in the top-level ``tests/conftest.py``
one axis up: entries stay in 1e±2 so Sinkhorn's linear rate (the
squared second singular value of the standard form) keeps per-example
iteration counts reasonable, and zero-pattern stacks never contain an
all-zero row or column in any slice.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

#: Strictly positive, well-conditioned stack entries.
positive_entries = st.floats(
    min_value=1e-2, max_value=1e2, allow_nan=False, allow_infinity=False
)


def ecs_stacks(
    min_slices: int = 1,
    max_slices: int = 4,
    min_side: int = 1,
    max_side: int = 5,
    positive_only: bool = True,
):
    """Strategy producing valid ``(N, T, M)`` ECS stacks.

    With ``positive_only=False`` entries may be zero, but every slice
    keeps at least one positive entry in each row and column (the same
    validity rule the scalar kernels enforce).  The zero patterns are
    otherwise unconstrained, so decomposable (non-convergent) slices
    are generated too — exactly what the conformance table needs.
    """
    shapes = st.tuples(
        st.integers(min_slices, max_slices),
        st.integers(min_side, max_side),
        st.integers(min_side, max_side),
    )
    if positive_only:
        return shapes.flatmap(
            lambda shape: npst.arrays(
                dtype=np.float64, shape=shape, elements=positive_entries
            )
        )

    def with_zeros(shape):
        return npst.arrays(
            dtype=np.float64,
            shape=shape,
            elements=st.one_of(st.just(0.0), positive_entries),
        ).filter(
            lambda arr: (arr > 0).any(axis=2).all()
            and (arr > 0).any(axis=1).all()
        )

    return shapes.flatmap(with_zeros)
