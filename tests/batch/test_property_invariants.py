"""Paper invariants checked across whole batched stacks.

Theorem 1: the standard form — and hence TMA — is invariant under any
per-slice diagonal row/column rescaling.  Theorem 2: the largest
singular value of every converged standard-form slice is 1.  Plus the
range and scale-invariance properties (paper Section II-A) that make
the three measures usable, verified per slice over the batch.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import characterize_ensemble, standardize_batched
from repro.measures.affinity import _singular_values
from repro.normalize.standard_form import DEFAULT_TOL

from .conftest import ecs_stacks

#: Sinkhorn stops at a 1e-8 residual, so downstream identities hold to
#: a small multiple of that — not to machine precision.
SINKHORN_ATOL = 1e-6


def _random_diagonals(shape, seed):
    """Per-slice positive row/column scaling vectors in [0.1, 10]."""
    n, t, m = shape
    rng = np.random.default_rng(seed)
    row = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=(n, t)))
    col = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=(n, m)))
    return row, col


class TestTheorem2:
    @settings(max_examples=40, deadline=None)
    @given(stack=ecs_stacks())
    def test_sigma1_is_one_across_stack(self, stack):
        standard = standardize_batched(stack)
        values = _singular_values(
            standard.matrix, "batched", DEFAULT_TOL, standard.converged
        )
        np.testing.assert_allclose(
            values[:, 0], 1.0, rtol=0, atol=SINKHORN_ATOL
        )

    @settings(max_examples=40, deadline=None)
    @given(stack=ecs_stacks())
    def test_standard_margins_across_stack(self, stack):
        result = standardize_batched(stack)
        assert result.converged.all()
        np.testing.assert_allclose(
            result.matrix.sum(axis=2), result.row_target, atol=1e-7
        )
        np.testing.assert_allclose(
            result.matrix.sum(axis=1), result.col_target, atol=1e-7
        )


class TestTheorem1Independence:
    @settings(max_examples=30, deadline=None)
    @given(stack=ecs_stacks(min_side=2), seed=st.integers(0, 2**32 - 1))
    def test_tma_invariant_under_row_col_rescaling(self, stack, seed):
        """Rescaling each slice by arbitrary positive diagonals moves
        MPH and TDH but leaves the standard form — and TMA — fixed."""
        row, col = _random_diagonals(stack.shape, seed)
        rescaled = row[:, :, None] * stack * col[:, None, :]
        np.testing.assert_allclose(
            characterize_ensemble(rescaled).tma,
            characterize_ensemble(stack).tma,
            rtol=0,
            atol=SINKHORN_ATOL,
        )

    @settings(max_examples=30, deadline=None)
    @given(stack=ecs_stacks(min_side=2), seed=st.integers(0, 2**32 - 1))
    def test_standard_form_invariant_under_rescaling(self, stack, seed):
        """The stronger statement behind Theorem 1: the standard-form
        matrices themselves coincide, per slice."""
        row, col = _random_diagonals(stack.shape, seed)
        rescaled = row[:, :, None] * stack * col[:, None, :]
        np.testing.assert_allclose(
            standardize_batched(rescaled).matrix,
            standardize_batched(stack).matrix,
            rtol=0,
            atol=SINKHORN_ATOL,
        )


class TestScaleInvariance:
    @settings(max_examples=40, deadline=None)
    @given(
        stack=ecs_stacks(),
        factors=st.lists(
            st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=4
        ),
    )
    def test_global_scaling_leaves_all_measures(self, stack, factors):
        """Multiplying every slice by its own positive scalar (a faster
        fleet, the same heterogeneity) changes none of the measures."""
        scale = np.resize(np.asarray(factors), stack.shape[0])
        got = characterize_ensemble(scale[:, None, None] * stack)
        want = characterize_ensemble(stack)
        np.testing.assert_allclose(got.mph, want.mph, rtol=1e-9)
        np.testing.assert_allclose(got.tdh, want.tdh, rtol=1e-9)
        np.testing.assert_allclose(
            got.tma, want.tma, rtol=0, atol=SINKHORN_ATOL
        )


class TestRanges:
    @settings(max_examples=40, deadline=None)
    @given(stack=ecs_stacks())
    def test_measures_in_paper_ranges(self, stack):
        ensemble = characterize_ensemble(stack)
        m, t, a = ensemble.mph, ensemble.tdh, ensemble.tma
        assert ((m > 0) & (m <= 1)).all()
        assert ((t > 0) & (t <= 1)).all()
        assert ((a >= 0) & (a <= 1)).all()
