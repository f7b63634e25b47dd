"""Differential harness: batched kernels vs the scalar reference.

Property-based equivalence of ``repro.batch`` against per-slice calls
of the scalar pipeline over random positive and zero-patterned
``(N, T, M)`` stacks.  The batched path is an execution strategy, not a
reformulation: a scalar run is a stack of one through the same core,
and the scalar SVD is the stacked one's LAPACK routine on one matrix,
so on a backend with ``tolerance == 0`` (the numpy reference) the
Sinkhorn results and the measure columns are held bit-identical, and
on any other backend within ``ATOL``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.backends import resolve_backend
from repro.batch import (
    characterize_ensemble,
    mph_batched,
    sinkhorn_knopp_batched,
    standardize_batched,
    tdh_batched,
    tma_batched,
)
from repro.exceptions import ConvergenceError, MatrixValueError
from repro.measures import characterize, mph, tdh, tma
from repro.normalize import sinkhorn_knopp, standardize

from .conftest import ecs_stacks

#: Per-slice batched/scalar agreement bound for measures, and for
#: Sinkhorn results on a backend that declares a nonzero tolerance.
ATOL = 1e-10

#: Sinkhorn agreement bound: exact on the reference backend.
SINKHORN_ATOL = ATOL if resolve_backend().tolerance > 0 else 0.0

#: Measure agreement bound: exact on the reference backend too.
MEASURE_ATOL = SINKHORN_ATOL

#: Iteration cap for adversarial zero patterns: enough for every
#: normalizable pattern this size, quick to fail for decomposable ones.
CAPPED = 500


class TestSinkhornDifferential:
    @settings(max_examples=40, deadline=None)
    @given(stack=ecs_stacks())
    def test_positive_stacks_match_scalar(self, stack):
        batched = sinkhorn_knopp_batched(stack)
        for i in range(stack.shape[0]):
            scalar = sinkhorn_knopp(stack[i])
            assert bool(batched.converged[i]) == scalar.converged
            assert int(batched.iterations[i]) == scalar.iterations
            np.testing.assert_allclose(
                batched.matrix[i], scalar.matrix, rtol=0, atol=SINKHORN_ATOL
            )
            np.testing.assert_allclose(
                batched.row_scale[i], scalar.row_scale, rtol=SINKHORN_ATOL
            )
            np.testing.assert_allclose(
                batched.col_scale[i], scalar.col_scale, rtol=SINKHORN_ATOL
            )
            assert batched.residual_history[i] == pytest.approx(
                scalar.residual_history, abs=SINKHORN_ATOL
            )

    @settings(max_examples=40, deadline=None)
    @given(stack=ecs_stacks(positive_only=False))
    def test_zero_patterns_match_scalar(self, stack):
        """Zero patterns — including non-convergent decomposable ones —
        follow the scalar iterate-for-iterate."""
        batched = sinkhorn_knopp_batched(
            stack, require_convergence=False, max_iterations=CAPPED
        )
        for i in range(stack.shape[0]):
            scalar = sinkhorn_knopp(
                stack[i], require_convergence=False, max_iterations=CAPPED
            )
            assert bool(batched.converged[i]) == scalar.converged
            assert int(batched.iterations[i]) == scalar.iterations
            np.testing.assert_allclose(
                batched.matrix[i], scalar.matrix, rtol=0, atol=SINKHORN_ATOL
            )
            assert float(batched.residual[i]) == pytest.approx(
                scalar.residual, abs=SINKHORN_ATOL
            )

    @settings(max_examples=20, deadline=None)
    @given(stack=ecs_stacks(max_side=4))
    def test_slice_bridge_matches_scalar_result(self, stack):
        """`BatchNormalizationResult.slice(i)` is a drop-in scalar result."""
        batched = sinkhorn_knopp_batched(stack)
        view = batched.slice(0)
        scalar = sinkhorn_knopp(stack[0])
        assert view.converged == scalar.converged
        assert view.iterations == scalar.iterations
        np.testing.assert_allclose(
            view.matrix, scalar.matrix, rtol=0, atol=SINKHORN_ATOL
        )
        assert view.max_sum_error() == pytest.approx(
            scalar.max_sum_error(), abs=SINKHORN_ATOL
        )

    def test_non_convergent_raises_with_slice_indices(self, eq10_stack):
        with pytest.raises(ConvergenceError, match="slice"):
            sinkhorn_knopp_batched(eq10_stack, max_iterations=CAPPED)

    def test_validation_mirrors_scalar(self):
        with pytest.raises(MatrixValueError):
            sinkhorn_knopp_batched(-np.ones((2, 2, 2)))
        with pytest.raises(MatrixValueError):
            sinkhorn_knopp_batched(np.full((1, 2, 2), np.inf))
        bad = np.ones((2, 3, 3))
        bad[1, 2, :] = 0.0  # all-zero row in slice 1
        with pytest.raises(MatrixValueError, match=r"\[1\]"):
            sinkhorn_knopp_batched(bad)
        with pytest.raises(MatrixValueError, match="inconsistent"):
            sinkhorn_knopp_batched(
                np.ones((1, 2, 2)), row_target=1.0, col_target=3.0
            )


@pytest.fixture
def eq10_stack():
    """A stack whose middle slice is Section VI's decomposable eq. 10."""
    eq10 = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    pos = np.arange(1.0, 10.0).reshape(3, 3)
    return np.stack([pos, eq10, pos + 1.0])


class TestStandardizeDifferential:
    @settings(max_examples=30, deadline=None)
    @given(stack=ecs_stacks())
    def test_standard_form_matches_scalar(self, stack):
        batched = standardize_batched(stack)
        for i in range(stack.shape[0]):
            scalar = standardize(stack[i])
            np.testing.assert_allclose(
                batched.matrix[i], scalar.matrix, rtol=0, atol=SINKHORN_ATOL
            )
            assert int(batched.iterations[i]) == scalar.iterations

    def test_partial_convergence_mask(self, eq10_stack):
        result = standardize_batched(
            eq10_stack, require_convergence=False, max_iterations=CAPPED
        )
        assert result.converged.tolist() == [True, False, True]
        assert result.iterations[1] == CAPPED


def straggler_stack(n_slices=32, n_slow=17, eps=1e-3, seed=5):
    """An (N, 8, 8) stack whose ``n_slow`` scattered members converge
    slowly: their off-diagonal 4x4 blocks are scaled by ``eps``."""
    rng = np.random.default_rng(seed)
    stack = rng.uniform(0.5, 10.0, (n_slices, 8, 8))
    slow = rng.permutation(n_slices)[:n_slow]
    stack[slow[:, None], :4, 4:] *= eps
    stack[slow[:, None], 4:, :4] *= eps
    return stack


class TestHalfStackThreshold:
    """17 of 32 members converge slowly, so the core scales the whole
    stack in place (the fast members held fixed) until all but 16 of
    the slow ones stop, then iterates a compact copy of the rest."""

    def test_every_slice_matches_its_lone_run(self):
        stack = straggler_stack()
        batched = sinkhorn_knopp_batched(stack)
        assert len(set(batched.iterations.tolist())) > 2
        for i in range(stack.shape[0]):
            scalar = sinkhorn_knopp(stack[i])
            assert int(batched.iterations[i]) == scalar.iterations
            np.testing.assert_allclose(
                batched.matrix[i], scalar.matrix, rtol=0, atol=SINKHORN_ATOL
            )
            np.testing.assert_allclose(
                batched.row_scale[i], scalar.row_scale, rtol=SINKHORN_ATOL
            )
            np.testing.assert_allclose(
                batched.col_scale[i], scalar.col_scale, rtol=SINKHORN_ATOL
            )
            assert batched.residual_history[i] == pytest.approx(
                scalar.residual_history, abs=SINKHORN_ATOL
            )

    def test_fused_pass_matches_lone_characterize(self):
        # The ensemble pass records no residual trace.
        stack = straggler_stack()
        ensemble = characterize_ensemble(stack)
        for i in range(stack.shape[0]):
            profile = characterize(stack[i])
            assert int(ensemble.iterations[i]) == profile.sinkhorn_iterations
            np.testing.assert_allclose(
                ensemble.tma[i], profile.tma, rtol=0, atol=MEASURE_ATOL
            )


class TestMeasureDifferential:
    @settings(max_examples=40, deadline=None)
    @given(stack=ecs_stacks())
    def test_mph_matches_scalar(self, stack):
        batched = mph_batched(stack)
        expected = [mph(stack[i]) for i in range(stack.shape[0])]
        np.testing.assert_allclose(batched, expected, rtol=0, atol=MEASURE_ATOL)

    @settings(max_examples=40, deadline=None)
    @given(stack=ecs_stacks())
    def test_tdh_matches_scalar(self, stack):
        batched = tdh_batched(stack)
        expected = [tdh(stack[i]) for i in range(stack.shape[0])]
        np.testing.assert_allclose(batched, expected, rtol=0, atol=MEASURE_ATOL)

    @settings(max_examples=30, deadline=None)
    @given(stack=ecs_stacks())
    def test_tma_matches_scalar(self, stack):
        batched = tma_batched(stack)
        expected = [tma(stack[i]) for i in range(stack.shape[0])]
        np.testing.assert_allclose(batched, expected, rtol=0, atol=MEASURE_ATOL)

    @settings(max_examples=30, deadline=None)
    @given(stack=ecs_stacks(positive_only=False, min_side=2))
    def test_mph_tdh_with_zero_patterns(self, stack):
        """MPH/TDH need no standard form, so they batch for any valid
        zero pattern."""
        np.testing.assert_allclose(
            mph_batched(stack),
            [mph(stack[i]) for i in range(stack.shape[0])],
            rtol=0,
            atol=MEASURE_ATOL,
        )
        np.testing.assert_allclose(
            tdh_batched(stack),
            [tdh(stack[i]) for i in range(stack.shape[0])],
            rtol=0,
            atol=MEASURE_ATOL,
        )
