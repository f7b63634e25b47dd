"""Warm-started Sinkhorn: exact re-application and iteration savings."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.batch import characterize_ensemble, standardize_batched
from repro.exceptions import MatrixValueError
from repro.generate.ensembles import perturb_stack
from repro.normalize import (
    NormalizationResult,
    scale_by_diagonals,
    sinkhorn_knopp,
    standardize,
)
from tests.conftest import ecs_matrices

from ..batch.conftest import ecs_stacks


class TestScalarWarmStart:
    @settings(max_examples=25, deadline=None)
    @given(ecs=ecs_matrices(min_side=2, max_side=6))
    def test_warm_from_converged_run_is_exact(self, ecs):
        cold = sinkhorn_knopp(ecs)
        warm = sinkhorn_knopp(ecs, warm_start=cold)
        # Re-applying the converged diagonals lands at (or below) the
        # tolerance immediately: zero new iterations, and the matrix is
        # bit-for-bit the closed-form diagonal re-application.
        assert warm.converged
        assert warm.iterations == 0
        assert (warm.row_scale == cold.row_scale).all()
        assert (warm.col_scale == cold.col_scale).all()
        rebuilt = scale_by_diagonals(ecs, cold.row_scale, cold.col_scale)
        assert (warm.matrix == rebuilt).all()
        np.testing.assert_allclose(
            warm.matrix, cold.matrix, rtol=0, atol=1e-7
        )

    @settings(max_examples=25, deadline=None)
    @given(ecs=ecs_matrices(min_side=2, max_side=6))
    # Warm 4, cold 3: a warm start can take one iteration more than a
    # cold one.  Over 50,000 examples of this strategy warm never took
    # more than cold + 1 (warm averaged 1.8 iterations, cold 128-138).
    @example(ecs=np.array([[25.0, 0.25], [0.25, 25.0], [25.0, 25.0]]))
    def test_small_perturbations_need_at_most_one_more_iteration(self, ecs):
        cold = sinkhorn_knopp(ecs)
        rng = np.random.default_rng(0)
        perturbed = ecs * (1.0 + rng.uniform(-1e-7, 1e-7, size=ecs.shape))
        warm = sinkhorn_knopp(perturbed, warm_start=cold)
        baseline = sinkhorn_knopp(perturbed)
        assert warm.converged
        assert warm.iterations <= baseline.iterations + 1

    def test_tuple_form_accepted(self):
        rng = np.random.default_rng(1)
        ecs = rng.uniform(0.5, 5.0, size=(6, 4))
        cold = sinkhorn_knopp(ecs)
        warm = sinkhorn_knopp(
            ecs, warm_start=(cold.row_scale, cold.col_scale)
        )
        assert warm.iterations == 0

    def test_standard_form_result_is_a_valid_warm_start(self):
        rng = np.random.default_rng(2)
        ecs = rng.uniform(0.5, 5.0, size=(6, 4))
        seeded = standardize(ecs)
        assert type(seeded) is NormalizationResult
        warm = standardize(ecs, warm_start=seeded)
        assert warm.iterations == 0

    def test_wrong_length_rejected(self):
        rng = np.random.default_rng(3)
        ecs = rng.uniform(0.5, 5.0, size=(6, 4))
        with pytest.raises(MatrixValueError, match="warm_start"):
            sinkhorn_knopp(
                ecs, warm_start=(np.ones(5), np.ones(4))
            )

    def test_non_positive_vectors_rejected(self):
        rng = np.random.default_rng(4)
        ecs = rng.uniform(0.5, 5.0, size=(4, 4))
        with pytest.raises(MatrixValueError, match="positive"):
            sinkhorn_knopp(
                ecs, warm_start=(np.zeros(4), np.ones(4))
            )


class TestBatchedWarmStart:
    @settings(max_examples=15, deadline=None)
    @given(stack=ecs_stacks(min_side=2, max_side=5))
    def test_warm_from_converged_run_is_exact(self, stack):
        cold = standardize_batched(stack)
        warm = standardize_batched(
            stack, warm_start=(cold.row_scale, cold.col_scale)
        )
        assert warm.converged.all()
        assert (warm.iterations == 0).all()
        assert (warm.row_scale == cold.row_scale).all()
        assert (warm.col_scale == cold.col_scale).all()

    def test_shared_pair_broadcasts_over_the_stack(self):
        rng = np.random.default_rng(5)
        base = rng.uniform(0.5, 10.0, size=(12, 6))
        stack = perturb_stack(base, 1e-6, 24, seed=5)
        seeded = standardize(base)
        cold = standardize_batched(stack)
        warm = standardize_batched(
            stack, warm_start=(seeded.row_scale, seeded.col_scale)
        )
        assert warm.converged.all()
        assert (warm.iterations <= cold.iterations).all()
        # Warm start must save >= 3x total iterations on a
        # perturb_stack re-characterization.
        assert cold.iterations.sum() >= 3 * warm.iterations.sum()

    def test_ensemble_warm_start_threads_through(self):
        rng = np.random.default_rng(6)
        base = rng.uniform(0.5, 10.0, size=(8, 5))
        stack = perturb_stack(base, 1e-6, 8, seed=6)
        seeded = standardize(base)
        cold = characterize_ensemble(stack)
        warm = characterize_ensemble(
            stack, warm_start=(seeded.row_scale, seeded.col_scale)
        )
        assert warm.converged.all()
        assert warm.iterations.sum() < cold.iterations.sum()
        np.testing.assert_allclose(warm.tma, cold.tma, atol=1e-7)

    def test_robust_policy_rejected(self):
        stack = np.ones((2, 3, 3))
        with pytest.raises(MatrixValueError, match="policy='raise'"):
            standardize_batched(
                stack,
                policy="quarantine",
                warm_start=(np.ones((3,)), np.ones((3,))),
            )

    def test_scalar_fallback_slices_rejected(self):
        stack = np.ones((2, 3, 3))
        stack[0, 0, 0] = 0.0  # zero-patterned slice -> scalar path
        with pytest.raises(MatrixValueError) as error:
            characterize_ensemble(
                stack, warm_start=(np.ones(3), np.ones(3))
            )
        assert str(error.value) == (
            "warm_start requires a strictly positive stack (zero-patterned "
            "slices take the scalar path, which cannot reuse scaling vectors)"
        )

    def test_ragged_ensemble_rejected(self):
        members = [np.ones((2, 2)), np.ones((3, 3))]
        with pytest.raises(MatrixValueError, match="stacked"):
            characterize_ensemble(
                members, warm_start=(np.ones(2), np.ones(2))
            )
