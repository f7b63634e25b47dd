"""Tests for the alternating-scaling iteration (paper eq. 9)."""

import numpy as np
import pytest

from repro import ConvergenceError, MatrixValueError
from repro.normalize import scale_by_diagonals, scale_to_margins, sinkhorn_knopp


class TestBasicConvergence:
    def test_doubly_stochastic_square(self):
        rng = np.random.default_rng(0)
        result = sinkhorn_knopp(rng.uniform(0.5, 2.0, size=(5, 5)))
        np.testing.assert_allclose(result.matrix.sum(axis=1), 1.0, atol=1e-8)
        np.testing.assert_allclose(result.matrix.sum(axis=0), 1.0, atol=1e-8)
        assert result.converged

    def test_rectangular_consistent_default(self):
        rng = np.random.default_rng(1)
        result = sinkhorn_knopp(
            rng.uniform(0.5, 2.0, size=(3, 7)), row_target=2.0
        )
        np.testing.assert_allclose(result.matrix.sum(axis=1), 2.0, atol=1e-8)
        np.testing.assert_allclose(
            result.matrix.sum(axis=0), 3 * 2.0 / 7, atol=1e-8
        )

    def test_already_normalized_zero_iterations(self):
        matrix = np.full((2, 2), 0.5)
        result = sinkhorn_knopp(matrix)
        assert result.iterations == 0
        assert result.converged

    def test_result_matrix_is_fresh(self):
        source = np.ones((2, 2))
        result = sinkhorn_knopp(source)
        assert result.matrix is not source
        np.testing.assert_allclose(source, 1.0)  # input untouched

    def test_residual_history_decreases(self):
        rng = np.random.default_rng(2)
        result = sinkhorn_knopp(rng.uniform(0.1, 5.0, size=(6, 4)))
        history = np.array(result.residual_history)
        assert history[-1] <= 1e-8
        # Monotone after the first pass for positive matrices.
        assert (np.diff(history[1:]) <= 1e-12).all()

    def test_max_sum_error_consistent(self):
        result = sinkhorn_knopp(np.random.default_rng(3).uniform(
            1, 2, size=(4, 4)))
        assert result.max_sum_error() == pytest.approx(result.residual,
                                                       abs=1e-12)
        # Prescribed margins are the targets max_sum_error measures from.
        margins = scale_to_margins([[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0],
                                   [1.5, 1.5])
        assert margins.converged
        assert margins.max_sum_error() == pytest.approx(margins.residual,
                                                        abs=1e-12)


class TestScalingRecovery:
    def test_diagonals_reproduce_matrix(self):
        rng = np.random.default_rng(4)
        matrix = rng.uniform(0.5, 2.0, size=(4, 6))
        result = sinkhorn_knopp(matrix, row_target=1.5)
        rebuilt = scale_by_diagonals(matrix, result.row_scale, result.col_scale)
        np.testing.assert_allclose(rebuilt, result.matrix, rtol=1e-12)

    def test_theorem1_uniqueness_up_to_scalar(self):
        """Two different starting scalings of the same matrix converge to
        the same standard matrix (D1, D2 unique up to k, 1/k)."""
        rng = np.random.default_rng(5)
        matrix = rng.uniform(0.5, 2.0, size=(4, 4))
        scaled = np.diag(rng.uniform(0.2, 5, 4)) @ matrix @ np.diag(
            rng.uniform(0.2, 5, 4)
        )
        a = sinkhorn_knopp(matrix).matrix
        b = sinkhorn_knopp(scaled).matrix
        np.testing.assert_allclose(a, b, atol=1e-7)

    def test_scale_by_diagonals_shape_check(self):
        with pytest.raises(MatrixValueError):
            scale_by_diagonals(np.ones((2, 3)), [1.0, 1.0], [1.0, 1.0])


class TestValidation:
    def test_inconsistent_targets_rejected(self):
        with pytest.raises(MatrixValueError):
            sinkhorn_knopp(np.ones((2, 3)), row_target=1.0, col_target=1.0)

    def test_consistent_explicit_targets_accepted(self):
        result = sinkhorn_knopp(
            np.ones((2, 3)), row_target=3.0, col_target=2.0
        )
        np.testing.assert_allclose(result.matrix.sum(axis=1), 3.0)

    def test_negative_entries_rejected(self):
        with pytest.raises(MatrixValueError):
            sinkhorn_knopp([[1.0, -1.0], [1.0, 1.0]])

    def test_inf_entries_rejected(self):
        with pytest.raises(MatrixValueError):
            sinkhorn_knopp([[1.0, np.inf], [1.0, 1.0]])

    def test_zero_row_rejected(self):
        with pytest.raises(MatrixValueError):
            sinkhorn_knopp([[0.0, 0.0], [1.0, 1.0]])

    def test_nonpositive_target_rejected(self):
        with pytest.raises(MatrixValueError):
            sinkhorn_knopp(np.ones((2, 2)), row_target=0.0)


class TestNonConvergence:
    def test_eq10_raises_within_budget(self, eq10_matrix):
        with pytest.raises(ConvergenceError) as excinfo:
            sinkhorn_knopp(eq10_matrix, max_iterations=200)
        assert excinfo.value.iterations == 200
        assert excinfo.value.residual > 0

    def test_eq10_best_effort_mode(self, eq10_matrix):
        result = sinkhorn_knopp(
            eq10_matrix, max_iterations=50, require_convergence=False
        )
        assert not result.converged
        assert result.iterations == 50
        # The blocked entry (row 2, col 3 in paper indexing) decays
        # toward zero but never reaches it.
        assert 0 < result.matrix[1, 2] < eq10_matrix[1, 2]

    def test_zeros_but_normalizable_converges(self):
        """The paper's diagonal-matrix exception: decomposable pattern,
        yet normalization succeeds."""
        result = sinkhorn_knopp(np.diag([2.0, 5.0, 11.0]))
        np.testing.assert_allclose(result.matrix, np.eye(3), atol=1e-8)
