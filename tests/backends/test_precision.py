"""The float32 fast path: float64-verified results or a clean fallback."""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import standardize_batched
from repro.exceptions import MatrixValueError
from repro.normalize import sinkhorn_knopp
from repro.obs import collecting_metrics
from repro.obs.metrics import MetricsRegistry


class TestScalarFloat32:
    def test_verified_path_meets_float64_tolerance(self):
        rng = np.random.default_rng(0)
        ecs = rng.uniform(0.5, 5.0, size=(8, 5))
        tol = 1e-8
        result = sinkhorn_knopp(ecs, tol=tol, precision="float32")
        reference = sinkhorn_knopp(ecs, tol=tol)
        assert result.converged
        # The contract: the coarse float32 phase only ever *accelerates*;
        # the returned matrix is float64-verified against the same
        # residual check the pure-float64 path uses.
        assert result.matrix.dtype == np.float64
        assert result.max_sum_error() <= tol
        np.testing.assert_allclose(
            result.matrix, reference.matrix, rtol=0, atol=1e-7
        )

    def test_history_invariant_holds(self):
        rng = np.random.default_rng(1)
        ecs = rng.uniform(0.3, 8.0, size=(6, 6))
        result = sinkhorn_knopp(ecs, precision="float32")
        assert len(result.residual_history) == result.iterations + 1

    def test_verified_outcome_counted(self):
        rng = np.random.default_rng(2)
        ecs = rng.uniform(0.5, 5.0, size=(6, 4))
        with collecting_metrics(MetricsRegistry()) as registry:
            sinkhorn_knopp(ecs, precision="float32")
        counter = registry.get("repro_backend_precision_total")
        assert counter.value(backend="numpy", outcome="verified") == 1.0

    def test_float32_overflow_falls_back_to_float64(self):
        # Entries above float32's ~3.4e38 ceiling overflow the coarse
        # phase to inf, but the matrix is perfectly conditioned in
        # float64 — the fallback must still converge from entry state.
        rng = np.random.default_rng(3)
        huge = rng.uniform(1e39, 5e39, size=(4, 3))
        tol = 1e-8
        with collecting_metrics(MetricsRegistry()) as registry:
            result = sinkhorn_knopp(huge, tol=tol, precision="float32")
        assert result.converged
        assert result.max_sum_error() <= tol
        counter = registry.get("repro_backend_precision_total")
        assert counter.value(backend="numpy", outcome="fallback") == 1.0
        # The fallback is indistinguishable from never having tried
        # float32 at all.
        pure = sinkhorn_knopp(huge, tol=tol)
        assert (result.matrix == pure.matrix).all()
        assert result.iterations == pure.iterations

    def test_default_precision_is_pure_float64(self):
        rng = np.random.default_rng(4)
        ecs = rng.uniform(0.5, 5.0, size=(5, 5))
        a = sinkhorn_knopp(ecs)
        b = sinkhorn_knopp(ecs, precision="float64")
        assert (a.matrix == b.matrix).all()
        assert a.residual_history == b.residual_history

    def test_invalid_precision_rejected(self):
        with pytest.raises(MatrixValueError, match="precision must be one of"):
            sinkhorn_knopp(np.ones((2, 2)), precision="bfloat16")


class TestBatchedFloat32:
    def test_verified_batch_meets_tolerance(self):
        rng = np.random.default_rng(5)
        stack = rng.uniform(0.3, 6.0, size=(5, 6, 4))
        tol = 1e-8
        result = standardize_batched(stack, tol=tol, precision="float32")
        assert result.converged.all()
        assert result.matrix.dtype == np.float64
        row_target = np.sqrt(stack.shape[2] / stack.shape[1])
        residual = np.abs(
            result.matrix.sum(axis=2) - row_target
        ).max()
        assert residual <= tol

    def test_batch_fallback_restores_entry_state(self):
        # One overflowing slice poisons the float32 phase; the batch
        # driver falls back all-or-nothing and the pure-float64 rerun
        # must match a never-tried-float32 run exactly.
        rng = np.random.default_rng(6)
        stack = rng.uniform(0.5, 5.0, size=(4, 5, 3))
        stack[2] *= 1e39
        tol = 1e-8
        with collecting_metrics(MetricsRegistry()) as registry:
            result = standardize_batched(
                stack, tol=tol, precision="float32"
            )
        pure = standardize_batched(stack, tol=tol)
        assert result.converged.all()
        assert (result.matrix == pure.matrix).all()
        np.testing.assert_array_equal(result.iterations, pure.iterations)
        counter = registry.get("repro_backend_precision_total")
        assert counter.value(backend="numpy", outcome="fallback") >= 1.0

    def test_batched_equals_scalar_per_slice(self):
        from repro.normalize import standardize

        rng = np.random.default_rng(7)
        stack = rng.uniform(0.4, 7.0, size=(3, 5, 4))
        batched = standardize_batched(stack, precision="float32")
        for index in range(stack.shape[0]):
            scalar = standardize(stack[index], precision="float32")
            np.testing.assert_allclose(
                batched.matrix[index], scalar.matrix, rtol=0, atol=1e-7
            )


class TestIterationBudget:
    #: Converges slowly enough that the float32 phase alone exhausts a
    #: 20-iteration budget.
    SLOW = np.array([[1.0, 1e-6, 0.0], [1.0, 1.0, 1e-6], [0.0, 1e-6, 1.0]])

    def test_phases_share_max_iterations_on_both_entry_points(self):
        from repro.batch import sinkhorn_knopp_batched

        options = {
            "precision": "float32",
            "max_iterations": 20,
            "require_convergence": False,
        }
        scalar = sinkhorn_knopp(self.SLOW, **options)
        batched = sinkhorn_knopp_batched(self.SLOW[None], **options)
        assert scalar.iterations == 20
        assert batched.iterations.tolist() == [20]
        assert len(batched.residual_history[0]) == 21
        assert batched.residual_history[0] == scalar.residual_history
