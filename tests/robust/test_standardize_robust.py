"""The policy knob on the batched standard-form kernel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import standardize_batched
from repro.exceptions import MatrixValueError
from repro.normalize import standard_targets
from repro.robust import Budget, FaultPlan

from .conftest import healthy_indices


class TestPolicyKnob:
    def test_invalid_policy_rejected(self, base_stack):
        with pytest.raises(MatrixValueError):
            standardize_batched(base_stack, policy="shrug")

    def test_budget_requires_non_raise_policy(self, base_stack):
        with pytest.raises(MatrixValueError):
            standardize_batched(
                base_stack, policy="raise", budget=Budget(deadline_s=1.0)
            )

    def test_quarantine_delegates_to_robust(self, base_stack):
        corrupt = base_stack.copy()
        corrupt[2, 1, 1] = np.nan
        result = standardize_batched(corrupt, policy="quarantine")
        assert result.report is not None
        assert result.report.categories() == {2: "nan"}


class TestQuarantineStandardize:
    def test_healthy_slices_bit_identical(self, base_stack):
        baseline = standardize_batched(base_stack)
        plan = FaultPlan.random(8, faults="nan=1,zero-col=1", seed=8)
        result = standardize_batched(
            base_stack, policy="quarantine", fault_plan=plan
        )
        healthy = healthy_indices(8, plan)
        for field in ("matrix", "row_scale", "col_scale", "iterations"):
            np.testing.assert_array_equal(
                getattr(result, field)[healthy],
                getattr(baseline, field)[healthy],
                err_msg=f"healthy slices differ in {field}",
            )
        for i in plan.members:
            assert np.isnan(result.matrix[i]).all()
            assert not result.converged[i]
        assert result.report.categories() == plan.expected_categories()

    def test_decomposable_is_a_fault_here(self, base_stack):
        # Unlike characterization (where the limit fallback applies),
        # the standard form *requires* normalizability, so decomposable
        # patterns always screen out.
        plan = FaultPlan.random(8, faults="decomposable=1", seed=5)
        result = standardize_batched(
            base_stack, policy="quarantine", fault_plan=plan
        )
        assert result.report.categories() == {plan.members[0]: "decomposable"}

    def test_non_convergent_keeps_partial_iterate(self, base_stack):
        plan = FaultPlan.random(8, faults="non-convergent=1", seed=6)
        result = standardize_batched(
            base_stack,
            policy="quarantine",
            fault_plan=plan,
            max_iterations=500,
        )
        (bad,) = plan.members
        fault = result.report.fault(bad)
        assert fault.category == "non-convergent"
        assert not fault.repaired
        # Graceful degradation: the best partial iterate survives.
        assert np.isfinite(result.matrix[bad]).all()
        assert not result.converged[bad]
        assert result.iterations[bad] == 500

    def test_all_slices_faulty(self):
        stack = np.full((2, 2, 2), np.nan)
        result = standardize_batched(stack, policy="quarantine")
        assert len(result.report) == 2
        assert not result.converged.any()
        row, col = standard_targets(2, 2)
        assert result.row_target == row
        assert result.col_target == col


class TestRepairStandardize:
    def test_pattern_repair(self, base_stack):
        plan = FaultPlan.random(8, faults="decomposable=1", seed=5)
        result = standardize_batched(
            base_stack, policy="repair", fault_plan=plan
        )
        (bad,) = plan.members
        fault = result.report.fault(bad)
        assert fault.repaired
        assert fault.repair.startswith("drop:")
        assert result.converged[bad]
        row, col = standard_targets(4, 4)
        np.testing.assert_allclose(
            result.matrix[bad].sum(axis=1), row, atol=1e-6
        )
        np.testing.assert_allclose(
            result.matrix[bad].sum(axis=0), col, atol=1e-6
        )

    def test_tol_backoff_repair(self, base_stack):
        plan = FaultPlan.random(
            8, faults="non-convergent=1", seed=6, severity=1e6
        )
        result = standardize_batched(
            base_stack,
            policy="repair",
            fault_plan=plan,
            max_iterations=2_000,
        )
        (bad,) = plan.members
        fault = result.report.fault(bad)
        assert fault.repaired
        assert fault.repair.startswith("tol-backoff:")
        assert result.converged[bad]

    def test_nan_slice_stays_quarantined_under_repair(self, base_stack):
        plan = FaultPlan.random(8, faults="nan=1", seed=7)
        result = standardize_batched(
            base_stack, policy="repair", fault_plan=plan
        )
        fault = result.report.fault(plan.members[0])
        assert not fault.repaired
        assert fault.attempts == 0
