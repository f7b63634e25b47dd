"""Chaos suite: the parametrized fault-injection matrix.

The central contract under test: with faults injected into k of N
members, ``characterize_ensemble(policy="quarantine")`` returns the
other N−k members with results **bit-identical** to a fault-free run,
and a quarantine report naming exactly the injected members with the
categories the plan predicted.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import characterize_ensemble
from repro.core import ECSMatrix, ETCMatrix
from repro.exceptions import (
    GenerationError,
    MatrixValueError,
    ReproError,
)
from repro.robust import FAULT_KINDS, KIND_CATEGORY, Budget, FaultPlan, FaultSpec

from .conftest import NON_NUMERIC_MEMBERS, healthy_indices, ragged

#: Data-fault kinds (stall manifests in the worker, tested separately).
DATA_KINDS = ("nan", "zero-row", "zero-col", "decomposable", "non-convergent")

#: Iteration cap for the suite: healthy members converge in tens of
#: iterations; injected non-convergent members (severity 1e14) need
#: ~1e7, so this cap keeps the fault cheap while keeping it a fault.
MAX_ITER = 2_000


def _assert_healthy_bit_identical(result, baseline, healthy) -> None:
    idx = np.asarray(healthy)
    for field in ("mph", "tdh", "tma", "iterations", "converged", "batched"):
        np.testing.assert_array_equal(
            getattr(result, field)[idx],
            getattr(baseline, field)[idx],
            err_msg=f"healthy members not bit-identical in {field}",
        )


class TestFaultPlan:
    def test_random_is_deterministic(self):
        a = FaultPlan.random(10, faults="nan=2,zero-row=1", seed=5)
        b = FaultPlan.random(10, faults="nan=2,zero-row=1", seed=5)
        assert a == b
        assert len(a.faults) == 3
        assert len(set(a.members)) == 3

    def test_spec_string_and_dict_agree(self):
        a = FaultPlan.random(10, faults="nan=2,stall=1", seed=0)
        b = FaultPlan.random(10, faults={"nan": 2, "stall": 1}, seed=0)
        assert a == b

    def test_rejects_bad_specs(self):
        with pytest.raises(MatrixValueError):
            FaultPlan.random(8, faults="meteor=1", seed=0)
        with pytest.raises(MatrixValueError):
            FaultPlan.random(8, faults="nan=zero", seed=0)
        with pytest.raises(MatrixValueError):
            FaultPlan.random(8, faults="", seed=0)
        with pytest.raises(MatrixValueError):
            FaultPlan.random(2, faults="nan=3", seed=0)

    def test_rejects_duplicate_members(self):
        with pytest.raises(MatrixValueError):
            FaultPlan(
                faults=(
                    FaultSpec(kind="nan", member=1),
                    FaultSpec(kind="zero-row", member=1),
                )
            )

    def test_every_kind_maps_to_a_category(self):
        assert set(KIND_CATEGORY) == set(FAULT_KINDS)

    def test_apply_only_touches_targets(self, base_stack):
        plan = FaultPlan.random(8, faults="nan=1,zero-col=1", seed=3)
        corrupted = plan.apply(base_stack)
        for i in healthy_indices(8, plan):
            np.testing.assert_array_equal(corrupted[i], base_stack[i])
        for i in plan.members:
            assert not np.array_equal(corrupted[i], base_stack[i])

    def test_decomposable_requires_square(self):
        plan = FaultPlan(faults=(FaultSpec(kind="decomposable", member=0),))
        with pytest.raises(GenerationError):
            plan.apply(np.ones((2, 3, 4)))

    def test_out_of_range_member(self, base_stack):
        plan = FaultPlan(faults=(FaultSpec(kind="nan", member=99),))
        with pytest.raises(MatrixValueError):
            plan.apply(base_stack)

    @pytest.mark.parametrize("policy", ["raise", "quarantine", "repair"])
    @pytest.mark.parametrize("ragged", [False, True])
    def test_out_of_range_member_rejected_on_every_path(
        self, base_stack, policy, ragged
    ):
        members = (
            [base_stack[0], base_stack[1, :3]] if ragged else base_stack[:2]
        )
        plan = FaultPlan(faults=(FaultSpec(kind="nan", member=7),))
        with pytest.raises(
            MatrixValueError,
            match="fault targets member 7 but the ensemble has only 2 "
            "members",
        ):
            characterize_ensemble(members, policy=policy, fault_plan=plan)


class TestQuarantineMatrix:
    """One test per data-fault kind, two injected members each."""

    @pytest.mark.parametrize("kind", DATA_KINDS)
    def test_healthy_members_bit_identical(self, base_stack, kind):
        baseline = characterize_ensemble(
            base_stack, tma_fallback="raise", max_iterations=MAX_ITER
        )
        plan = FaultPlan.random(8, faults={kind: 2}, seed=7)
        result = characterize_ensemble(
            base_stack,
            policy="quarantine",
            fault_plan=plan,
            tma_fallback="raise",
            max_iterations=MAX_ITER,
        )
        _assert_healthy_bit_identical(
            result, baseline, healthy_indices(8, plan)
        )
        assert set(result.report.quarantined) == set(plan.members)
        assert result.report.categories() == plan.expected_categories()
        for i in plan.members:
            assert np.isnan(result.mph[i])
            assert np.isnan(result.tdh[i])
            assert np.isnan(result.tma[i])
            assert not result.converged[i]
            assert result.iterations[i] == -1

    def test_mixed_fault_cocktail(self, base_stack):
        baseline = characterize_ensemble(
            base_stack, tma_fallback="raise", max_iterations=MAX_ITER
        )
        plan = FaultPlan.random(
            8,
            faults="nan=1,zero-row=1,decomposable=1,non-convergent=1",
            seed=13,
        )
        result = characterize_ensemble(
            base_stack,
            policy="quarantine",
            fault_plan=plan,
            tma_fallback="raise",
            max_iterations=MAX_ITER,
        )
        assert len(result.report) == 4
        assert result.report.categories() == plan.expected_categories()
        _assert_healthy_bit_identical(
            result, baseline, healthy_indices(8, plan)
        )
        assert sorted(result.report.by_category()) == sorted(
            set(plan.expected_categories().values())
        )

    def test_raise_policy_crashes_on_injected_fault(self, base_stack):
        plan = FaultPlan.random(8, faults="nan=1", seed=1)
        with pytest.raises(ReproError):
            characterize_ensemble(
                base_stack, policy="raise", fault_plan=plan
            )

    def test_quarantine_under_limit_fallback_keeps_decomposable(
        self, base_stack
    ):
        # Under tma_fallback="limit" a decomposable member is healthy
        # (eq. 9 limit semantics), so nothing is quarantined.
        plan = FaultPlan.random(8, faults="decomposable=1", seed=2)
        result = characterize_ensemble(
            base_stack,
            policy="quarantine",
            fault_plan=plan,
            tma_fallback="limit",
            max_iterations=MAX_ITER,
        )
        assert not result.report
        assert bool(result.converged[plan.members[0]])

    def test_scalar_path_quarantines_too(self, base_stack):
        plan = FaultPlan.random(8, faults="nan=1,zero-row=1", seed=9)
        batched = characterize_ensemble(
            base_stack,
            policy="quarantine",
            fault_plan=plan,
            max_iterations=MAX_ITER,
        )
        # A trailing member of another shape sends every member down
        # the scalar path.
        scalar = characterize_ensemble(
            ragged(base_stack),
            policy="quarantine",
            fault_plan=plan,
            max_iterations=MAX_ITER,
        )
        assert not scalar.batched.any()
        assert scalar.report.categories() == batched.report.categories()
        healthy = healthy_indices(8, plan)
        np.testing.assert_allclose(
            scalar.mph[healthy], batched.mph[healthy], atol=1e-10, rtol=0
        )
        np.testing.assert_allclose(
            scalar.tma[healthy], batched.tma[healthy], atol=1e-10, rtol=0
        )

    def test_corrupt_stack_without_plan(self, base_stack):
        corrupt = base_stack.copy()
        corrupt[3, 0, 0] = np.nan
        corrupt[5, :, 1] = 0.0
        result = characterize_ensemble(corrupt, policy="quarantine")
        assert result.report.categories() == {3: "nan", 5: "empty-line"}

    def test_ragged_ensemble_quarantine(self):
        members = [
            np.ones((2, 2)),
            np.ones((3, 4)),
            np.array([[1.0, np.inf], [1.0, 1.0]]),
        ]
        result = characterize_ensemble(members, policy="quarantine")
        assert result.report.categories() == {2: "non-finite"}
        assert result.n_tasks is None
        assert np.isfinite(result.mph[:2]).all()

    def test_non_array_member_quarantined(self):
        # numpy can't even coerce a string; it must quarantine as
        # invalid-shape instead of crashing the whole ensemble.
        members = [np.ones((2, 2)), np.ones((3, 4)), "garbage"]
        result = characterize_ensemble(members, policy="quarantine")
        assert result.report.categories() == {2: "invalid-shape"}
        assert np.isfinite(result.mph[:2]).all()


class TestNonNumericMembers:
    """A list member the strict coercion rejects for its dtype is
    quarantined under the robust policies, never parsed into floats."""

    @pytest.mark.parametrize("policy", ["quarantine", "repair"])
    @pytest.mark.parametrize("ragged", [False, True], ids=["same-shape", "ragged"])
    @pytest.mark.parametrize("kind", sorted(NON_NUMERIC_MEMBERS))
    def test_quarantined(self, kind, ragged, policy):
        member, dtype = NON_NUMERIC_MEMBERS[kind]
        rng = np.random.default_rng(5)
        others = [rng.uniform(0.5, 2.0, (2, 2)) for _ in range(3)]
        if ragged:
            others[2] = rng.uniform(0.5, 2.0, (3, 2))
        result = characterize_ensemble(
            [others[0], member, *others[1:]], policy=policy
        )
        fault = result.report.fault(1)
        assert result.report.quarantined == (1,)
        assert (fault.category, fault.detail, fault.attempts) == (
            "invalid-shape",
            f"member must hold int or float entries, got dtype {dtype}",
            0,
        )
        assert np.isnan([result.mph[1], result.tdh[1], result.tma[1]]).all()
        # The other members' columns equal a run without the bad one.
        baseline = characterize_ensemble(others, policy=policy)
        for field in ("mph", "tdh", "tma", "iterations", "converged"):
            np.testing.assert_array_equal(
                getattr(result, field)[[0, 2, 3]], getattr(baseline, field)
            )

    @pytest.mark.parametrize("policy", ["quarantine", "repair"])
    def test_wrapper_screened_by_its_speeds(self, policy):
        # Weights that overflow the weighted matrix, and execution times
        # whose speeds overflow, are not characterized from the
        # unweighted or ETC values but quarantined as non-finite.
        healthy = np.array([[1.0, 2.0], [3.0, 4.0]])
        members = [
            healthy,
            ECSMatrix(np.full((2, 2), 1e300), task_weights=[1e10, 1.0]),
            ETCMatrix([[1e-320, 1.0], [1.0, 1.0]]),
        ]
        with np.errstate(over="ignore"):
            result = characterize_ensemble(members, policy=policy)
        assert result.report.categories() == {1: "non-finite", 2: "non-finite"}
        assert result.report.quarantined == (1, 2)
        np.testing.assert_array_equal(
            result.mph[:1], characterize_ensemble([healthy]).mph
        )


class TestWorkerFaults:
    @pytest.mark.parametrize("ragged", [False, True])
    def test_raise_policy_sleeps_the_stall_once(self, base_stack, ragged):
        import time

        members = (
            [*base_stack[:3], base_stack[3, :3]] if ragged else base_stack
        )
        baseline = characterize_ensemble(members)
        plan = FaultPlan(
            faults=(FaultSpec(kind="stall", member=1, stall_s=0.3),)
        )
        start = time.monotonic()
        result = characterize_ensemble(members, fault_plan=plan)
        elapsed = time.monotonic() - start
        assert 0.3 <= elapsed < 0.6
        _assert_healthy_bit_identical(result, baseline, range(len(result)))

    @pytest.mark.slow
    def test_stall_times_out_and_is_quarantined(self, base_stack):
        import time

        plan = FaultPlan.random(8, faults="stall=1", seed=4, stall_s=5.0)
        baseline = characterize_ensemble(base_stack, max_iterations=MAX_ITER)
        start = time.monotonic()
        result = characterize_ensemble(
            base_stack,
            policy="quarantine",
            fault_plan=plan,
            budget=Budget(member_timeout_s=0.75),
            n_jobs=2,
            max_iterations=MAX_ITER,
        )
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, "stalled worker must not block the pipeline"
        assert result.report.categories() == plan.expected_categories()
        assert result.report.categories()[plan.stalled[0]] == "timeout"
        _assert_healthy_bit_identical(
            result, baseline, healthy_indices(8, plan)
        )

    def test_each_member_has_its_own_clock(self, base_stack):
        # Both stalled members start at once on two workers, so both
        # run past the timeout; a clock that started when the caller
        # began waiting on the second one would let it through.
        plan = FaultPlan(
            faults=tuple(
                FaultSpec(kind="stall", member=member, stall_s=0.8)
                for member in (0, 1)
            )
        )
        result = characterize_ensemble(
            base_stack,
            policy="quarantine",
            fault_plan=plan,
            budget=Budget(member_timeout_s=0.5),
            n_jobs=2,
            max_iterations=MAX_ITER,
        )
        assert result.report.categories() == {0: "timeout", 1: "timeout"}

    def test_members_stalled_on_every_worker_do_not_block_the_rest(
        self, base_stack
    ):
        # Two members stall far past the timeout and hold both workers
        # after they are given up; the other six still run, promptly.
        import time

        plan = FaultPlan(
            faults=tuple(
                FaultSpec(kind="stall", member=member, stall_s=60.0)
                for member in (0, 1)
            )
        )
        # Ragged input: all eight members go through the pool.
        members = ragged(base_stack)
        baseline = characterize_ensemble(members, max_iterations=MAX_ITER)
        start = time.monotonic()
        result = characterize_ensemble(
            members,
            policy="quarantine",
            fault_plan=plan,
            budget=Budget(member_timeout_s=0.3),
            n_jobs=2,
            max_iterations=MAX_ITER,
        )
        assert time.monotonic() - start < 10.0
        assert result.report.categories() == {0: "timeout", 1: "timeout"}
        _assert_healthy_bit_identical(result, baseline, range(2, 8))

    @pytest.mark.slow
    def test_stall_without_timeout_completes(self, base_stack):
        # No timeout budget: the straggler is simply slow, not faulty.
        plan = FaultPlan.random(8, faults="stall=1", seed=4, stall_s=0.5)
        result = characterize_ensemble(
            base_stack,
            policy="quarantine",
            fault_plan=plan,
            n_jobs=2,
            max_iterations=MAX_ITER,
        )
        assert not result.report
        assert result.converged.all()
