"""Metamorphic scale-invariance tests.

MPH, TDH and TMA are scale-invariant by construction (paper
Section II): multiplying an entire ETC/ECS matrix by any positive
constant must leave all three measures unchanged.  These tests assert
the relation to 1e-12 on the scalar path, the batched path (each slice
scaled by its own constant) and straight through quarantine/repair.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ETCMatrix, characterize
from repro.batch import characterize_ensemble
from repro.robust import FaultPlan
from tests.conftest import ecs_matrices

from .conftest import healthy_indices, ragged

ATOL = 1e-12
scale_constants = st.floats(
    min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False
)


def _profiles_match(a, b) -> None:
    assert a.mph == pytest.approx(b.mph, abs=ATOL)
    assert a.tdh == pytest.approx(b.tdh, abs=ATOL)
    assert a.tma == pytest.approx(b.tma, abs=ATOL)


class TestScalarScaleInvariance:
    @given(ecs_matrices(min_side=2, max_side=5), scale_constants)
    @settings(max_examples=40, deadline=None)
    def test_ecs_scaling(self, ecs, c):
        _profiles_match(characterize(ecs), characterize(c * ecs))

    @given(ecs_matrices(min_side=2, max_side=5), scale_constants)
    @settings(max_examples=25, deadline=None)
    def test_etc_scaling(self, ecs, c):
        etc = 1.0 / ecs
        _profiles_match(
            characterize(ETCMatrix(etc)), characterize(ETCMatrix(c * etc))
        )

    @given(ecs_matrices(min_side=2, max_side=5, positive_only=False))
    @settings(max_examples=25, deadline=None)
    def test_scaling_with_zero_pattern(self, ecs):
        # Zeros stay zeros under scaling; the limit-TMA path must be
        # just as invariant as the exact path.
        _profiles_match(characterize(ecs), characterize(512.0 * ecs))


class TestBatchedScaleInvariance:
    def _per_slice_scaled(self, stack, seed=0):
        rng = np.random.default_rng(seed)
        constants = rng.uniform(1e-2, 1e2, size=stack.shape[0])
        return stack * constants[:, None, None], constants

    def test_per_slice_constants(self, base_stack):
        scaled, _ = self._per_slice_scaled(base_stack)
        a = characterize_ensemble(base_stack)
        b = characterize_ensemble(scaled)
        np.testing.assert_allclose(a.mph, b.mph, atol=ATOL, rtol=0)
        np.testing.assert_allclose(a.tdh, b.tdh, atol=ATOL, rtol=0)
        np.testing.assert_allclose(a.tma, b.tma, atol=ATOL, rtol=0)

    def test_scalar_path_matches(self, base_stack):
        scaled, _ = self._per_slice_scaled(base_stack, seed=1)
        # Ragged input: every member takes the scalar path.
        a = characterize_ensemble(ragged(base_stack))
        b = characterize_ensemble(ragged(scaled))
        assert not a.batched.any() and not b.batched.any()
        np.testing.assert_allclose(a.mph, b.mph, atol=ATOL, rtol=0)
        np.testing.assert_allclose(a.tdh, b.tdh, atol=ATOL, rtol=0)
        np.testing.assert_allclose(a.tma, b.tma, atol=ATOL, rtol=0)


class TestScaleInvarianceThroughQuarantine:
    def test_quarantine_policy(self, base_stack):
        plan = FaultPlan.random(8, faults="nan=1,zero-row=1", seed=11)
        rng = np.random.default_rng(2)
        constants = rng.uniform(1e-2, 1e2, size=8)
        scaled = base_stack * constants[:, None, None]
        a = characterize_ensemble(
            base_stack, policy="quarantine", fault_plan=plan
        )
        b = characterize_ensemble(
            scaled, policy="quarantine", fault_plan=plan
        )
        assert a.report.categories() == b.report.categories()
        healthy = healthy_indices(8, plan)
        np.testing.assert_allclose(
            a.mph[healthy], b.mph[healthy], atol=ATOL, rtol=0
        )
        np.testing.assert_allclose(
            a.tdh[healthy], b.tdh[healthy], atol=ATOL, rtol=0
        )
        np.testing.assert_allclose(
            a.tma[healthy], b.tma[healthy], atol=ATOL, rtol=0
        )

    def test_repair_policy(self, base_stack):
        # Repairable structural fault; the repaired member's measures
        # must be scale-invariant too (repair fills with the median
        # positive entry, which scales along with the member).
        plan = FaultPlan.random(8, faults="zero-row=1", seed=17)
        rng = np.random.default_rng(3)
        constants = rng.uniform(1e-2, 1e2, size=8)
        scaled = base_stack * constants[:, None, None]
        a = characterize_ensemble(
            base_stack, policy="repair", fault_plan=plan
        )
        b = characterize_ensemble(scaled, policy="repair", fault_plan=plan)
        assert a.report.repaired == b.report.repaired == plan.members
        np.testing.assert_allclose(a.mph, b.mph, atol=ATOL, rtol=0)
        np.testing.assert_allclose(a.tdh, b.tdh, atol=ATOL, rtol=0)
        np.testing.assert_allclose(a.tma, b.tma, atol=ATOL, rtol=0)
