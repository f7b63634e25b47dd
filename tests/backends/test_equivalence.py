"""Differential equivalence harness: every backend vs the numpy reference.

Each registered backend must reproduce the numpy reference backend's
results to within ``max(1e-10, backend.tolerance)`` per entry — the
reference itself at tolerance 0.0 (bit-equal by construction, since it
*is* the extracted legacy loop), numba at its documented 1e-10
(sequential summation order differs from numpy's pairwise reductions).

The harness is parametrized over ``list_backends()``, so installing an
optional backend (numba) automatically widens the matrix; when it is
not importable the backend never registers and its leg simply does not
exist — no skip bookkeeping needed beyond the explicit availability
test in ``test_registry.py``.
"""

from __future__ import annotations

import importlib.util

import numpy as np
import pytest
from hypothesis import given, settings

from repro.backends import get_backend, list_backends
from repro.batch import standardize_batched
from repro.measures import characterize
from repro.normalize import sinkhorn_knopp, standardize
from repro.spec import load_dataset
from tests.conftest import ecs_matrices

from ..batch.conftest import ecs_stacks

SPEC_DATASETS = ("cint2006rate", "cfp2006rate")


def tolerance_of(name: str) -> float:
    return max(1e-10, get_backend(name).tolerance)


@pytest.fixture(params=list_backends())
def backend_name(request) -> str:
    return request.param


class TestScalarEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(ecs=ecs_matrices(min_side=2, max_side=6))
    def test_sinkhorn_matches_reference(self, ecs):
        for name in list_backends():
            reference = sinkhorn_knopp(ecs, backend="numpy")
            result = sinkhorn_knopp(ecs, backend=name)
            assert result.converged == reference.converged
            np.testing.assert_allclose(
                result.matrix,
                reference.matrix,
                rtol=0,
                atol=tolerance_of(name),
            )
            np.testing.assert_allclose(
                result.row_scale,
                reference.row_scale,
                rtol=tolerance_of(name) + 1e-12,
            )

    def test_numpy_backend_is_bit_identical_to_legacy(self):
        # tolerance 0.0 is a claim, not a slogan: the numpy backend is
        # the extracted legacy loop, so its iterates are bit-equal.
        rng = np.random.default_rng(11)
        ecs = rng.uniform(0.1, 10.0, size=(12, 7))
        a = sinkhorn_knopp(ecs)
        b = sinkhorn_knopp(ecs, backend="numpy")
        assert (a.matrix == b.matrix).all()
        assert a.residual_history == b.residual_history

    def test_spec_golden_measures(self, backend_name):
        for dataset in SPEC_DATASETS:
            env = load_dataset(dataset)
            reference = characterize(env, backend="numpy")
            profile = characterize(env, backend=backend_name)
            tol = tolerance_of(backend_name)
            assert profile.mph == pytest.approx(reference.mph, abs=tol)
            assert profile.tdh == pytest.approx(reference.tdh, abs=tol)
            assert profile.tma == pytest.approx(reference.tma, abs=1e-8)
            assert (
                profile.sinkhorn_iterations == reference.sinkhorn_iterations
            )

    def test_svd_values_match(self, backend_name):
        rng = np.random.default_rng(12)
        matrix = standardize(rng.uniform(0.5, 5.0, size=(9, 6))).matrix
        reference = get_backend("numpy").svd_values(matrix)
        values = get_backend(backend_name).svd_values(matrix)
        np.testing.assert_allclose(values, reference, atol=1e-10)


class TestBatchedEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(stack=ecs_stacks(min_side=2, max_side=5))
    def test_standardize_batched_matches_reference(self, stack):
        for name in list_backends():
            reference = standardize_batched(stack, backend="numpy")
            result = standardize_batched(stack, backend=name)
            np.testing.assert_array_equal(
                result.converged, reference.converged
            )
            np.testing.assert_array_equal(
                result.iterations, reference.iterations
            )
            np.testing.assert_allclose(
                result.matrix,
                reference.matrix,
                rtol=0,
                atol=tolerance_of(name),
            )

    def test_fused_measures_match(self, backend_name):
        rng = np.random.default_rng(13)
        stack = rng.uniform(0.2, 8.0, size=(6, 7, 4))
        reference = get_backend("numpy").fused_standard_measures(
            stack, tol=1e-8, max_iterations=10_000,
            deadline_s=None, warm_start=None,
        )
        result = get_backend(backend_name).fused_standard_measures(
            stack, tol=1e-8, max_iterations=10_000,
            deadline_s=None, warm_start=None,
        )
        tol = tolerance_of(backend_name)
        for got, want in zip(result[:3], reference[:3]):
            np.testing.assert_allclose(got, want, rtol=0, atol=tol)
        np.testing.assert_array_equal(result[3], reference[3])
        np.testing.assert_array_equal(result[4], reference[4])


@pytest.mark.skipif(
    importlib.util.find_spec("numba") is None,
    reason="numba not installed (optional backend)",
)
class TestNumbaLeg:
    """Exercised only when numba is installed (the CI matrix leg)."""

    def test_numba_backend_registered(self):
        assert "numba" in list_backends()
        assert get_backend("numba").tolerance == 1e-10

    def test_numba_scalar_documented_tolerance(self):
        rng = np.random.default_rng(14)
        ecs = rng.uniform(0.1, 10.0, size=(10, 6))
        reference = sinkhorn_knopp(ecs, backend="numpy")
        result = sinkhorn_knopp(ecs, backend="numba")
        assert result.converged
        np.testing.assert_allclose(
            result.matrix, reference.matrix, rtol=0, atol=1e-10
        )
