"""Backends vs the numpy reference: conformance-table rows
(``tests/test_conformance.py``) under their earlier names.  The
non-reference backend is the documented ``LoopBackend``
(docs/BACKENDS.md), held to the reference within its ``tolerance`` by
the table's ``@loop`` rows.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.backends import get_backend
from repro.normalize import sinkhorn_knopp, standardize
from tests.conftest import ecs_matrices

from ..batch.conftest import ecs_stacks
from ..test_conformance import CORPUS, Case, check_row


class TestScalarEquivalence:
    def test_sinkhorn_matches_reference(self, loop_backend):
        @settings(max_examples=25, deadline=None)
        @given(ecs=ecs_matrices(min_side=2, max_side=6))
        def rows(ecs):
            for path in ("sinkhorn_knopp_batched", "sinkhorn_knopp_batched@loop"):
                check_row(Case(ecs[None]), path)

        rows()

    def test_numpy_backend_is_bit_identical_to_legacy(self):
        # tolerance 0.0 is a claim, not a slogan: the default backend is
        # the numpy reference, so its iterates are bit-equal.
        rng = np.random.default_rng(11)
        ecs = rng.uniform(0.1, 10.0, size=(12, 7))
        a = sinkhorn_knopp(ecs)
        b = sinkhorn_knopp(ecs, backend="numpy")
        assert (a.matrix == b.matrix).all()
        assert a.residual_history == b.residual_history

    @pytest.mark.parametrize("backend", ["numpy"])
    def test_spec_golden_measures(self, backend):
        for dataset in ("cint2006rate", "cfp2006rate"):
            check_row(CORPUS[dataset], "characterize_ensemble[raise]")

    @pytest.mark.parametrize("backend", ["numpy", "loop"])
    def test_svd_values_match(self, backend, request):
        if backend == "loop":
            request.getfixturevalue("loop_backend")
        rng = np.random.default_rng(12)
        matrix = standardize(rng.uniform(0.5, 5.0, size=(9, 6))).matrix
        reference = get_backend("numpy").svd_values(matrix)
        values = get_backend(backend).svd_values(matrix)
        np.testing.assert_allclose(values, reference, atol=1e-10)


class TestBatchedEquivalence:
    def test_standardize_batched_matches_reference(self, loop_backend):
        @settings(max_examples=20, deadline=None)
        @given(stack=ecs_stacks(min_side=2, max_side=5))
        def rows(stack):
            case = Case(stack)
            for path in ("standardize_batched[raise]",
                         "standardize_batched[raise]@loop"):
                check_row(case, path)

        rows()

    @pytest.mark.parametrize("backend", ["numpy"])
    def test_fused_measures_match(self, backend):
        check_row(CORPUS["positive"], "characterize_ensemble[raise]")
