"""Batched kernels vs the scalar reference: conformance-table rows
(``tests/test_conformance.py``) under their earlier names, and the
checks a row cannot make.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings

from repro.batch import sinkhorn_knopp_batched
from repro.exceptions import ConvergenceError, MatrixValueError
from repro.normalize import sinkhorn_knopp

from ..test_conformance import (CAPPED, CORPUS, REFERENCE, Case, check_row, compare,
                                run_row)
from .conftest import ecs_stacks


def check_columns(case, *columns, path="characterize_ensemble[raise]"):
    """Only ``columns`` of ``path`` agree with the scalar functions."""
    members, got = run_row(path, case)
    compare((members, {c: got[c] for c in columns}),
            run_row(REFERENCE["functions"], case), 0.0, path)


class TestSinkhornDifferential:
    @settings(max_examples=40, deadline=None)
    @given(stack=ecs_stacks())
    def test_positive_stacks_match_scalar(self, stack):
        check_row(Case(stack), "sinkhorn_knopp_batched")

    @settings(max_examples=40, deadline=None)
    @given(stack=ecs_stacks(positive_only=False))
    def test_zero_patterns_match_scalar(self, stack):
        check_row(Case(stack, cap=CAPPED), "sinkhorn_knopp_batched")

    @settings(max_examples=20, deadline=None)
    @given(stack=ecs_stacks(max_side=4))
    def test_slice_bridge_matches_scalar_result(self, stack):
        check_row(Case(stack), "sinkhorn_knopp_batched.slice")

    def test_non_convergent_raises_with_slice_indices(self):
        """The batch names the slices the scalar fails to converge."""
        stack = CORPUS["eq10"].stack
        failing = []
        for i, member in enumerate(stack):
            try:
                sinkhorn_knopp(member, max_iterations=CAPPED)
            except ConvergenceError:
                failing.append(i)
        with pytest.raises(ConvergenceError,
                           match=re.escape(f"first failing slices: {failing}")):
            sinkhorn_knopp_batched(stack, max_iterations=CAPPED)

    def test_validation_mirrors_scalar(self):
        """The batch refuses a stack with the error type the scalar
        gives its offending member, and names the slice."""
        zero_row = np.ones((2, 3, 3))
        zero_row[1, 2, :] = 0.0
        cases = [(-np.ones((2, 2, 2)), {}), (np.full((1, 2, 2), np.inf), {}),
                 (zero_row, {}),
                 (np.ones((1, 2, 2)), dict(row_target=1.0, col_target=3.0))]
        for stack, options in cases:
            with pytest.raises(MatrixValueError) as scalar:
                sinkhorn_knopp(stack[-1], **options)
            with pytest.raises(MatrixValueError) as batched:
                sinkhorn_knopp_batched(stack, **options)
            assert type(batched.value) is type(scalar.value)
        with pytest.raises(MatrixValueError, match=r"slice\(s\) \[1\]"):
            sinkhorn_knopp_batched(zero_row)


class TestStandardizeDifferential:
    @settings(max_examples=30, deadline=None)
    @given(stack=ecs_stacks())
    def test_standard_form_matches_scalar(self, stack):
        check_row(Case(stack), "standardize_batched[raise]")

    def test_partial_convergence_mask(self):
        # Eq. 10 between two positives: only the middle member runs to
        # the cap unconverged.
        _, columns = run_row("standardize_batched[raise]", CORPUS["eq10"])
        assert columns["converged"].tolist() == [True, False, True]


class TestHalfStackThreshold:
    """The ``stragglers`` corpus: 17 of 32 members converge slowly, so
    the core scales the whole stack in place until all but 16 of them
    stop, then iterates a compact copy of the rest."""

    def test_every_slice_matches_its_lone_run(self):
        """The slow members stop at several iterations, so the rows
        cross the half-stack switch."""
        check_row(CORPUS["stragglers"], "sinkhorn_knopp_batched")
        _, columns = run_row("sinkhorn_knopp", CORPUS["stragglers"])
        iterations = np.asarray(columns["iterations"])
        assert (iterations > 2 * iterations.min()).sum() == 17
        assert len(set(iterations.tolist())) > 2

    def test_fused_pass_matches_lone_characterize(self):
        check_row(CORPUS["stragglers"], "characterize_ensemble[raise]")


class TestMeasureDifferential:
    @settings(max_examples=40, deadline=None)
    @given(stack=ecs_stacks())
    def test_mph_matches_scalar(self, stack):
        check_columns(Case(stack), "mph")

    @settings(max_examples=40, deadline=None)
    @given(stack=ecs_stacks())
    def test_tdh_matches_scalar(self, stack):
        check_columns(Case(stack), "tdh")

    @settings(max_examples=30, deadline=None)
    @given(stack=ecs_stacks())
    def test_tma_matches_scalar(self, stack):
        check_columns(Case(stack), "tma")

    @settings(max_examples=30, deadline=None)
    @given(stack=ecs_stacks(positive_only=False, min_side=2))
    def test_mph_tdh_with_zero_patterns(self, stack):
        """MPH/TDH need no standard form, so they batch for any valid
        zero pattern, decomposable and infeasible members included."""
        check_columns(Case(stack, cap=CAPPED), "mph", "tdh")
