"""Tests for the pattern repair planner."""

import numpy as np
import pytest

from repro import MatrixValueError
from repro.structure import is_normalizable, suggest_repairs


class TestDropStrategy:
    def test_eq10_single_drop(self, eq10_matrix):
        plan = suggest_repairs(eq10_matrix, strategy="drop")
        assert plan.entries == ((1, 2),)
        assert not plan.already_normalizable
        assert is_normalizable(plan.apply(eq10_matrix))

    def test_apply_zeroes_entries(self, eq10_matrix):
        plan = suggest_repairs(eq10_matrix, strategy="drop")
        repaired = plan.apply(eq10_matrix)
        assert repaired[1, 2] == 0.0
        # Untouched entries survive.
        assert repaired[1, 0] == eq10_matrix[1, 0]

    def test_triangular(self):
        tri = np.triu(np.ones((4, 4)))
        plan = suggest_repairs(tri, strategy="drop")
        repaired = plan.apply(tri)
        assert is_normalizable(repaired)
        # The diagonal survives (it is the only total-support part).
        assert (np.diag(repaired) == 1.0).all()

    def test_already_normalizable_noop(self):
        plan = suggest_repairs(np.ones((3, 3)), strategy="drop")
        assert plan.already_normalizable
        assert plan.entries == ()

    def test_infeasible_margins_rejected(self):
        # Two rows confined to one shared column: dropping can never
        # fix the margin deficit.
        pattern = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(MatrixValueError):
            suggest_repairs(pattern, strategy="drop")


class TestAddStrategy:
    def test_eq10_single_add(self, eq10_matrix):
        plan = suggest_repairs(eq10_matrix, strategy="add")
        assert len(plan.entries) == 1
        assert is_normalizable(plan.apply(eq10_matrix))

    def test_added_entries_were_zero(self, eq10_matrix):
        plan = suggest_repairs(eq10_matrix, strategy="add")
        for i, j in plan.entries:
            assert eq10_matrix[i, j] == 0.0

    def test_apply_uses_fill(self, eq10_matrix):
        plan = suggest_repairs(eq10_matrix, strategy="add")
        repaired = plan.apply(eq10_matrix, fill=2.5)
        i, j = plan.entries[0]
        assert repaired[i, j] == 2.5

    def test_infeasible_margins_repairable(self):
        pattern = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        plan = suggest_repairs(pattern, strategy="add")
        assert is_normalizable(plan.apply(pattern))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_patterns_repaired(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 6))
        pattern = (rng.random((n, n)) < 0.4).astype(float)
        # Keep every row/column occupied so the pattern is a valid ECS.
        for i in range(n):
            if not pattern[i].any():
                pattern[i, rng.integers(n)] = 1.0
            if not pattern[:, i].any():
                pattern[rng.integers(n), i] = 1.0
        plan = suggest_repairs(pattern, strategy="add")
        assert is_normalizable(plan.apply(pattern))

    @pytest.mark.parametrize("shape", [(9, 9), (4, 30)])
    def test_single_nonzero_repaired(self, shape):
        # No single flip makes these feasible, so the plan must make
        # progress on the flow deficit rather than run out of steps.
        pattern = np.zeros(shape)
        pattern[0, 0] = 1.0
        plan = suggest_repairs(pattern, strategy="add")
        assert is_normalizable(plan.apply(pattern))

    def test_unknown_strategy(self, eq10_matrix):
        with pytest.raises(MatrixValueError):
            suggest_repairs(eq10_matrix, strategy="rebuild")
