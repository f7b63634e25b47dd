"""Tests for the exact (Menon-theorem) normalizability test."""

import numpy as np
import pytest
from scipy.optimize import linprog

from repro import ConvergenceError
from repro.normalize import sinkhorn_knopp
from repro.structure import (
    is_fully_indecomposable,
    is_normalizable,
    normalizability_report,
)


class TestKnownCases:
    def test_positive_matrix(self):
        assert is_normalizable(np.ones((3, 4)))

    def test_eq10_not_normalizable(self, eq10_matrix):
        assert not is_normalizable(eq10_matrix)

    def test_eq10_blocking_edge(self, eq10_matrix):
        report = normalizability_report(eq10_matrix)
        assert report.feasible
        assert not report.normalizable
        assert report.blocking_edges == ((1, 2),)

    def test_diagonal_exception(self):
        """The paper's point: decomposable but normalizable."""
        diag = np.diag([2.0, 5.0, 11.0])
        assert not is_fully_indecomposable(diag)
        assert is_normalizable(diag)

    def test_permutation_matrix(self):
        assert is_normalizable(np.eye(4)[[1, 3, 0, 2]])

    def test_triangular_not_normalizable(self):
        assert not is_normalizable([[1.0, 1.0], [0.0, 1.0]])

    def test_zero_row_infeasible(self):
        report = normalizability_report([[0, 0], [1, 1]])
        assert not report.feasible
        assert not report.normalizable

    def test_rectangular_positive(self):
        assert is_normalizable(np.ones((2, 5)))

    def test_rectangular_block(self):
        # Tasks {0,1} only on machine 0, task 2 everywhere: machine 0
        # would need 2/3 of the total while demanding 1/3.
        matrix = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        assert not is_normalizable(matrix)

    def test_balanced_rectangular_blocks(self):
        # 4 tasks, 2 machines, tasks split evenly -> normalizable.
        matrix = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        assert is_normalizable(matrix)

    def test_unbalanced_rectangular_blocks(self):
        # 3 tasks on machine 1 vs 1 task on machine 2: row sums must be
        # equal, so machine 1's column sum is forced to 3x machine 2's.
        matrix = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert not is_normalizable(matrix)


class TestAgainstSinkhornOracle:
    """The ground truth: the iteration itself.  A pattern is normalizable
    iff Sinkhorn converges *and* preserves the zero pattern (entries that
    decay to ~0 indicate the limit lives on a smaller pattern)."""

    @pytest.mark.parametrize("seed", range(25))
    def test_random_square_patterns(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        pattern = rng.random((n, n)) < 0.6
        for i in range(n):
            if not pattern[i].any():
                pattern[i, rng.integers(n)] = True
            if not pattern[:, i].any():
                pattern[rng.integers(n), i] = True
        matrix = np.where(pattern, rng.uniform(0.5, 2.0, (n, n)), 0.0)
        predicted = is_normalizable(matrix)
        try:
            result = sinkhorn_knopp(matrix, max_iterations=30_000)
            pattern_kept = (result.matrix > 1e-6).sum() == pattern.sum()
            converged_cleanly = pattern_kept
        except ConvergenceError:
            converged_cleanly = False
        assert predicted == converged_cleanly, matrix

    @pytest.mark.parametrize("seed", range(15))
    def test_random_rectangular_patterns(self, seed):
        rng = np.random.default_rng(1000 + seed)
        t = int(rng.integers(2, 6))
        m = int(rng.integers(2, 6))
        pattern = rng.random((t, m)) < 0.6
        for i in range(t):
            if not pattern[i].any():
                pattern[i, rng.integers(m)] = True
        for j in range(m):
            if not pattern[:, j].any():
                pattern[rng.integers(t), j] = True
        matrix = np.where(pattern, rng.uniform(0.5, 2.0, (t, m)), 0.0)
        predicted = is_normalizable(matrix)
        try:
            result = sinkhorn_knopp(matrix, max_iterations=30_000)
            converged_cleanly = (
                (result.matrix > 1e-6).sum() == pattern.sum()
            )
        except ConvergenceError:
            converged_cleanly = False
        assert predicted == converged_cleanly, matrix


def _lp_blocking_edges(pattern):
    """Feasibility and blocking edges from linear programs alone.

    Flow runs on pattern edges only; rows supply M and columns demand T.
    Each edge not yet seen carrying flow gets its own LP that maximises
    its flow over that polytope; an edge whose maximum is 0 blocks.
    """
    n_rows, n_cols = pattern.shape
    rows, cols = np.nonzero(pattern)
    if rows.size == 0:
        return False, ()
    a_eq = np.vstack([
        rows == np.arange(n_rows)[:, None],
        cols == np.arange(n_cols)[:, None],
    ]).astype(float)
    b_eq = np.r_[np.full(n_rows, n_cols), np.full(n_cols, n_rows)]
    carried = np.zeros(rows.size, dtype=bool)
    blocking = np.zeros(rows.size, dtype=bool)
    for edge in range(rows.size):
        if carried[edge]:
            continue
        c = np.zeros(rows.size)
        c[edge] = -1.0
        result = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                         method="highs")
        if result.status == 2:
            return False, ()
        assert result.status == 0, result.message
        # Vertices of an integral transportation polytope are integral,
        # so any positive flow is at least 1.
        carried |= result.x > 0.5
        blocking[edge] = not carried[edge]
    return True, tuple(zip(rows[blocking].tolist(), cols[blocking].tolist()))


class TestAgainstLinearProgram:
    """``blocking_edges`` against an oracle that shares no flow code."""

    @pytest.mark.parametrize("seed", range(48))
    def test_random_patterns(self, seed):
        rng = np.random.default_rng(3000 + seed)
        if seed % 4 == 2:
            # A square pattern with each column repeated: rectangular,
            # and its blocking structure survives the repeat.
            n, k = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            shape, repeat = (n, n), (1, k)
        else:
            shape = tuple(int(n) for n in rng.integers(1, 8, size=2))
            if seed % 2:
                shape = (shape[0], shape[0])
            repeat = (1, 1)
        pattern = rng.random(shape) < rng.choice([0.4, 0.6, 0.8])
        if seed % 5:  # most seeds fill their empty lines
            for i in np.flatnonzero(~pattern.any(axis=1)):
                pattern[i, rng.integers(shape[1])] = True
            for j in np.flatnonzero(~pattern.any(axis=0)):
                pattern[rng.integers(shape[0]), j] = True
        pattern = np.kron(pattern, np.ones(repeat, dtype=bool))
        if seed % 3 == 0:
            pattern = pattern.T
        feasible, blocking = _lp_blocking_edges(pattern)
        report = normalizability_report(pattern)
        assert report.feasible == feasible, pattern.astype(int)
        assert report.blocking_edges == blocking, pattern.astype(int)
        assert report.normalizable == (feasible and not blocking)


class TestSufficiencyRelation:
    @pytest.mark.parametrize("seed", range(15))
    def test_fully_indecomposable_implies_normalizable(self, seed):
        """Marshall–Olkin: the paper's sufficient condition."""
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(2, 6))
        pattern = rng.random((n, n)) < 0.7
        if is_fully_indecomposable(pattern):
            assert is_normalizable(pattern)
