"""Stated outcomes for numeric edge cases on every Sinkhorn entry point.

* Finite entries whose row or column sums overflow are rejected before
  the first iteration with a structured error that says to rescale —
  never a loop of NaN iterates ending in a misleading ConvergenceError.
* So are positive entries whose line sums are so small that the first
  scaling factor ``target / sum`` overflows: scalar multiples of a
  matrix that converges in one iteration, which used to run 100,000
  NaN iterations before failing.
* Section VI's non-normalizable patterns (eq. 10, Fig. 4's A) run to
  ``max_iterations`` warning-free: the matrix iterates and the
  diverging diagonal scales stay finite at that budget.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro
from repro.batch import sinkhorn_knopp_batched
from repro.exceptions import MatrixValueError
from repro.normalize import scale_to_margins, sinkhorn_knopp

#: Finite entries (they pass validation) whose line sums overflow.
OVERFLOWING = np.full((2, 2), 1e308)

EQ10 = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
FIG4_A = np.array([[10.0, 0.0], [9.0, 1.0]])

@pytest.mark.filterwarnings("error")
class TestOverflowingSums:
    def test_scalar_rejected_at_entry(self):
        with pytest.raises(MatrixValueError, match="overflow.*rescale"):
            sinkhorn_knopp(OVERFLOWING)

    def test_margins_rejected_at_entry(self):
        with pytest.raises(MatrixValueError, match="overflow.*rescale"):
            scale_to_margins(OVERFLOWING, [1.0, 1.0], [1.0, 1.0])

    def test_batched_rejected_naming_the_slice(self):
        stack = np.stack([np.ones((2, 2)), OVERFLOWING])
        with pytest.raises(
            MatrixValueError, match=r"slice\(s\) \[1\].*rescale"
        ):
            sinkhorn_knopp_batched(stack)

    def test_characterize_rejected_at_entry(self):
        with pytest.raises(MatrixValueError, match="rescale"):
            repro.characterize(OVERFLOWING)

    def test_large_but_summable_entries_still_scale(self):
        result = sinkhorn_knopp(np.full((2, 2), 1e307))
        assert result.converged
        np.testing.assert_allclose(result.matrix, 0.5)
        # Entries past float32's range (~3.4e38), alone and as one
        # slice of a stack, converge in float64 like any other.
        rng = np.random.default_rng(3)
        huge = sinkhorn_knopp(rng.uniform(1e39, 5e39, size=(4, 3)))
        assert huge.converged and huge.max_sum_error() <= 1e-8
        stack = rng.uniform(0.5, 5.0, size=(4, 5, 3))
        stack[2] *= 1e39
        assert repro.standardize_batched(stack).converged.all()


#: Positive entries whose line sums are subnormal: 1 / sum overflows.
TINY = np.full((2, 2), 1e-320)

TOO_SMALL = "too small to scale.*rescale"


class TestTinySums:
    """Rejected at entry, silently (no RuntimeWarning from the check)."""

    def setup_method(self):
        self._warnings = warnings.catch_warnings()
        self._warnings.__enter__()
        warnings.simplefilter("error")

    def teardown_method(self):
        self._warnings.__exit__(None, None, None)

    def test_scalar_rejected_at_entry(self):
        with pytest.raises(MatrixValueError, match=TOO_SMALL):
            sinkhorn_knopp(TINY)

    def test_margins_rejected_at_entry(self):
        with pytest.raises(MatrixValueError, match=TOO_SMALL):
            scale_to_margins(TINY, [1.0, 1.0], [1.0, 1.0])

    def test_batched_rejected_naming_the_slices(self):
        stack = np.stack([np.ones((2, 2)), TINY, TINY])
        with pytest.raises(
            MatrixValueError, match=r"slice\(s\) \[1, 2\].*rescale"
        ):
            sinkhorn_knopp_batched(stack)

    def test_characterize_rejected_at_entry(self):
        with pytest.raises(MatrixValueError, match=TOO_SMALL):
            repro.characterize(np.full((3, 3), 1e-310))

    def test_small_but_scalable_entries_still_scale(self):
        result = sinkhorn_knopp(np.full((2, 2), 1e-300))
        assert result.converged
        np.testing.assert_allclose(result.matrix, 0.5)


@pytest.mark.parametrize("matrix", [EQ10, FIG4_A], ids=["eq10", "fig4_A"])
class TestNonNormalizablePatterns:
    BUDGET = 1000

    def _check(self, result):
        assert not np.asarray(result.converged).any()
        assert np.all(np.asarray(result.iterations) == self.BUDGET)
        for values in (result.matrix, result.row_scale, result.col_scale):
            assert np.isfinite(values).all()

    def test_scalar_runs_budget_without_warnings(self, matrix):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = sinkhorn_knopp(
                matrix, max_iterations=self.BUDGET, require_convergence=False
            )
        self._check(result)

    def test_batched_runs_budget_without_warnings(self, matrix):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = sinkhorn_knopp_batched(
                matrix[None],
                max_iterations=self.BUDGET,
                require_convergence=False,
            )
        self._check(result)
