"""A stack's memory layout never changes a batched result.

Fortran-ordered, reversed and strided inputs, below and above the
member count from which the working copy is member-last, give the
result of their C copy bit for bit: the scaling, the standard form
under every policy and from a warm start, and the ensemble columns
(whose MPH and TDH come from the input's own line sums).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.base import MEMBER_LAST_MIN
from repro.batch import (characterize_ensemble, sinkhorn_knopp_batched,
                         standardize_batched)

SCALING = ("matrix", "row_scale", "col_scale", "iterations", "converged", "residual")
PROFILE = ("mph", "tdh", "tma", "iterations", "converged", "batched")
LAYOUTS = {
    "fortran": np.asfortranarray,
    "reversed": lambda stack: np.ascontiguousarray(stack[::-1])[::-1],
    "strided": lambda stack: np.repeat(stack, 2, axis=1)[:, ::2],
}
MEMBERS = (MEMBER_LAST_MIN // 4, 2 * MEMBER_LAST_MIN)


def _stack(n, seed=0):
    return np.random.default_rng([n, seed]).uniform(0.5, 10.0, (n, 12, 6))


def _faulty(n):
    stack = _stack(n, seed=1)
    stack[3, 2, 1] = np.nan
    stack[n - 2, 4] = 0.0
    return stack


def _same(got, want, fields):
    for name in fields:
        a, b = getattr(got, name), getattr(want, name)
        a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
        assert a.tobytes() == b.tobytes(), name
    if "matrix" in fields:
        assert got.residual_history == want.residual_history
    if getattr(want, "report", None) is not None:
        assert got.report == want.report


def _runs(n):
    cold = standardize_batched(_stack(n, seed=2))
    return {
        "sinkhorn_knopp_batched": (
            _stack(n), lambda s: sinkhorn_knopp_batched(s), SCALING),
        "standardize_batched[raise]": (
            _stack(n), lambda s: standardize_batched(s), SCALING),
        "standardize_batched[quarantine]": (
            _faulty(n), lambda s: standardize_batched(s, policy="quarantine"), SCALING),
        "standardize_batched[warm]": (
            _stack(n, seed=2) * 1.001,
            lambda s: standardize_batched(s, warm_start=cold), SCALING),
        "characterize_ensemble[raise]": (
            _stack(n), lambda s: characterize_ensemble(s), PROFILE),
        "characterize_ensemble[quarantine]": (
            _faulty(n), lambda s: characterize_ensemble(s, policy="quarantine"),
            PROFILE),
    }


RUNS = sorted(_runs(MEMBERS[0]))


@pytest.mark.parametrize("n", MEMBERS)
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("run", RUNS)
def test_layout_gives_the_c_copy_result(run, layout, n):
    stack, call, fields = _runs(n)[run]
    view = LAYOUTS[layout](stack)
    assert np.array_equal(view, stack, equal_nan=True)
    assert not view.flags.c_contiguous
    _same(call(view), call(stack), fields)
