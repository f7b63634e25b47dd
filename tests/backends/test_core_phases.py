"""Every phase of the Sinkhorn core leaves each slice as it would be alone.

The core runs a stack in phases: the whole stack in place, then the
stack in place with its stopped slices held at factors of exactly 1.0,
then a compact copy of the slices still iterating.  Each phase sets up
its own line workspace (the column sums and one deviation buffer).  A
staggered stack crosses all three kinds, and every slice's matrix,
scales, iteration count, residual and residual history must equal those
of a run on that slice alone, bit for bit: with and without a recorded
trace, and when a deadline expires at the first check of a later phase.
"""

from __future__ import annotations

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro import sinkhorn_knopp
import repro.backends as kernels
from repro.normalize.sinkhorn import _scale_stack


def _staggered():
    # Off-diagonal blocks x1e-2 slow five of the eight slices down
    # (8-10 against 209-265 iterations), so the core runs 8 slices in
    # place, then 7, 6 and 5 with stopped slices, then 4 to 1 in a
    # compact copy.
    stack = np.random.default_rng(11).uniform(0.5, 10.0, (8, 8, 8))
    slow = [3, 4, 5, 6, 7]
    stack[slow, :4, 4:] *= 1e-2
    stack[slow, 4:, :4] *= 1e-2
    return stack


def _alone(stack, max_iterations):
    return [
        sinkhorn_knopp(matrix, max_iterations=max_iterations, require_convergence=False)
        for matrix in stack
    ]


def test_the_stack_crosses_every_kind_of_phase():
    iterations = [run.iterations for run in _alone(_staggered(), 100_000)]
    n = len(iterations)
    # Slices iterating in each phase: each phase ends when one stops.
    stops = sorted(set(iterations))[:-1]
    active = [sum(its > start for its in iterations) for start in [0, *stops]]
    assert active[0] == n
    assert any(n / 2 < k < n for k in active)
    assert any(k <= n / 2 for k in active)


# The deadline expires at the first check of the phase after the given
# iteration: 8 and 10 start in-place phases with stopped slices, 209 and
# 230 start compact copies.
@pytest.mark.parametrize("stop_after", [None, 8, 10, 209, 230])
@pytest.mark.parametrize("keep_history", [True, False])
def test_each_slice_equals_its_run_alone(monkeypatch, stop_after, keep_history):
    stack = _staggered()
    if stop_after is not None:
        checks = itertools.count(1)
        clock = SimpleNamespace(
            monotonic=lambda: -math.inf if next(checks) <= stop_after else math.inf
        )
        monkeypatch.setattr(kernels, "time", clock)
    batch = _scale_stack(
        stack.copy(),
        1.0,
        1.0,
        kind="batched",
        warm_start=None,
        tol=1e-8,
        max_iterations=100_000,
        require_convergence=False,
        deadline_s=None if stop_after is None else 3600.0,
        keep_history=keep_history,
    )
    alone = _alone(stack, stop_after or 100_000)
    if stop_after is not None:
        assert not batch.converged.all()
    for i, run in enumerate(alone):
        assert batch.matrix[i].tobytes() == run.matrix.tobytes()
        assert batch.row_scale[i].tobytes() == run.row_scale.tobytes()
        assert batch.col_scale[i].tobytes() == run.col_scale.tobytes()
        assert batch.iterations[i] == run.iterations
        assert batch.converged[i] == run.converged
        assert batch.residual[i] == run.residual
        if keep_history:
            assert batch.residual_history[i] == run.residual_history
    if not keep_history:
        assert batch.residual_history is None
