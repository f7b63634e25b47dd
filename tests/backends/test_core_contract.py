"""The Sinkhorn core contract: ``trace`` is optional, and a NaN slice
is its own business.

A caller that never reads residual histories passes ``trace=None``
(the ensemble, store and serve passes do), and the core must then leave
exactly the in-place state it leaves when it records a trace.  When it
does record one, the chunks hold each slice's residuals in order.  A
slice whose iterates are NaN keeps a NaN residual, never counts as
converged, and leaves every other slice as a run without it would.
Checked on a C-ordered and a member-last stack, on the library's core
and on the documented loop reference core (docs/BACKENDS.md), which
iterates slice by slice.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.backends as kernels
from repro.backends.base import (
    MEMBER_LAST_MIN,
    residual_histories,
    residuals,
    working_copy,
)

# The slice that starts stopped, and the slice the NaN test poisons.
STOPPED, POISONED = 3, 6


def _state(stack, stopped=STOPPED):
    """Core arguments for ``stack`` as the shared body prepares them: a
    working copy with unit scales in its layout, entry residuals, and
    one slice that starts stopped."""
    n_slices, n_rows, n_cols = stack.shape
    work = working_copy(stack)
    order = "C" if work.flags.c_contiguous else "F"
    row_target, col_target = np.ones(n_rows), np.full(n_cols, n_rows / n_cols)
    residual = residuals(stack, row_target, col_target)
    active = np.ones(n_slices, dtype=bool)
    active[stopped] = False
    return dict(
        work=work,
        row_target=row_target,
        col_target=col_target,
        row_scale=np.ones((n_slices, n_rows), order=order),
        col_scale=np.ones((n_slices, n_cols), order=order),
        residual=residual,
        active=active,
        iterations=np.zeros(n_slices, dtype=np.int64),
    )


def _stack():
    # 5 of 8 slices converge slowly, so the core both holds stopped
    # slices fixed in place and iterates a compact copy.
    rng = np.random.default_rng(3)
    stack = rng.uniform(0.5, 10.0, (8, 6, 6))
    slow = [0, 2, 4, 5, 7]
    stack[slow, :3, 3:] *= 1e-3
    stack[slow, 3:, :3] *= 1e-3
    return stack


def _member_last_stack():
    # 160 members of 6x4, so the working copy is member-last; 70 of
    # them converge slowly (27 to 466 iterations, the rest within 14),
    # so the compact copies are member-last down to 64 slices and
    # C-ordered below that.
    rng = np.random.default_rng(5)
    stack = rng.uniform(0.5, 10.0, (160, 6, 4))
    slow = rng.choice(len(stack), 70, replace=False)
    slowing = rng.uniform(1e-2, 1e-1, (len(slow), 1, 1))
    stack[slow, :3, 2:] *= slowing
    stack[slow, 3:, :2] *= slowing
    return stack


def _core(name, request):
    if name == "loop":
        return request.getfixturevalue("loop_core").function
    return kernels.sinkhorn_core_batched


def _run(core, stack, trace, max_iterations=100_000, stopped=STOPPED):
    state = _state(stack, stopped)
    entry = state["residual"].copy()
    returned = core(
        tol=1e-8, max_iterations=max_iterations, trace=trace, t_end=None, **state
    )
    return returned, state, entry


def test_the_inputs_take_both_layouts():
    member_last = _member_last_stack()
    assert working_copy(_stack()).flags.c_contiguous
    assert len(member_last) >= MEMBER_LAST_MIN
    assert member_last.shape[1] != member_last.shape[2]
    assert not working_copy(member_last).flags.c_contiguous


@pytest.mark.parametrize("name", ["numpy", "loop"])
def test_untraced_core_leaves_the_traced_state(name, request):
    core = _core(name, request)
    for stack in (_stack(), _member_last_stack()):
        returned, untraced, _ = _run(core, stack, None)
        trace = []
        traced_returned, traced, entry = _run(core, stack, trace)
        assert traced_returned == returned
        for key in (
            "work", "row_scale", "col_scale", "residual", "active", "iterations"
        ):
            assert untraced[key].tobytes() == traced[key].tobytes(), key
        assert not traced["active"].any()
        assert traced["iterations"][STOPPED] == 0
        # The recorded trace: one residual per iteration of each slice,
        # ending at the residual the core stored.
        histories = residual_histories([(None, entry)] + trace, len(stack))
        for i, history in enumerate(histories):
            assert len(history) == traced["iterations"][i] + 1
            assert history[-1] == traced["residual"][i]


@pytest.mark.parametrize("build", [_stack, _member_last_stack], ids=["c", "member_last"])
@pytest.mark.parametrize("name", ["numpy", "loop"])
def test_a_nan_slice_leaves_the_others_as_they_are(name, build, request):
    core = _core(name, request)
    stack = build()
    # Every slow slice converges well within this budget; the NaN slice
    # runs all of it.
    budget = 4_000
    # One NaN entry: the entry residual is NaN although most of the
    # slice's line sums are finite, and the first pass spreads NaN over
    # the whole slice.
    poisoned = stack.copy()
    poisoned[POISONED, 1, 2] = np.nan
    trace = []
    _, state, entry = _run(core, poisoned, trace, budget)
    alone_trace = []
    _, alone, alone_entry = _run(
        core, np.delete(stack, POISONED, axis=0), alone_trace, budget
    )
    # The NaN slice: its residual stays NaN, it is never converged, and
    # it runs its whole budget.
    assert np.isnan(state["residual"][POISONED])
    assert state["active"][POISONED]
    assert state["iterations"][POISONED] == budget
    histories = residual_histories([(None, entry)] + trace, len(poisoned))
    assert len(histories[POISONED]) == budget + 1
    assert np.isnan(histories[POISONED]).all()
    # Every other slice, as a run without it would leave it.
    others = np.arange(len(poisoned)) != POISONED
    assert not state["active"][others].any()
    for key in ("work", "row_scale", "col_scale", "residual", "iterations"):
        assert state[key][others].tobytes() == alone[key].tobytes(), key
    alone_histories = residual_histories(
        [(None, alone_entry)] + alone_trace, len(poisoned) - 1
    )
    assert [h for i, h in enumerate(histories) if i != POISONED] == list(
        alone_histories
    )
