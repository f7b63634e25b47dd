"""The Sinkhorn core contract: ``trace`` is optional.

A caller that never reads residual histories passes ``trace=None``
(the ensemble, store and serve passes do), and the core must then leave
exactly the in-place state it leaves when it records a trace.  When it
does record one, the chunks hold each slice's residuals in order.
Checked on the numpy reference and on the documented ``LoopBackend``,
a core that iterates slice by slice.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import get_backend
from repro.backends.base import residual_histories, residuals


def _state(stack):
    """Core arguments for ``stack`` as the shared body prepares them:
    unit scales, entry residuals, and one slice that starts stopped."""
    n_slices, n_rows, n_cols = stack.shape
    row_target, col_target = np.ones(n_rows), np.full(n_cols, n_rows / n_cols)
    residual = residuals(stack, row_target, col_target)
    active = np.ones(n_slices, dtype=bool)
    active[3] = False
    return dict(
        work=stack.copy(),
        row_target=row_target,
        col_target=col_target,
        row_scale=np.ones((n_slices, n_rows)),
        col_scale=np.ones((n_slices, n_cols)),
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


def _run(backend, stack, trace):
    state = _state(stack)
    entry = state["residual"].copy()
    returned = backend.sinkhorn_core_batched(
        tol=1e-8, max_iterations=100_000, trace=trace, t_end=None, **state
    )
    return returned, state, entry


@pytest.mark.parametrize("name", ["numpy", "loop"])
def test_untraced_core_leaves_the_traced_state(name, request):
    if name == "loop":
        request.getfixturevalue("loop_backend")
    backend = get_backend(name)
    stack = _stack()
    returned, untraced, _ = _run(backend, stack, None)
    trace = []
    traced_returned, traced, entry = _run(backend, stack, trace)
    assert traced_returned == returned
    for key in ("work", "row_scale", "col_scale", "residual", "active", "iterations"):
        assert untraced[key].tobytes() == traced[key].tobytes(), key
    assert not traced["active"].any()
    assert traced["iterations"][3] == 0
    # The recorded trace: one residual per iteration of each slice,
    # ending at the residual the core stored.
    histories = residual_histories([(None, entry)] + trace, len(stack))
    for i, history in enumerate(histories):
        assert len(history) == traced["iterations"][i] + 1
        assert history[-1] == traced["residual"][i]
