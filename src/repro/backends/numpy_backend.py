"""The pure-numpy reference backend.

One Sinkhorn core serves every entry point: a single matrix arrives as
a stack of one.  An iteration is two broadcast sums and two broadcast
multiplies, so every slice's iterate sequence is the one it would
follow alone.  While more than half the stack iterates, the iteration
runs over the whole stack in place, stopped slices scaled by exactly
1.0; after that, over a compact copy of the slices still iterating,
so the core holds at most one and a half copies of the stack
(docs/BACKENDS.md gives the worst case).  Every other backend is
tested against this one (``tolerance = 0.0``: the reference defines
correctness).
"""

from __future__ import annotations

import time

import numpy as np

from .base import KernelBackendBase

__all__ = ["NumpyBackend"]


class NumpyBackend(KernelBackendBase):
    """Vectorized numpy loops (the library's historical kernels)."""

    name = "numpy"
    tolerance = 0.0

    def sinkhorn_core_batched(
        self,
        work,
        row_target,
        col_target,
        *,
        tol,
        max_iterations,
        row_scale,
        col_scale,
        residual,
        active,
        iterations,
        trace,
        t_end,
        on_progress=None,
    ):
        n_slices, n_rows, n_cols = work.shape
        idx = (active & (iterations < max_iterations)).nonzero()[0]
        # As in ``residuals``: the ufuncs behind ``.sum``/``.max``, and
        # targets with a leading unit axis, to keep per-iteration
        # overhead down on small stacks.
        row_target, col_target = row_target[None], col_target[None]
        add, highest = np.add.reduce, np.maximum.reduce
        copyto, divide = np.copyto, np.divide
        run = 0
        timed_out = False
        # The accumulated diagonal scales can overflow for
        # non-normalizable zero patterns (they genuinely diverge while
        # the matrix iterates stay bounded); that is reported through
        # ConvergenceError, not a warning.
        with np.errstate(over="ignore"):
            while idx.size and not timed_out:
                # While more than half the stack iterates, it is scaled
                # in place: a stopped slice's line sums are set to their
                # targets, so its factors are exactly 1.0 and its
                # entries and scales stay bit-for-bit as they are.  Once
                # at most half iterate, they are gathered into a compact
                # copy (at most half the stack) that is written back
                # whenever the set shrinks again.
                stopped = None
                if 2 * idx.size <= n_slices:
                    sub, rows, cols = work[idx], row_scale[idx], col_scale[idx]
                else:
                    sub, rows, cols = work, row_scale, col_scale
                    if idx.size < n_slices:
                        stopped = np.ones((n_slices, 1), dtype=bool)
                        stopped[idx] = False
                owners = None if idx.size == n_slices else idx
                # Iterations until the first slice exhausts its budget.
                horizon = max_iterations - highest(iterations[idx])
                steps = 0
                # The residual's column sums are the next column pass's.
                col_sums = add(sub, axis=1)
                # Row then column deviations, side by side, so one
                # reduction finds each slice's residual.
                deviation = np.empty((len(sub), n_rows + n_cols), work.dtype)
                row_dev, col_dev = deviation[:, :n_rows], deviation[:, n_rows:]
                while True:
                    if t_end is not None and time.monotonic() >= t_end:
                        timed_out = True
                        break
                    if on_progress is not None:
                        on_progress(idx.size)
                    # Column pass (eq. 9, odd k); each pass's factors
                    # overwrite the line sums they divide.
                    factors = col_sums
                    if stopped is not None:
                        copyto(factors, col_target, where=stopped)
                    divide(col_target, factors, out=factors)
                    sub *= factors[:, None, :]
                    cols *= factors
                    # Row pass (eq. 9, even k).
                    factors = add(sub, axis=2)
                    if stopped is not None:
                        copyto(factors, row_target, where=stopped)
                    divide(row_target, factors, out=factors)
                    sub *= factors[:, :, None]
                    rows *= factors
                    steps += 1
                    col_sums = add(sub, axis=1)
                    np.subtract(add(sub, axis=2), row_target, out=row_dev)
                    np.subtract(col_sums, col_target, out=col_dev)
                    res = highest(np.abs(deviation, out=deviation), axis=1)
                    if stopped is not None:
                        res = res[idx]
                    if trace is not None:
                        trace.append((owners, res))
                    # fmin skips NaN, so one NaN slice cannot hide another
                    # slice's convergence.
                    if steps == horizon or np.fmin.reduce(res) <= tol:
                        break
                if sub is not work:
                    work[idx], row_scale[idx], col_scale[idx] = sub, rows, cols
                # Free the compact copy before the next phase gathers one.
                del sub, rows, cols
                if not steps:
                    break
                # Book the phase: every slice in it was active and ran
                # ``steps`` iterations.
                run += steps
                iterations[idx] += steps
                residual[idx] = res
                active[idx] = keep = ~(res <= tol)
                if steps == horizon:
                    keep &= iterations[idx] < max_iterations
                idx = idx[keep]
        return run, timed_out
