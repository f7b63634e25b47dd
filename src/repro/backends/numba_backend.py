"""Optional numba backend (JIT-compiled Sinkhorn loops).

Importing this module requires numba; ``repro.backends`` only imports
it when numba is installed, and the differential tests in
``tests/backends/`` auto-skip otherwise.  The njit core replaces the
broadcast passes with explicit loops — summation order differs from
numpy's pairwise reduction, so agreement with the reference is bounded
by the documented ``tolerance`` (1e-10) instead of being bit-exact.

Design notes:

* the njit kernel runs in *chunks* of iterations with the wall-clock
  deadline checked between chunks in Python, so ``deadline_s`` keeps
  working at slightly coarser granularity (one chunk) than the numpy
  backend (one iteration);
* the one Sinkhorn core is a Python loop over slices, each running the
  njit kernel to convergence or budget, so a slice's result never
  depends on the rest of its stack (a single matrix is a stack of
  one);
* singular values delegate to the same LAPACK routines as the
  reference (a JIT SVD would buy nothing).
"""

from __future__ import annotations

import time

import numpy as np
from numba import njit

from .base import KernelBackendBase

__all__ = ["NumbaBackend"]

#: Iterations per njit call; the deadline is only checked between
#: chunks, so this bounds the overshoot past an expired deadline.
CHUNK_ITERATIONS = 256


@njit
def _sinkhorn_chunk(
    work, row_targets, col_targets, tol, n_iterations, row_scale, col_scale,
    residual_out,
):
    n_rows, n_cols = work.shape
    done = 0
    converged = False
    for _ in range(n_iterations):
        # Column pass (eq. 9, odd k).
        for j in range(n_cols):
            s = 0.0
            for i in range(n_rows):
                s += work[i, j]
            f = col_targets[j] / s
            for i in range(n_rows):
                work[i, j] *= f
            col_scale[j] *= f
        # Row pass (eq. 9, even k).
        for i in range(n_rows):
            s = 0.0
            for j in range(n_cols):
                s += work[i, j]
            f = row_targets[i] / s
            for j in range(n_cols):
                work[i, j] *= f
            row_scale[i] *= f
        # Joint residual after the row pass (the scalar stopping rule).
        r = 0.0
        for i in range(n_rows):
            s = 0.0
            for j in range(n_cols):
                s += work[i, j]
            d = abs(s - row_targets[i])
            if d > r:
                r = d
        for j in range(n_cols):
            s = 0.0
            for i in range(n_rows):
                s += work[i, j]
            d = abs(s - col_targets[j])
            if d > r:
                r = d
        residual_out[done] = r
        done += 1
        if r <= tol:
            converged = True
            break
    return done, converged


class NumbaBackend(KernelBackendBase):
    """JIT-compiled Sinkhorn core, applied slice by slice."""

    name = "numba"
    tolerance = 1e-10

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
        idx = np.flatnonzero(active & (iterations < max_iterations))
        if on_progress is not None and idx.size:
            on_progress(int(idx.size))
        residual_out = np.empty(CHUNK_ITERATIONS, dtype=np.float64)
        iterations_run = 0
        timed_out = False
        for i in idx:
            budget = max_iterations - int(iterations[i])
            ran = 0
            converged = False
            while not converged and ran < budget:
                if t_end is not None and time.monotonic() >= t_end:
                    # This and the remaining slices freeze
                    # (non-converged), like the numpy core's break.
                    timed_out = True
                    break
                done, converged = _sinkhorn_chunk(
                    work[i],
                    row_target,
                    col_target,
                    tol,
                    min(CHUNK_ITERATIONS, budget - ran),
                    row_scale[i],
                    col_scale[i],
                    residual_out,
                )
                if trace is not None:
                    trace.append((np.full(done, i), residual_out[:done].copy()))
                residual[i] = residual_out[done - 1]
                ran += done
            iterations[i] += ran
            active[i] = not converged
            iterations_run = max(iterations_run, ran)
            if timed_out:
                break
        return iterations_run, timed_out
