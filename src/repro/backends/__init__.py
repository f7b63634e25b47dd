"""The library's kernels (``docs/BACKENDS.md``): the batched Sinkhorn
core, singular values, and the fused normalize-and-measure pass.

Everything around these inner loops (input validation, warm-start
application, spans, metrics, error messages, result objects) lives in
the public entry points and their shared body in
:mod:`repro.normalize.sinkhorn`.  Callers reach each kernel as an
attribute of this module at call time (``kernels.svd_values(...)``),
never by an imported name, so a substitute core set here (the loop
reference core of ``docs/BACKENDS.md``, in the tests) is the one that
runs.

One Sinkhorn core serves every entry point: a single matrix arrives as
a stack of one.  An iteration is two broadcast sums and two broadcast
multiplies, so every slice's iterate sequence is the one it would
follow alone.  While more than half the stack iterates, the iteration
runs over the whole stack in place, stopped slices scaled by exactly
1.0; after that, over a compact copy of the slices still iterating,
so the core holds at most one and a half copies of the stack
(docs/BACKENDS.md gives the worst case).  Beside them, a phase over
``n`` slices holds one ``(n, T + M)`` deviation buffer, whose first T
columns are the row buffer, and the ``(n, M)`` column sums; numpy
(>= 2.3) adds a buffer of up to 8192 float64 to each broadcasting
ufunc call.

A phase's stack is C-ordered or member-last, as
:func:`~repro.backends.base.working_copy` lays it out (from
``MEMBER_LAST_MIN`` slices of 2 to ``MEMBER_LAST_MAX_COLS`` - 1
columns), and its line workspace and scales share that layout.
Member-last, every line sum, broadcast multiply and residual max runs
over contiguous runs of ``n``; :func:`~repro.backends.base.line_sums`
adds in the order numpy takes on the C copy, so either layout gives the
same bits.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from .base import line_sums, working_copy

__all__ = [
    "fused_standard_measures",
    "resolve_backend",
    "sinkhorn_core_batched",
    "svd_values",
    "svd_values_batched",
]


def sinkhorn_core_batched(
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
    """Iterate eq. 9 on an ``(N, T, M)`` stack, in place on
    caller-owned state (the contract is in
    :mod:`repro.backends.base`); returns ``(iterations_run,
    timed_out)``."""
    n_slices = len(work)
    idx = (active & (iterations < max_iterations)).nonzero()[0]
    # As in ``residuals``: the ufuncs behind ``.max``/``.min``, bound
    # once, and targets with a leading unit axis, to keep
    # per-iteration overhead down on small stacks.
    row_target, col_target = row_target[None], col_target[None]
    highest, lowest = np.maximum.reduce, np.fmin.reduce
    copyto, divide, subtract = np.copyto, np.divide, np.subtract
    absolute = np.abs
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
                sub = working_copy(work, idx)
                rows, cols = row_scale[idx], col_scale[idx]
                if not sub.flags.c_contiguous:
                    # Member-last: the slices' scales in its layout.
                    rows = np.asfortranarray(rows)
                    cols = np.asfortranarray(cols)
            else:
                sub, rows, cols = work, row_scale, col_scale
                if idx.size < n_slices:
                    stopped = np.ones((n_slices, 1), dtype=bool)
                    stopped[idx] = False
            owners = None if idx.size == n_slices else idx
            # Iterations until the first slice exhausts its budget.
            horizon = max_iterations - highest(iterations[idx])
            steps = 0
            # The phase's line workspace: the column sums, which each
            # column pass turns into its factors, and one deviation
            # buffer of a slice's row and column deviations side by
            # side.  Its first T columns are the row buffer, which
            # holds the row factors, then the row sums, then the row
            # deviations; its last M take the column deviations.  The
            # residual's column sums are the next column pass's.  Both
            # share the layout of ``sub``, C or member-last.  On a C
            # stack ``line_sums`` is ``np.add.reduce`` itself, bound
            # here for the phase as the ufuncs above are.
            c_order = sub.flags.c_contiguous
            add = np.add.reduce if c_order else line_sums
            col_sums = add(sub, axis=1)
            count, n_rows, n_cols = sub.shape
            dev = np.empty(
                (count, n_rows + n_cols), sub.dtype, order="C" if c_order else "F"
            )
            row_buf, col_dev = dev[:, :n_rows], dev[:, n_rows:]
            col_factors, row_factors = col_sums[:, None, :], row_buf[:, :, None]
            while True:
                if t_end is not None and time.monotonic() >= t_end:
                    timed_out = True
                    break
                if on_progress is not None:
                    on_progress(idx.size)
                # Column pass (eq. 9, odd k); each pass's factors
                # overwrite the line sums they divide.
                if stopped is not None:
                    copyto(col_sums, col_target, where=stopped)
                divide(col_target, col_sums, out=col_sums)
                sub *= col_factors
                cols *= col_sums
                # Row pass (eq. 9, even k).
                add(sub, axis=2, out=row_buf)
                if stopped is not None:
                    copyto(row_buf, row_target, where=stopped)
                divide(row_target, row_buf, out=row_buf)
                sub *= row_factors
                rows *= row_buf
                steps += 1
                add(sub, axis=1, out=col_sums)
                add(sub, axis=2, out=row_buf)
                subtract(row_buf, row_target, out=row_buf)
                subtract(col_sums, col_target, out=col_dev)
                # One abs and one max over all of a slice's lines: max
                # is exact and propagates NaN, so this is the larger of
                # the largest row and column deviations, bit for bit.
                res = highest(absolute(dev, out=dev), axis=1)
                if stopped is not None:
                    res = res[idx]
                if trace is not None:
                    trace.append((owners, res))
                # ``lowest`` is fmin, which skips NaN, so one NaN slice
                # cannot hide another slice's convergence.
                if steps == horizon or lowest(res) <= tol:
                    break
            if sub is not work:
                work[idx], row_scale[idx], col_scale[idx] = sub, rows, cols
            # Free the compact copy and the line workspace before the
            # next phase gathers its own.
            del sub, rows, cols, col_sums, dev, row_buf, col_dev
            del col_factors, row_factors
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


def svd_values(matrix) -> np.ndarray:
    """Singular values of one matrix: one LAPACK call (``gesdd``,
    values only)."""
    return np.linalg.svd(matrix, compute_uv=False)


def svd_values_batched(stack) -> np.ndarray:
    """``(N, K)`` singular values of an ``(N, T, M)`` stack in one
    LAPACK call."""
    return np.linalg.svd(stack, compute_uv=False)


def fused_standard_measures(
    stack, *, tol, max_iterations, deadline_s=None, warm_start=None
):
    """Batched (MPH, TDH, TMA, iterations, converged) columns of a
    strictly positive ``(N, T, M)`` stack in one pass: the one measure
    body (:func:`repro.batch.measures._standard_measures`) on the batch,
    whose line sums give MPH and TDH.  The stack is left as it is;
    unscalable line sums raise :class:`~repro.exceptions.MatrixValueError`
    naming the slices.
    """
    from ..batch.measures import _adjacent_ratio_batched, _standard_measures

    tma, standard, (row_sums, col_sums) = _standard_measures(
        stack,
        None,
        kind="batched",
        tol=tol,
        max_iterations=max_iterations,
        require_convergence=False,
        deadline_s=deadline_s,
        warm_start=warm_start,
    )
    mph, tdh = _adjacent_ratio_batched(col_sums), _adjacent_ratio_batched(row_sums)
    return mph, tdh, tma, standard.iterations, standard.converged


def resolve_backend():
    """This module.  The benchmark's ``backend:`` span hooks
    (``benchmarks/suite/spans.py``) find the kernels through it until
    they name each kernel where it is defined (ROADMAP item 1a); no
    module of the library calls it."""
    return sys.modules[__name__]
