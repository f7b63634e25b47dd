"""The Sinkhorn core contract and the helpers the kernels and their
callers share.

A single matrix is a stack of one: ``sinkhorn_knopp`` and
``scale_to_margins`` run a ``(T, M)`` matrix as its ``(1, T, M)`` view
through the same core (:func:`repro.backends.sinkhorn_core_batched`)
and body as ``sinkhorn_knopp_batched``.

The core operates **in place** on caller-owned state, so it never
decides result semantics.  ``sinkhorn_core_batched(work, row_target,
col_target, ...)`` takes an ``(N, T, M)`` stack and ``(T,)``/``(M,)``
target vectors in the stack's dtype (constant for ``sinkhorn_knopp``,
prescribed margins for ``scale_to_margins``).  It iterates every slice
that is ``active`` and has run fewer than ``max_iterations`` iterations
(counted in ``iterations``), and it:

* scales ``work`` and the ``row_scale``/``col_scale`` accumulators;
* adds each slice's full (column pass + row pass) iterations to
  ``iterations`` and stores its latest residual in ``residual``;
* clears ``active`` for slices whose residual reached ``tol``;
* appends every residual it computes to ``trace``, in iteration order,
  as ``(owners, values)`` chunks: ``values[k]`` is a residual of slice
  ``owners[k]``, and ``owners`` is ``None`` when the chunk holds one
  residual per slice in slice order (:func:`residual_histories` turns a
  trace into per-slice tuples when a batched result's
  ``residual_history`` is first read, so a chunk's arrays must not be
  written again);
* records nothing when ``trace`` is None, and otherwise leaves the same
  state: callers that never read histories (the fused pass, and
  so ``characterize_ensemble``, ``characterize_store`` and the server's
  characterize) pass None, so their memory does not grow with the
  iteration count;
* returns ``(iterations_run, timed_out)``.

``work`` is C-ordered or member-last (:func:`working_copy`: ``(M, T,
N)`` memory, from :data:`MEMBER_LAST_MIN` members of 2 to
:data:`MEMBER_LAST_MAX_COLS` - 1 columns), and the scale accumulators
share its layout.  A core that sums lines with :func:`line_sums` gets
the bits of the C-ordered run on either.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import MatrixValueError

__all__ = [
    "MEMBER_LAST_MAX_COLS",
    "MEMBER_LAST_MIN",
    "coerce_warm_start",
    "line_sums",
    "residual_histories",
    "residuals",
    "working_copy",
]


def _warm_vectors(warm_start):
    """Extract ``(row_scale, col_scale)`` from a warm-start argument.

    Accepts a previous scaling result exposing ``row_scale``/
    ``col_scale`` (a :class:`~repro.normalize.NormalizationResult` or a
    :class:`~repro.batch.BatchNormalizationResult`) or an explicit
    2-sequence of vectors.
    """
    if hasattr(warm_start, "row_scale") and hasattr(warm_start, "col_scale"):
        return warm_start.row_scale, warm_start.col_scale
    try:
        row, col = warm_start
    except (TypeError, ValueError):
        raise MatrixValueError(
            "warm_start must be a previous scaling result (with "
            ".row_scale/.col_scale) or a (row_scale, col_scale) pair, "
            f"got {warm_start!r}"
        ) from None
    return row, col


def _check_warm(vec: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(vec).all() or (vec <= 0).any():
        raise MatrixValueError(
            f"warm_start {what} must be strictly positive and finite"
        )
    return vec


def coerce_warm_start(
    warm_start, n_slices: int, n_rows: int, n_cols: int
) -> tuple[np.ndarray, np.ndarray]:
    """Validated ``((N, T), (N, M))`` float64 scale arrays, freshly
    allocated, for an ``(N, T, M)`` stack (one matrix is ``N == 1``).

    A ``(T,)``/``(M,)`` pair (e.g. from a run on the unperturbed base
    matrix) broadcasts to every slice; per-slice ``(N, T)``/``(N, M)``
    arrays are used as-is.
    """
    row, col = _warm_vectors(warm_start)
    row = np.asarray(row, dtype=np.float64)
    col = np.asarray(col, dtype=np.float64)
    if row.ndim == 1 and col.ndim == 1:
        shapes = (n_rows,), (n_cols,)
    else:
        shapes = (n_slices, n_rows), (n_slices, n_cols)
    if (row.shape, col.shape) != shapes:
        raise MatrixValueError(
            "warm_start scaling vectors must match the matrix shape "
            f"({n_rows}, {n_cols}): one ({n_rows},)/({n_cols},) pair, or "
            f"one such pair per member; got shapes {row.shape} and "
            f"{col.shape}"
        )
    row = np.broadcast_to(row, (n_slices, n_rows)).copy()
    col = np.broadcast_to(col, (n_slices, n_cols)).copy()
    return _check_warm(row, "row_scale"), _check_warm(col, "col_scale")


#: Stacks of at least this many members get a member-last working copy
#: (docs/BACKENDS.md, "How the core bounds its memory", gives the
#: measured crossover).
MEMBER_LAST_MIN = 64

#: Members of this many columns or more keep a C-ordered working copy,
#: as do members of one column: the crossover measured no gain for them.
MEMBER_LAST_MAX_COLS = 16

#: Entries the temporaries of a member-last gather or of one chunk of a
#: member-last pairwise sum hold at most.
_SCRATCH = 4096


def _member_last(stack) -> bool:
    """Whether an ``(N, T, M)`` stack lies members-innermost in memory:
    its ``(M, T, N)`` transpose is C-contiguous and it is not."""
    return not stack.flags.c_contiguous and stack.T.flags.c_contiguous


def working_copy(stack, idx=None) -> np.ndarray:
    """A fresh ``(N, T, M)`` copy of ``stack`` (of its members ``idx``)
    for the Sinkhorn core to scale in place.

    A copy of at least :data:`MEMBER_LAST_MIN` members of 2 to
    :data:`MEMBER_LAST_MAX_COLS` - 1 columns is a member-last view: its
    memory is ``(M, T, N)``, so every line sum, broadcast multiply and
    residual max of the core runs over contiguous runs of N.  Other
    copies are C-ordered.  A member-last source is gathered along its
    contiguous member axis; ``stack[idx]`` would lay its T axis
    innermost."""
    n_slices, n_rows, n_cols = stack.shape
    count = n_slices if idx is None else len(idx)
    member_last = count >= MEMBER_LAST_MIN and 1 < n_cols < MEMBER_LAST_MAX_COLS
    if idx is None and not member_last:
        return stack.copy()
    if idx is not None and _member_last(stack):
        memory = np.take(stack.T, idx, axis=2)
        return memory.T if member_last else memory.T.copy()
    if not member_last:
        return np.ascontiguousarray(stack[idx])
    copy = np.empty((n_cols, n_rows, count), stack.dtype).T
    if idx is None:
        np.copyto(copy, stack)
        return copy
    # Gathered in blocks of at most _SCRATCH entries, so no second stack
    # is held while the copy fills.
    block = max(1, _SCRATCH // (n_rows * n_cols))
    for start in range(0, count, block):
        np.copyto(copy[start:start + block], stack[idx[start:start + block]])
    return copy


def line_sums(stack, axis: int, out=None) -> np.ndarray:
    """The ``(N, T)`` row (``axis=2``) or ``(N, M)`` column (``axis=1``)
    sums of an ``(N, T, M)`` stack, bit for bit those ``np.add.reduce``
    gives on the stack's C copy, whatever its layout.

    On a C stack that is ``np.add.reduce`` itself: rows pairwise over
    the contiguous M axis, columns in sequence over T (numpy sums T
    pairwise only when M = 1).  A member-last stack of the shapes
    :func:`working_copy` lays out (2 to :data:`MEMBER_LAST_MAX_COLS` - 1
    columns) takes the same orders over contiguous runs of N, into sums
    of the same layout.  A stack of one, of one column or of
    :data:`MEMBER_LAST_MAX_COLS` or more, or of any other layout, is
    summed as its C copy."""
    if stack.flags.c_contiguous:
        return np.add.reduce(stack, axis=axis, out=out)
    n_cols = stack.shape[2]
    if (
        len(stack) == 1
        or not 1 < n_cols < MEMBER_LAST_MAX_COLS
        or not _member_last(stack)
    ):
        return np.add.reduce(np.ascontiguousarray(stack), axis=axis, out=out)
    if out is not None and not out.T.flags.c_contiguous:
        out[...] = line_sums(stack, axis)
        return out
    if out is None:
        out = np.empty_like(stack[:, :, 0] if axis == 2 else stack[:, 0, :])
    memory, target = stack.T, out.T
    if axis == 2:
        _pairwise(memory.reshape(n_cols, -1), target.reshape(-1))
    else:
        # The member axis is innermost, so numpy adds the T planes in
        # sequence, as it does on the C copy.
        np.add.reduce(memory, axis=1, out=target)
    return out


def _pairwise(lines, out) -> None:
    """``out[k]``: numpy's pairwise sum of ``lines[:, k]``, the order
    ``np.add.reduce`` takes along a contiguous axis, for an ``(L, K)``
    array of fewer than :data:`MEMBER_LAST_MAX_COLS` lines whose K axis
    is contiguous.  Under 8 terms numpy adds in sequence.  From 8 it
    keeps eight interleaved accumulators (here the lines themselves),
    combines them as ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 +
    r7))`` and adds the remainder in sequence.  The columns go in chunks whose two-line
    scratch holds at most :data:`_SCRATCH` float64.  A line of negative
    zeros sums to -0.0 here and to 0.0 in numpy: the same zero to every
    test."""
    if len(lines) < 8:
        np.add.reduce(lines, axis=0, out=out)
        return
    add = np.add
    step = _SCRATCH // 2
    for start in range(0, lines.shape[1], step):
        part = slice(start, start + step)
        block, total = lines[:, part], out[part]
        scratch = add(block[0:4:2], block[1:4:2])
        add(scratch[0], scratch[1], out=total)
        add(block[4:8:2], block[5:8:2], out=scratch)
        total += add(scratch[0], scratch[1], out=scratch[0])
        for line in block[8:]:
            total += line


def residuals(stack, row_target, col_target) -> np.ndarray:
    """Per-slice residual of an ``(N, T, M)`` stack: the largest absolute
    deviation of any row or column sum from its ``(T,)``/``(M,)``
    target."""
    return _joined_residuals(
        np.concatenate((line_sums(stack, 2), line_sums(stack, 1)), axis=1),
        np.concatenate((row_target, col_target)),
    )


def _joined_residuals(sums, targets) -> np.ndarray:
    """:func:`residuals` from a stack's ``(N, T + M)`` line sums, its row
    sums then its column sums, and their ``(T + M,)`` targets: one
    subtract, one abs and one max over all of a slice's lines, in place
    on ``sums``, which is left holding the absolute deviations.  max is
    exact and propagates NaN, so this is the larger of the largest row
    and the largest column deviation, bit for bit.

    The targets get a leading unit axis so a stack of one stays off
    numpy's broadcasting path, which only shaves per-call overhead.
    """
    np.subtract(sums, targets[None], out=sums)
    return np.maximum.reduce(np.abs(sums, out=sums), axis=1)


def _line_sums(stack) -> tuple[np.ndarray, np.ndarray]:
    """The ``(N, T)`` row and ``(N, M)`` column sums of a stack
    (:func:`line_sums`).  A sum past the float64 range is inf (or NaN,
    from opposite infinities), without numpy's warning: callers screen
    for it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return line_sums(stack, 2), line_sums(stack, 1)


def residual_histories(trace, n_slices: int) -> tuple[tuple[float, ...], ...]:
    """Per-slice residual tuples recorded by a trace (see the module
    docstring for the chunk format)."""
    if all(owners is None for owners, _ in trace):
        rows = np.array([values for _, values in trace], dtype=np.float64)
        return tuple(map(tuple, rows.T.tolist()))
    owners = np.concatenate(
        [np.arange(n_slices) if o is None else o for o, _ in trace]
    )
    # Grouped by slice, chronological within each slice.
    order = np.argsort(owners, kind="stable")
    owners = owners[order]
    values = np.concatenate([v for _, v in trace])[order]
    bounds = np.cumsum(np.bincount(owners, minlength=n_slices))[:-1]
    return tuple(tuple(part.tolist()) for part in np.split(values, bounds))
