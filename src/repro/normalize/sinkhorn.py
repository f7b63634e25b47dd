"""Alternating row/column scaling (paper eq. 9, Theorem 1).

The iteration alternates between scaling every column to a target sum
and scaling every row to a target sum.  For a positive T × M matrix and
consistent targets (``T * row_target == M * col_target``), Sinkhorn's
theorem — extended to rectangular matrices in the paper's Appendix A —
guarantees convergence to a unique scaling ``D1 @ A @ D2`` (the diagonal
factors are unique up to a reciprocal scalar pair).

For matrices with zero entries the iteration may fail to converge
(paper Section VI); :mod:`repro.structure` predicts this from the zero
pattern alone.

One matrix runs as a stack of one: :func:`sinkhorn_knopp`,
:func:`scale_to_margins` and :func:`repro.batch.sinkhorn_knopp_batched`
validate their own input, then share one body (warm start, entry
checks, span, the Sinkhorn core, metrics, errors and the result), so
a matrix gets the same iterates alone or inside a stack.
:func:`repro.normalize.standardize` and :func:`repro.characterize`
validate at their own entry and call that body (:func:`_scale_stack`)
directly.

A batched result's ``residual_history`` is built from the core's trace
on first read, so ensemble runs whose histories nobody reads never
build them; a single-matrix result builds its one history at once.
The fused pass (:func:`repro.backends.fused_standard_measures`), which
reads no histories, records no trace.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .._validation import (
    as_float_array,
    check_positive_int,
    check_positive_scalar,
)
from .. import backends as kernels
from ..backends.base import (
    _joined_residuals,
    _line_sums,
    coerce_warm_start,
    residual_histories,
)
from ..exceptions import ConvergenceError, MatrixValueError
from ..obs import metrics as _metrics
from ..obs import span as _obs_span

if TYPE_CHECKING:
    from ..robust.taxonomy import QuarantineReport

__all__ = [
    "BatchNormalizationResult",
    "NormalizationResult",
    "sinkhorn_knopp",
    "scale_to_margins",
    "scale_by_diagonals",
]

#: The continuation hint every ConvergenceError carries, scalar and
#: batched alike (asserted by tests/normalize/test_convergence_messages).
CONVERGENCE_HINT = (
    "the matrix may be decomposable — see repro.structure.is_normalizable"
)


def convergence_message(
    what: str,
    *,
    tol: float,
    iterations: int,
    residual: float | None = None,
    failing=None,
    deadline_s: float | None = None,
) -> str:
    """The unified non-convergence message shared by every variant.

    ``what`` names the failing subject ("row/column normalization",
    "margin scaling", "3 of 8 slices"); the optional details name the
    final residual, the first failing slice indices (batched variants)
    and an expired wall-clock deadline.  Every message ends with the
    same :data:`CONVERGENCE_HINT` continuation so operators always get
    the Section-VI pointer.
    """
    message = f"{what} did not reach tol={tol:g} within {iterations} iterations"
    details = []
    if residual is not None:
        details.append(f"residual={residual:.3e}")
    if failing is not None:
        details.append(f"first failing slices: {failing}")
    if deadline_s is not None:
        details.append(f"deadline_s={deadline_s:g} expired")
    if details:
        message += f" ({', '.join(details)})"
    return f"{message}; {CONVERGENCE_HINT}"


def _check_deadline(deadline_s: float | None) -> float | None:
    """Validate ``deadline_s`` and convert it to a monotonic end time."""
    if deadline_s is None:
        return None
    if isinstance(deadline_s, bool) or not isinstance(deadline_s, (int, float)):
        raise MatrixValueError(
            f"deadline_s must be a non-negative number or None, got "
            f"{deadline_s!r}"
        )
    if deadline_s < 0 or np.isnan(deadline_s):
        raise MatrixValueError(
            f"deadline_s must be a non-negative number or None, got "
            f"{deadline_s!r}"
        )
    return time.monotonic() + float(deadline_s)


class _LazyHistory:
    """The ``residual_history`` field of :class:`BatchNormalizationResult`.

    The field holds either the tuple itself (explicit construction) or
    a zero-argument callable over the core's trace chunks, which the
    first read replaces by the tuple it builds.
    """

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__["residual_history"]
        if callable(value):
            value = obj.__dict__["residual_history"] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__["residual_history"] = value


@dataclass(frozen=True)
class NormalizationResult:
    """Outcome of the alternating-scaling iteration.

    Attributes
    ----------
    matrix : numpy.ndarray
        The scaled matrix ``D1 @ A @ D2`` (a fresh array).
    row_scale, col_scale : numpy.ndarray
        The diagonals of ``D1`` (length T) and ``D2`` (length M).
    converged : bool
        True when the residual dropped below ``tol`` within
        ``max_iterations``.
    iterations : int
        Number of full iterations performed (one column pass plus one
        row pass each, matching the paper's Section V counting).
    residual : float
        Final residual: the largest absolute deviation of any row or
        column sum from its target.
    residual_history : tuple of float
        Residual after each full iteration (index 0 is the residual of
        the *input* matrix, before any scaling).
    row_target, col_target : float or numpy.ndarray
        The target sums the iteration aimed for: scalars, or the
        prescribed ``(T,)``/``(M,)`` margins of :func:`scale_to_margins`.
    zeroed_entries : tuple of (int, int)
        Entries zeroed to reach the Sinkhorn *limit* before scaling
        (only non-empty from :func:`repro.normalize.standardize` under
        ``zeros="limit"``).
    """

    matrix: np.ndarray
    row_scale: np.ndarray
    col_scale: np.ndarray
    converged: bool
    iterations: int
    residual: float
    residual_history: tuple[float, ...] = field(repr=False)
    row_target: float | np.ndarray = 1.0
    col_target: float | np.ndarray = 1.0
    zeroed_entries: tuple[tuple[int, int], ...] = ()

    def max_sum_error(self) -> float:
        """Recompute the residual from ``matrix`` (diagnostic helper)."""
        row_err = np.abs(self.matrix.sum(axis=1) - self.row_target).max()
        col_err = np.abs(self.matrix.sum(axis=0) - self.col_target).max()
        return float(max(row_err, col_err))


@dataclass(frozen=True)
class BatchNormalizationResult:
    """Columnar outcome of the batched alternating-scaling iteration.

    The stacked form of :class:`NormalizationResult`, with the same
    field names: ``matrix`` is the whole scaled stack here, and the
    diagnostics are per-slice arrays instead of scalars.
    :meth:`slice` returns one slice as a :class:`NormalizationResult`.

    Attributes
    ----------
    matrix : numpy.ndarray, shape (N, T, M)
        The scaled stack; slice ``i`` is ``D1_i @ A_i @ D2_i``.
    row_scale : numpy.ndarray, shape (N, T)
        Per-slice diagonals of ``D1``.
    col_scale : numpy.ndarray, shape (N, M)
        Per-slice diagonals of ``D2``.
    converged : numpy.ndarray of bool, shape (N,)
        Per-slice convergence mask.
    iterations : numpy.ndarray of int, shape (N,)
        Full (column pass + row pass) iterations each slice ran before
        freezing.
    residual : numpy.ndarray, shape (N,)
        Final per-slice residual (largest absolute row/column-sum
        deviation from its target).
    residual_history : tuple of tuple of float
        Per-slice residual trace; entry 0 of each is the residual of
        the *input* slice, matching the scalar result's convention.
    row_target, col_target : float
        The target sums the iteration aimed for.
    report : repro.robust.QuarantineReport or None
        The faulty slices under ``policy="quarantine"``/``"repair"``
        (see :func:`repro.batch.standardize_batched`); None under
        ``policy="raise"``.  Quarantined slices have NaN ``matrix`` and
        scale rows; non-convergent ones keep their best partial iterate.
    """

    matrix: np.ndarray
    row_scale: np.ndarray
    col_scale: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray
    residual_history: tuple[tuple[float, ...], ...] = field(repr=False)
    row_target: float = 1.0
    col_target: float = 1.0
    report: QuarantineReport | None = None

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def slice(self, index: int) -> NormalizationResult:
        """The :class:`NormalizationResult` of slice ``index``."""
        return _slice(self, index, copy=True)


def _slice(
    result: BatchNormalizationResult,
    index: int,
    *,
    copy: bool,
    zeroed_entries: tuple[tuple[int, int], ...] = (),
) -> NormalizationResult:
    """Slice ``index`` of ``result``; ``copy=False`` returns views, for
    a stack the call created and nobody else sees."""
    arrays = (result.matrix[index], result.row_scale[index], result.col_scale[index])
    if copy:
        arrays = tuple(a.copy() for a in arrays)
    return NormalizationResult(
        *arrays,
        converged=bool(result.converged[index]),
        iterations=int(result.iterations[index]),
        residual=float(result.residual[index]),
        residual_history=result.residual_history[index],
        row_target=result.row_target,
        col_target=result.col_target,
        zeroed_entries=zeroed_entries,
    )


# Installed after the dataclass is built, so its generated ``__init__``
# stores the field through the descriptor.
BatchNormalizationResult.residual_history = _LazyHistory()


#: What a single-matrix ConvergenceError says failed, per kernel.
_SUBJECTS = {"scalar": "row/column normalization", "margins": "margin scaling"}


def _first_slices(indices: np.ndarray) -> str:
    return f"{indices[:5].tolist()}{'...' if indices.size > 5 else ''}"


def _in_slices(bad: np.ndarray, kind: str, offset: int = 0) -> str:
    """`` in slice(s) [...]`` naming the ``bad`` slices of a batched run
    whose first slice is member ``offset`` (empty for a single
    matrix)."""
    if kind != "batched":
        return ""
    return f" in slice(s) {_first_slices(np.flatnonzero(bad) + offset)}"


def _entry_state(row_sums, col_sums, row_targets, col_targets):
    """``(residual, overflow, too_small)`` from a stack's ``(N, T)`` row
    and ``(N, M)`` column sums: the entry residual, and the slice masks
    of a line sum that is not finite (so neither is the residual) and
    (otherwise) of one so small that the first pass's factor
    ``target / sum`` overflows to inf, making every iterate after it
    NaN.  One ``(N, T + M)`` buffer joins a slice's row and column sums,
    then their factors, so the residual and each mask take one
    reduction over all of its lines; it is the only line set this
    holds beside the sums."""
    n_rows = row_sums.shape[1]
    buf = np.concatenate((row_sums, col_sums), axis=1)
    residual = _joined_residuals(buf, np.concatenate((row_targets, col_targets)))
    overflow = ~np.isfinite(residual)
    with np.errstate(over="ignore", divide="ignore"):
        np.divide(row_targets[None], row_sums, out=buf[:, :n_rows])
        np.divide(col_targets[None], col_sums, out=buf[:, n_rows:])
    too_small = ~np.isfinite(buf).all(axis=1)
    return residual, overflow, too_small & ~overflow


def _unscalable_error(
    overflow, too_small, kind: str, offset: int = 0
) -> MatrixValueError | None:
    """The error for the first non-empty mask of :func:`_entry_state`
    (``too_small=None`` skips that test), or None; slices are named from
    member ``offset`` on."""
    if overflow.any():
        return MatrixValueError(
            "row or column sums overflow to inf"
            f"{_in_slices(overflow, kind, offset)}; rescale the matrix (e.g. "
            "divide it by its largest entry) so every row and column sum is "
            "finite"
        )
    if too_small is not None and too_small.any():
        return MatrixValueError(
            "row or column sums are too small to scale (target / sum "
            f"overflows to inf){_in_slices(too_small, kind, offset)}; "
            "rescale the matrix (e.g. divide it by its largest entry) so "
            "every row and column sum is a normal float"
        )
    return None


def _scale_stack(
    work: np.ndarray,
    row_target,
    col_target,
    *,
    kind: str,
    warm_start,
    tol: float,
    max_iterations: int,
    require_convergence: bool,
    deadline_s: float | None,
    sums=None,
    keep_history: bool = True,
) -> BatchNormalizationResult:
    """The body every Sinkhorn entry point shares once its input is
    validated.

    ``work`` is a caller-owned float64 ``(N, T, M)`` stack (a single
    matrix is ``N == 1``), C-ordered or member-last as
    :func:`repro.backends.base.working_copy` makes it, that the body
    scales in place and returns as the result's ``matrix``;
    ``row_target``/``col_target`` are the margins, each a float or a
    ``(T,)``/``(M,)`` vector, as the result reports them.  ``kind`` is
    the ``"scalar"``/``"margins"``/``"batched"`` label of the span
    (``sinkhorn.<kind>``) and metrics.  ``sums`` are the row and column
    sums of ``work`` as passed, from a caller that needs them itself
    (:func:`repro.backends.base._line_sums` of a stack with no all-zero
    line).  Without them the body sums ``work`` and rejects an all-zero
    row or column; sums only the body refers to are freed before the
    core runs (Python 3.10 keeps an argument alive until the call
    returns).  A ``warm_start`` rescales ``work``, which the body then
    sums again.  With
    ``keep_history=False`` the core records no residual trace, and the
    result's ``residual_history`` is None: for callers that never read
    it, whose memory then stays bounded however long a slice iterates.
    """
    n_slices, n_rows, n_cols = work.shape
    if sums is None:
        sums = _line_sums(work)
        zero_line = (sums[0] == 0).any(axis=1) | (sums[1] == 0).any(axis=1)
        if zero_line.any():
            raise MatrixValueError(
                f"{'stack' if kind == 'batched' else 'matrix'} has an all-zero "
                f"row or column{_in_slices(zero_line, kind)}; no scaling can "
                "fix that"
            )
    row_targets = np.full(n_rows, row_target)
    col_targets = np.full(n_cols, col_target)
    # The scales accumulate in place, in the layout of ``work``: a
    # member-last stack's ``(N, T)`` and ``(N, M)`` slices are
    # Fortran-ordered, and every product of the core needs matching
    # strides to stay free of temporaries.
    member_last = not work.flags.c_contiguous
    if warm_start is None:
        order = "F" if member_last else "C"
        row_scale = np.ones((n_slices, n_rows), dtype=np.float64, order=order)
        col_scale = np.ones((n_slices, n_cols), dtype=np.float64, order=order)
    else:
        sums = None  # stale once the warm start rescales work
        # Fresh arrays, because the scales accumulate in place.
        row_scale, col_scale = coerce_warm_start(
            warm_start, n_slices, n_rows, n_cols
        )
        if member_last:
            row_scale = np.asfortranarray(row_scale)
            col_scale = np.asfortranarray(col_scale)
        # Rows first, then columns: the products scale_by_diagonals
        # forms, so a warm start from a converged run reproduces that
        # result bit-for-bit.
        work *= row_scale[:, :, None]
        work *= col_scale[:, None, :]
        sums = _line_sums(work)
    residual, overflow, too_small = _entry_state(*sums, row_targets, col_targets)
    del sums  # the iterations need no line sums
    # Entries are finite, but their line sums can still overflow, or be
    # too small to scale.  After one column pass every sum is bounded by
    # its target, so checking the entry sums rules out NaN iterates.
    error = _unscalable_error(overflow, too_small, kind)
    if error is not None:
        raise error
    active = ~(residual <= tol)
    iterations = np.zeros(n_slices, dtype=np.int64)
    trace = [(None, residual.copy())] if keep_history else None
    t_end = _check_deadline(deadline_s)
    if kind == "batched":
        region = _obs_span(
            "sinkhorn.batched", slices=n_slices, rows=n_rows, cols=n_cols
        )
    else:
        region = _obs_span(f"sinkhorn.{kind}", rows=n_rows, cols=n_cols)
    with region as sp:
        on_progress = None
        if kind == "batched" and sp.enabled:
            # Active-mask occupancy: how many slices still iterate.
            def on_progress(active_count: int) -> None:
                sp.sample("active_slices", active_count)

        # Looked up at call time, so a substituted core is the one that
        # runs.
        run, timed_out = kernels.sinkhorn_core_batched(
            work,
            row_targets,
            col_targets,
            tol=tol,
            max_iterations=max_iterations,
            row_scale=row_scale,
            col_scale=col_scale,
            residual=residual,
            active=active,
            iterations=iterations,
            trace=trace,
            t_end=t_end,
            on_progress=on_progress,
        )
        converged = ~active
        # count_nonzero is the cheap any() on a bool mask.
        pending = np.count_nonzero(active)
        if sp.enabled and kind == "batched":
            sp.note(
                iterations=run,
                converged_slices=int(converged.sum()),
                max_residual=float(residual.max()),
                timed_out=timed_out,
            )
        elif sp.enabled:
            sp.note(
                iterations=run,
                converged=bool(converged[0]),
                residual=float(residual[0]),
                timed_out=timed_out,
            )
            sp.sample("residual", residual_histories(trace, 1)[0])
    if _metrics.metrics_enabled():
        updates = [
            update
            for its, res, ok in zip(iterations, residual, converged)
            for update in (
                ("repro_sinkhorn_runs_total", (kind, "true" if ok else "false"), 1.0),
                ("repro_sinkhorn_iterations", (kind,), int(its)),
                ("repro_sinkhorn_exit_residual", (kind,), float(res)),
            )
        ]
        if warm_start is not None:
            outcome = "pending" if pending else "converged"
            updates.append(
                ("repro_backend_warm_start_total", (f"sinkhorn_{kind}", outcome), 1.0)
            )
        _metrics.record(*updates)
    if require_convergence and pending:
        bad = np.flatnonzero(active)
        worst = float(residual[bad].max())
        batched = kind == "batched"
        raise ConvergenceError(
            convergence_message(
                f"{pending} of {n_slices} slices" if batched else _SUBJECTS[kind],
                tol=tol,
                iterations=run,
                residual=worst,
                failing=bad[:5].tolist() if batched else None,
                deadline_s=deadline_s if timed_out else None,
            ),
            iterations=run,
            residual=worst,
        )
    return BatchNormalizationResult(
        matrix=work,
        row_scale=row_scale,
        col_scale=col_scale,
        converged=converged,
        iterations=iterations,
        residual=residual,
        residual_history=(
            functools.partial(residual_histories, trace, n_slices)
            if keep_history
            else None
        ),
        row_target=row_target,
        col_target=col_target,
    )


def _check_entries(work: np.ndarray, what: str) -> None:
    """Reject infinite or negative entries (``what`` names the input)."""
    if np.isinf(work).any():
        raise MatrixValueError(f"{what} must be finite (got inf entries)")
    if (work < 0).any():
        raise MatrixValueError(f"{what} must be non-negative")


def _check_targets(row_target, col_target, n_rows: int, n_cols: int):
    """Validated ``(row_target, col_target)``; ``col_target`` defaults to
    the one consistent value ``T * row_target / M``."""
    row_target = check_positive_scalar(row_target, name="row_target")
    implied = n_rows * row_target / n_cols
    if col_target is None:
        return row_target, implied
    col_target = check_positive_scalar(col_target, name="col_target")
    # np.isclose(rtol=1e-12, atol=0) in plain float arithmetic.
    if abs(col_target - implied) > 1e-12 * abs(implied):
        raise MatrixValueError(
            "inconsistent targets: need T*row_target == M*col_target "
            f"({n_rows}*{row_target} != {n_cols}*{col_target})"
        )
    return row_target, col_target


def sinkhorn_knopp(
    matrix,
    *,
    row_target: float = 1.0,
    col_target: float | None = None,
    tol: float = 1e-8,
    max_iterations: int = 100_000,
    require_convergence: bool = True,
    deadline_s: float | None = None,
    warm_start=None,
) -> NormalizationResult:
    """Scale ``matrix`` so rows sum to ``row_target`` and columns to
    ``col_target`` by alternating column and row normalizations.

    Parameters
    ----------
    matrix : array-like, shape (T, M)
        Non-negative matrix with no all-zero row or column.
    row_target : float
        Desired sum of every row.
    col_target : float, optional
        Desired sum of every column.  Defaults to the unique consistent
        value ``T * row_target / M`` (the grand total of the matrix is
        both ``T * row_target`` and ``M * col_target``).  An explicit
        inconsistent pair is rejected.
    tol : float
        Convergence threshold on the largest absolute row/column-sum
        error (the paper stops at 1e-8); finite and >= 0.
    max_iterations : int
        Upper bound on full (column pass + row pass) iterations; an
        integer >= 1.
    require_convergence : bool
        When True (default) a :class:`~repro.exceptions.ConvergenceError`
        is raised if the tolerance is not reached; when False the best
        iterate is returned with ``converged=False`` so callers can
        inspect the residual history (useful for the decomposable
        matrices of Section VI).
    deadline_s : float, optional
        Wall-clock budget for the iteration.  When it expires the loop
        stops exactly as if ``max_iterations`` had been exhausted: the
        best iterate is returned flagged ``converged=False`` (or a
        :class:`~repro.exceptions.ConvergenceError` naming the expired
        deadline is raised under ``require_convergence=True``), so a
        non-normalizable input can never hang a caller past its budget.
    warm_start : NormalizationResult or (row_scale, col_scale), optional
        Scaling vectors from a previous run (e.g. on an unperturbed
        copy of this matrix) applied before iterating, so
        near-identical resubmissions re-converge in a few iterations.
        The reported ``row_scale``/``col_scale`` include the
        warm-start factors, and ``iterations`` counts only the new
        iterations.

    Returns
    -------
    NormalizationResult

    Notes
    -----
    Following paper eq. (9) the column pass runs first; iteration ``k``
    in the result counts one column pass followed by one row pass, and
    the stopping rule checks the *joint* residual after the row pass —
    identical to the procedure the paper reports converging in 6 and 7
    iterations on the SPEC CINT/CFP matrices.
    """
    tol = check_positive_scalar(tol, name="tol", allow_zero=True)
    max_iterations = check_positive_int(max_iterations, name="max_iterations")
    work = as_float_array(matrix, ndim=2, name="matrix").copy()
    _check_entries(work, "matrix")
    n_rows, n_cols = work.shape
    row_target, col_target = _check_targets(
        row_target, col_target, n_rows, n_cols
    )
    result = _scale_stack(
        work[None],
        row_target,
        col_target,
        kind="scalar",
        warm_start=warm_start,
        tol=tol,
        max_iterations=max_iterations,
        require_convergence=require_convergence,
        deadline_s=deadline_s,
    )
    return _slice(result, 0, copy=False)


def scale_to_margins(
    matrix,
    row_sums,
    col_sums,
    *,
    tol: float = 1e-10,
    max_iterations: int = 100_000,
    require_convergence: bool = True,
    deadline_s: float | None = None,
    warm_start=None,
) -> NormalizationResult:
    """Scale ``matrix`` to *prescribed, possibly unequal* margins.

    The generalized Sinkhorn problem: find diagonal ``D1, D2`` so that
    ``D1 @ A @ D2`` has row sums ``row_sums[i]`` and column sums
    ``col_sums[j]``.  The grand totals must agree
    (``sum(row_sums) == sum(col_sums)``); for positive matrices the
    alternating iteration converges to the unique solution.

    This is the workhorse of :mod:`repro.generate.target_driven`:
    because TMA is invariant under any diagonal row/column scaling (the
    standard form absorbs it, Theorem 1), imposing margins whose
    adjacent-ratio averages equal the target MPH and TDH produces a
    matrix with *exactly* those three measure values.

    Returns a :class:`NormalizationResult` whose ``row_target``/
    ``col_target`` are the prescribed ``(T,)``/``(M,)`` margins, so
    ``max_sum_error()`` and the residual both measure the largest
    absolute deviation from them.  ``tol``/``max_iterations``/
    ``warm_start`` behave exactly as in
    :func:`sinkhorn_knopp`.
    """
    tol = check_positive_scalar(tol, name="tol", allow_zero=True)
    max_iterations = check_positive_int(max_iterations, name="max_iterations")
    work = as_float_array(matrix, ndim=2, name="matrix").copy()
    _check_entries(work, "matrix")
    n_rows, n_cols = work.shape
    # Copies: the result keeps them as its targets.
    r = np.array(row_sums, dtype=np.float64).reshape(-1)
    c = np.array(col_sums, dtype=np.float64).reshape(-1)
    if r.shape[0] != n_rows or c.shape[0] != n_cols:
        raise MatrixValueError(
            f"margin lengths must match the matrix shape {work.shape}, got "
            f"{r.shape[0]} row sums and {c.shape[0]} column sums"
        )
    if (r <= 0).any() or (c <= 0).any():
        raise MatrixValueError("prescribed margins must be strictly positive")
    if not np.isclose(r.sum(), c.sum(), rtol=1e-9):
        raise MatrixValueError(
            "inconsistent margins: sum(row_sums) must equal sum(col_sums) "
            f"({r.sum():g} != {c.sum():g})"
        )
    result = _scale_stack(
        work[None],
        r,
        c,
        kind="margins",
        warm_start=warm_start,
        tol=tol,
        max_iterations=max_iterations,
        require_convergence=require_convergence,
        deadline_s=deadline_s,
    )
    return _slice(result, 0, copy=False)


def scale_by_diagonals(
    matrix, row_scale, col_scale
) -> np.ndarray:
    """Compute ``D1 @ A @ D2`` for diagonal scalings given as vectors.

    This is the closed form of Theorem 1's conclusion; use it to re-apply
    a scaling recovered by :func:`sinkhorn_knopp` to another matrix with
    the same labels (e.g. a perturbed copy).
    """
    arr = as_float_array(matrix, ndim=2, name="matrix")
    row_scale = np.asarray(row_scale, dtype=np.float64).reshape(-1)
    col_scale = np.asarray(col_scale, dtype=np.float64).reshape(-1)
    if row_scale.shape[0] != arr.shape[0] or col_scale.shape[0] != arr.shape[1]:
        raise MatrixValueError(
            "row_scale/col_scale lengths must match the matrix shape "
            f"{arr.shape}, got {row_scale.shape[0]} and {col_scale.shape[0]}"
        )
    return row_scale[:, None] * arr * col_scale[None, :]
