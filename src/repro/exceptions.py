"""Exception hierarchy for :mod:`repro`.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still distinguishing the failure modes that the paper calls out
explicitly (non-convergent normalization, non-normalizable structure,
malformed environment matrices).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "MatrixShapeError",
    "MatrixValueError",
    "EmptyRowColumnError",
    "WeightError",
    "ConvergenceError",
    "NotNormalizableError",
    "DatasetError",
    "SchedulingError",
    "GenerationError",
]


class ReproError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class MatrixShapeError(ReproError, ValueError):
    """An environment matrix has an invalid shape (empty, non-2D, ...)."""


class MatrixValueError(ReproError, ValueError):
    """An environment matrix contains invalid values (negative, NaN, ...)."""


class EmptyRowColumnError(MatrixValueError):
    """An ECS matrix has an all-zero row or column.

    The paper (Section II-B) forbids this: an all-zero column is a machine
    that can execute no task type, an all-zero row is a task type that no
    machine can execute.  Neither describes a usable HC environment and
    both break every measure (row/column sums of zero).
    """


class WeightError(ReproError, ValueError):
    """A task or machine weight vector is invalid (wrong length, <= 0)."""


class ConvergenceError(ReproError, RuntimeError):
    """Iterative normalization failed to converge within the allowed
    number of iterations.

    Section VI of the paper shows that matrices with zero entries may not
    be normalizable at all; :mod:`repro.structure` can diagnose this
    before (or after) the iteration is attempted.
    """

    def __init__(self, message: str, *, iterations: int | None = None,
                 residual: float | None = None) -> None:
        super().__init__(message)
        #: Number of iterations performed before giving up.
        self.iterations = iterations
        #: Final max row/column-sum residual when the iteration stopped.
        self.residual = residual


class NotNormalizableError(ReproError, ValueError):
    """The matrix provably admits no equal-row-sum/equal-column-sum
    scaling (it is decomposable in the Marshall–Olkin sense and fails the
    pattern test), so a standard ECS matrix does not exist."""


class DatasetError(ReproError, KeyError):
    """A named dataset, machine, or task type was not found.

    A ``KeyError``, so ``except KeyError`` catches it, but it prints its
    message as given: ``KeyError.__str__`` would quote it as a key."""

    __str__ = Exception.__str__


class SchedulingError(ReproError, ValueError):
    """A mapping-heuristic input is invalid (e.g. unknown heuristic name,
    or a task that no machine can execute)."""


class GenerationError(ReproError, ValueError):
    """An ETC-matrix generator was given unsatisfiable parameters."""
