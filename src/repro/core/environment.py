"""ETC and ECS matrix classes.

Both classes are thin, immutable-by-convention wrappers around a
``float64`` numpy array plus row (task type) and column (machine) labels
and optional weighting-factor vectors.  The arrays handed out by
``.values`` are read-only views so measure code can rely on the data not
changing underneath it; every editing operation returns a new object.

Conventions (DESIGN.md Section 5):

* ECS(i, j) = 1 / ETC(i, j); an incompatible task/machine pair is
  ``inf`` in the ETC matrix and ``0`` in the ECS matrix.
* Rows are task types, columns are machines — "T × M" throughout.
* All-zero ECS rows/columns (all-``inf`` ETC rows/columns) are rejected
  at construction (paper Section II-B).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .._validation import (
    as_ecs_array,
    as_etc_array,
    check_positive_scalar,
    check_weights,
)
from ..exceptions import DatasetError, MatrixShapeError, MatrixValueError

__all__ = ["ETCMatrix", "ECSMatrix", "etc_to_ecs", "ecs_to_etc"]


def etc_to_ecs(etc: np.ndarray) -> np.ndarray:
    """Convert a raw ETC array to a raw ECS array (paper eq. 1).

    ``inf`` execution times (incompatible pairs) map to speed ``0``.
    The input is validated; the output is a fresh array.
    """
    arr = as_etc_array(etc)
    with np.errstate(divide="ignore"):
        ecs = np.where(np.isinf(arr), 0.0, 1.0 / arr)
    return ecs


def ecs_to_etc(ecs: np.ndarray) -> np.ndarray:
    """Convert a raw ECS array to a raw ETC array.

    Speed ``0`` (incompatible pair) maps to time ``inf``.
    """
    arr = as_ecs_array(ecs)
    with np.errstate(divide="ignore"):
        etc = np.where(arr == 0.0, np.inf, 1.0 / np.where(arr == 0.0, 1.0, arr))
    return etc


def _default_names(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(count))


def _check_names(names, count: int, *, kind: str) -> tuple[str, ...]:
    if names is None:
        return _default_names("t" if kind == "task" else "m", count)
    names = tuple(str(n) for n in names)
    if len(names) != count:
        raise MatrixShapeError(
            f"expected {count} {kind} names, got {len(names)}"
        )
    if len(set(names)) != len(names):
        raise MatrixValueError(f"{kind} names must be unique")
    return names


def _resolve_indices(
    selection: Iterable[int | str] | None,
    names: Sequence[str],
    *,
    kind: str,
) -> list[int]:
    """Map a mixed list of indices/names to a list of integer indices."""
    if selection is None:
        return list(range(len(names)))
    index_of = {name: i for i, name in enumerate(names)}
    out: list[int] = []
    for item in selection:
        if isinstance(item, str):
            if item not in index_of:
                raise DatasetError(f"unknown {kind} {item!r}")
            out.append(index_of[item])
        else:
            idx = int(item)
            if not -len(names) <= idx < len(names):
                raise DatasetError(
                    f"{kind} index {idx} out of range for {len(names)} {kind}s"
                )
            out.append(idx % len(names))
    if not out:
        raise MatrixShapeError(f"selection of {kind}s must be non-empty")
    if len(set(out)) != len(out):
        raise MatrixValueError(f"selection of {kind}s contains duplicates")
    return out


class _BaseMatrix:
    """Shared labelled-matrix behaviour for ETC and ECS wrappers."""

    _kind = "matrix"

    def __init__(self, values, *, task_names=None, machine_names=None,
                 task_weights=None, machine_weights=None) -> None:
        arr = self._validate(values)
        arr.setflags(write=False)
        self._values = arr
        self._task_names = _check_names(task_names, arr.shape[0], kind="task")
        self._machine_names = _check_names(
            machine_names, arr.shape[1], kind="machine"
        )
        self._task_weights = check_weights(
            task_weights, arr.shape[0], name="task_weights"
        )
        self._task_weights.setflags(write=False)
        self._machine_weights = check_weights(
            machine_weights, arr.shape[1], name="machine_weights"
        )
        self._machine_weights.setflags(write=False)

    # -- subclass hook -------------------------------------------------
    @staticmethod
    def _validate(values) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- basic accessors -----------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """The underlying T × M array (read-only view)."""
        return self._values

    @property
    def shape(self) -> tuple[int, int]:
        return self._values.shape  # type: ignore[return-value]

    @property
    def n_tasks(self) -> int:
        """Number of task types T (rows)."""
        return self._values.shape[0]

    @property
    def n_machines(self) -> int:
        """Number of machines M (columns)."""
        return self._values.shape[1]

    @property
    def task_names(self) -> tuple[str, ...]:
        return self._task_names

    @property
    def machine_names(self) -> tuple[str, ...]:
        return self._machine_names

    @property
    def task_weights(self) -> np.ndarray:
        """Task-type weighting factors w_t (paper eq. 4/6), default ones."""
        return self._task_weights

    @property
    def machine_weights(self) -> np.ndarray:
        """Machine weighting factors w_m (paper eq. 4/6), default ones."""
        return self._machine_weights

    def task_index(self, task: int | str) -> int:
        """Resolve a task name or index to an integer row index."""
        return _resolve_indices([task], self._task_names, kind="task")[0]

    def machine_index(self, machine: int | str) -> int:
        """Resolve a machine name or index to an integer column index."""
        return _resolve_indices([machine], self._machine_names, kind="machine")[0]

    # -- editing (all return new objects) --------------------------------
    def _rebuild(self, values, task_idx: Sequence[int], machine_idx: Sequence[int]):
        return type(self)(
            values,
            task_names=[self._task_names[i] for i in task_idx],
            machine_names=[self._machine_names[j] for j in machine_idx],
            task_weights=self._task_weights[list(task_idx)],
            machine_weights=self._machine_weights[list(machine_idx)],
        )

    def submatrix(self, tasks=None, machines=None):
        """Extract the environment restricted to ``tasks`` × ``machines``.

        Either argument may mix integer indices and names; ``None`` keeps
        every row/column.  Used for the paper's Fig. 8 two-by-two SPEC
        extractions and for what-if studies.
        """
        ti = _resolve_indices(tasks, self._task_names, kind="task")
        mi = _resolve_indices(machines, self._machine_names, kind="machine")
        values = self._values[np.ix_(ti, mi)]
        return self._rebuild(values, ti, mi)

    def drop_tasks(self, tasks: Iterable[int | str]):
        """Remove the given task types (what-if: Section I applications)."""
        drop = set(_resolve_indices(list(tasks), self._task_names, kind="task"))
        keep = [i for i in range(self.n_tasks) if i not in drop]
        if not keep:
            raise MatrixShapeError("cannot drop every task type")
        return self._rebuild(self._values[keep, :], keep, range(self.n_machines))

    def drop_machines(self, machines: Iterable[int | str]):
        """Remove the given machines (what-if: Section I applications)."""
        drop = set(
            _resolve_indices(list(machines), self._machine_names, kind="machine")
        )
        keep = [j for j in range(self.n_machines) if j not in drop]
        if not keep:
            raise MatrixShapeError("cannot drop every machine")
        return self._rebuild(self._values[:, keep], range(self.n_tasks), keep)

    def add_task(self, name: str, row, *, weight: float = 1.0):
        """Append a task type with the given row of values."""
        row = np.asarray(row, dtype=np.float64).reshape(-1)
        if row.shape[0] != self.n_machines:
            raise MatrixShapeError(
                f"new task row must have {self.n_machines} entries, got "
                f"{row.shape[0]}"
            )
        values = np.vstack([self._values, row[None, :]])
        return type(self)(
            values,
            task_names=[*self._task_names, str(name)],
            machine_names=self._machine_names,
            task_weights=np.append(
                self._task_weights, check_positive_scalar(weight, name="weight")
            ),
            machine_weights=self._machine_weights,
        )

    def add_machine(self, name: str, column, *, weight: float = 1.0):
        """Append a machine with the given column of values."""
        column = np.asarray(column, dtype=np.float64).reshape(-1)
        if column.shape[0] != self.n_tasks:
            raise MatrixShapeError(
                f"new machine column must have {self.n_tasks} entries, got "
                f"{column.shape[0]}"
            )
        values = np.hstack([self._values, column[:, None]])
        return type(self)(
            values,
            task_names=self._task_names,
            machine_names=[*self._machine_names, str(name)],
            task_weights=self._task_weights,
            machine_weights=np.append(
                self._machine_weights, check_positive_scalar(weight, name="weight")
            ),
        )

    def with_weights(self, *, task_weights=None, machine_weights=None):
        """Return a copy with new weighting-factor vectors.

        ``None`` keeps the current vector for that axis.
        """
        return type(self)(
            self._values,
            task_names=self._task_names,
            machine_names=self._machine_names,
            task_weights=(
                self._task_weights if task_weights is None else task_weights
            ),
            machine_weights=(
                self._machine_weights
                if machine_weights is None
                else machine_weights
            ),
        )

    # -- protocol support -------------------------------------------------
    def __array__(self, dtype=None, copy=None):
        arr = self._values
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        if copy:
            arr = arr.copy()
        return arr

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return (
            self._task_names == other._task_names
            and self._machine_names == other._machine_names
            and np.array_equal(self._values, other._values)
            and np.array_equal(self._task_weights, other._task_weights)
            and np.array_equal(self._machine_weights, other._machine_weights)
        )

    def __hash__(self):  # mutable-ish container semantics: unhashable
        return NotImplemented  # pragma: no cover

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(T={self.n_tasks}, M={self.n_machines}, "
            f"tasks={list(self._task_names[:3])}"
            f"{'...' if self.n_tasks > 3 else ''}, "
            f"machines={list(self._machine_names[:3])}"
            f"{'...' if self.n_machines > 3 else ''})"
        )

    def to_text(self, *, precision: int = 1, max_rows: int = 30) -> str:
        """Render the matrix as an aligned, labelled text table.

        ``inf`` entries print as ``-`` (incompatible pair); matrices
        taller than ``max_rows`` are elided in the middle.

        Examples
        --------
        >>> print(ETCMatrix([[1.5, 2.0]], task_names=["t"],
        ...                 machine_names=["a", "b"]).to_text())
        task    a    b
        t     1.5  2.0
        """

        def cell(value: float) -> str:
            if np.isinf(value):
                return "-"
            return f"{value:.{precision}f}"

        rows = list(range(self.n_tasks))
        elided = False
        if self.n_tasks > max_rows:
            head = max_rows // 2
            rows = rows[:head] + rows[-(max_rows - head):]
            elided = True
        body = [
            [self._task_names[i], *(cell(v) for v in self._values[i])]
            for i in rows
        ]
        header = ["task", *self._machine_names]
        widths = [
            max(len(header[c]), *(len(line[c]) for line in body))
            for c in range(len(header))
        ]
        lines = [
            "  ".join(
                header[c].ljust(widths[c]) if c == 0
                else header[c].rjust(widths[c])
                for c in range(len(header))
            )
        ]
        for k, line in enumerate(body):
            if elided and k == max_rows // 2:
                lines.append("...")
            lines.append(
                "  ".join(
                    line[c].ljust(widths[c]) if c == 0
                    else line[c].rjust(widths[c])
                    for c in range(len(header))
                )
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.to_text()


class ETCMatrix(_BaseMatrix):
    """An estimated-time-to-compute matrix (paper Section I).

    Entry ``(i, j)`` is the estimated time to run one task of type ``i``
    on machine ``j`` alone.  Entries are strictly positive; ``inf``
    marks a task/machine pair that is incompatible (the corresponding
    ECS entry is 0).

    Parameters
    ----------
    values : array-like, shape (T, M)
        Execution-time estimates.
    task_names, machine_names : sequence of str, optional
        Row/column labels; default ``t1..tT`` / ``m1..mM``.
    task_weights, machine_weights : array-like, optional
        Strictly positive weighting factors (paper eq. 4/6).

    Examples
    --------
    >>> etc = ETCMatrix([[1.0, 2.0], [4.0, 2.0]])
    >>> etc.to_ecs().values
    array([[1.  , 0.5 ],
           [0.25, 0.5 ]])
    """

    _kind = "ETC"

    @staticmethod
    def _validate(values) -> np.ndarray:
        return as_etc_array(values).copy()

    def to_ecs(self) -> "ECSMatrix":
        """The reciprocal ECS matrix (paper eq. 1, :func:`etc_to_ecs`),
        labels and weights preserved."""
        return ECSMatrix(
            etc_to_ecs(self._values),
            task_names=self._task_names,
            machine_names=self._machine_names,
            task_weights=self._task_weights,
            machine_weights=self._machine_weights,
        )

    def scaled(self, factor: float) -> "ETCMatrix":
        """Multiply every execution time by ``factor`` (unit change).

        The paper requires every heterogeneity measure to be invariant
        under this operation (property 2, Section I).
        """
        factor = check_positive_scalar(factor, name="factor")
        return type(self)(
            self._values * factor,
            task_names=self._task_names,
            machine_names=self._machine_names,
            task_weights=self._task_weights,
            machine_weights=self._machine_weights,
        )

    @property
    def compatibility(self) -> np.ndarray:
        """Boolean mask: True where the task type can run on the machine."""
        return np.isfinite(self._values)


class ECSMatrix(_BaseMatrix):
    """An estimated-computation-speed matrix (paper Section II-B).

    Entry ``(i, j)`` is the amount of task type ``i`` completed per unit
    time on machine ``j``; larger is faster.  Entries are finite and
    non-negative; 0 marks an incompatible pair.

    Examples
    --------
    >>> ecs = ECSMatrix([[4.0, 8.0, 5.0],
    ...                  [5.0, 9.0, 4.0],
    ...                  [6.0, 5.0, 2.0],
    ...                  [2.0, 1.0, 3.0]])
    >>> float(ecs.values[:, 0].sum())   # machine 1 performance (Fig. 1)
    17.0
    """

    _kind = "ECS"

    @staticmethod
    def _validate(values) -> np.ndarray:
        return as_ecs_array(values).copy()

    def to_etc(self) -> ETCMatrix:
        """The reciprocal ETC matrix (:func:`ecs_to_etc`), labels and
        weights preserved."""
        return ETCMatrix(
            ecs_to_etc(self._values),
            task_names=self._task_names,
            machine_names=self._machine_names,
            task_weights=self._task_weights,
            machine_weights=self._machine_weights,
        )

    def scaled(self, factor: float) -> "ECSMatrix":
        """Multiply every speed by ``factor`` (unit change)."""
        factor = check_positive_scalar(factor, name="factor")
        return type(self)(
            self._values * factor,
            task_names=self._task_names,
            machine_names=self._machine_names,
            task_weights=self._task_weights,
            machine_weights=self._machine_weights,
        )

    @property
    def compatibility(self) -> np.ndarray:
        """Boolean mask: True where the task type can run on the machine."""
        return self._values > 0

    def weighted_values(self) -> np.ndarray:
        """The ECS array with both weighting factors applied
        (``w_t[i] * w_m[j] * ECS(i, j)``, the summand of eqs. 4 and 6)."""
        return (
            self._task_weights[:, None]
            * self._machine_weights[None, :]
            * self._values
        )


def coerce_ecs_and_weights(
    matrix, task_weights=None, machine_weights=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one environment coercion: ``(ecs, w_t, w_m)`` as validated
    float64 arrays.

    Accepts an :class:`ECSMatrix` (stored weights used unless the caller
    overrides them), an :class:`ETCMatrix` (converted through paper
    eq. 1, stored weights used unless overridden), or a raw array-like
    (an ECS matrix).  ``_validation.weight_ecs(*coerce_ecs_and_weights(
    matrix))`` is the weighted ECS matrix of eqs. 4/6.
    """
    if isinstance(matrix, ETCMatrix):
        matrix = matrix.to_ecs()
    if isinstance(matrix, ECSMatrix):
        if task_weights is None:
            task_weights = matrix.task_weights
        if machine_weights is None:
            machine_weights = matrix.machine_weights
        ecs = matrix.values
    else:
        ecs = as_ecs_array(matrix)
    w_t = check_weights(task_weights, ecs.shape[0], name="task_weights")
    w_m = check_weights(machine_weights, ecs.shape[1], name="machine_weights")
    return ecs, w_t, w_m
