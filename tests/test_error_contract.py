"""The error contract of the entry points that validate once.

:func:`repro.characterize` validates its matrix at entry and then runs
private bodies that trust it; :func:`repro.normalize.standardize` and
:func:`repro.normalize.sinkhorn_knopp` keep their own checks.  This
pins the exact ``(exception type, message)`` every bad input gets from
each of them, as recorded while every kernel still re-validated its
input, so validating once drops no check and rewords no error.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.exceptions import (
    EmptyRowColumnError,
    MatrixShapeError,
    MatrixValueError,
    WeightError,
)
from repro.normalize import sinkhorn_knopp, standardize

GOOD = [[1.0, 2.0], [3.0, 4.0]]

#: name -> (matrix, keyword arguments)
INPUTS = {
    "nan": ([[1.0, float("nan")], [1.0, 1.0]], {}),
    "inf": ([[1.0, float("inf")], [1.0, 1.0]], {}),
    "negative": ([[1.0, -1.0], [1.0, 1.0]], {}),
    "zero_row": ([[0.0, 0.0], [1.0, 1.0]], {}),
    "zero_col": ([[0.0, 1.0], [0.0, 1.0]], {}),
    "one_d": ([1.0, 2.0], {}),
    "empty": (np.empty((0, 3)), {}),
    "ragged": ([[1.0, 2.0], [3.0]], {}),
    "weights_length": (GOOD, {"task_weights": [1.0]}),
    "weights_nonpositive": (GOOD, {"machine_weights": [1.0, 0.0]}),
}

ENTRY_POINTS = {
    "characterize": repro.characterize,
    "standardize": standardize,
    "sinkhorn_knopp": sinkhorn_knopp,
}

_ECS_INF = (
    "ECS matrix contains infinite entries; infinities belong in the ETC "
    "representation (use zero ECS for incompatible pairs)"
)
_ECS_ERRORS = {
    "nan": (MatrixValueError, "ECS matrix contains NaN entries"),
    "inf": (MatrixValueError, _ECS_INF),
    "negative": (MatrixValueError, "ECS matrix contains negative entries"),
    "zero_row": (
        EmptyRowColumnError,
        "ECS matrix has an all-zero row: a task type that no machine can "
        "execute",
    ),
    "zero_col": (
        EmptyRowColumnError,
        "ECS matrix has an all-zero column: a machine that can execute no "
        "task type",
    ),
    "one_d": (MatrixShapeError, "ECS matrix must be 2-D, got ndim=1 (shape (2,))"),
    "empty": (MatrixShapeError, "ECS matrix must be non-empty, got shape (0, 3)"),
    "weights_length": (
        WeightError,
        "task_weights must be a 1-D vector of length 2, got shape (1,)",
    ),
    "weights_nonpositive": (
        WeightError,
        "machine_weights must contain strictly positive finite values",
    ),
}
_ZERO_LINE = "matrix has an all-zero row or column; no scaling can fix that"

#: (entry point, input) -> (exception type, message)
EXPECTED = {
    **{("characterize", key): error for key, error in _ECS_ERRORS.items()},
    **{("standardize", key): error for key, error in _ECS_ERRORS.items()},
    ("sinkhorn_knopp", "nan"): (MatrixValueError, "matrix contains NaN entries"),
    ("sinkhorn_knopp", "inf"): (
        MatrixValueError,
        "matrix must be finite (got inf entries)",
    ),
    ("sinkhorn_knopp", "negative"): (
        MatrixValueError,
        "matrix must be non-negative",
    ),
    ("sinkhorn_knopp", "zero_row"): (MatrixValueError, _ZERO_LINE),
    ("sinkhorn_knopp", "zero_col"): (MatrixValueError, _ZERO_LINE),
    ("sinkhorn_knopp", "one_d"): (
        MatrixShapeError,
        "matrix must be 2-D, got ndim=1 (shape (2,))",
    ),
    ("sinkhorn_knopp", "empty"): (
        MatrixShapeError,
        "matrix must be non-empty, got shape (0, 3)",
    ),
}

#: Ragged input fails inside numpy's array conversion with numpy's own
#: ValueError; only the start of its text is stable across versions.
RAGGED = (ValueError, "setting an array element with a sequence.")

CASES = [
    (entry, key)
    for entry in ENTRY_POINTS
    for key, (_matrix, kwargs) in INPUTS.items()
    # sinkhorn_knopp takes no weights.
    if not (entry == "sinkhorn_knopp" and kwargs)
]


@pytest.mark.parametrize("entry,key", CASES, ids=[f"{e}-{k}" for e, k in CASES])
def test_error_type_and_message(entry, key):
    matrix, kwargs = INPUTS[key]
    kind, message = RAGGED if key == "ragged" else EXPECTED[(entry, key)]
    with pytest.raises(Exception) as info:
        ENTRY_POINTS[entry](matrix, **kwargs)
    assert type(info.value) is kind
    if key == "ragged":
        assert str(info.value).startswith(message)
    else:
        assert str(info.value) == message


def test_every_case_has_an_expectation():
    assert sorted(EXPECTED) == sorted(c for c in CASES if c[1] != "ragged")


#: Valid weights whose product with a valid ECS matrix leaves float64:
#: the error names the weights, not the matrix.
FINITE = np.random.default_rng(0).uniform(0.5, 2.0, size=(4, 3))
#: Line sums too small to scale even unweighted.
TINY = np.full((3, 3), 1e-310)
_UNDERFLOW = (
    "task_weights and machine_weights underflow the weighted ECS matrix "
    "(a row or column sum is zero or too small to scale); rescale the "
    "weights"
)
OUT_OF_RANGE = {
    "overflow": (
        FINITE,
        {"task_weights": [1e300] * 4, "machine_weights": [1e300] * 3},
        "task_weights and machine_weights overflow the weighted ECS matrix "
        "(an entry w_t[i] * w_m[j] * ECS[i, j] exceeds the float64 range); "
        "rescale the weights",
    ),
    # Every entry underflows to zero.
    "underflow": (
        FINITE,
        {"task_weights": [1e-200] * 4, "machine_weights": [1e-200] * 3},
        _UNDERFLOW,
    ),
    # Entries near 1e-320: nonzero, but target / sum overflows.
    "subnormal": (
        FINITE,
        {"task_weights": [1e-160] * 4, "machine_weights": [1e-160] * 3},
        _UNDERFLOW,
    ),
    # The matrix is out of range too, but the weights zero it out.
    "tiny_zeroed": (TINY, {"task_weights": [1e-200] * 3}, _UNDERFLOW),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", ["characterize", "standardize"])
@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_weights_are_named(entry, case):
    matrix, kwargs, message = OUT_OF_RANGE[case]
    with pytest.raises(WeightError) as info:
        ENTRY_POINTS[entry](matrix, **kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize("entry", ["characterize", "standardize"])
def test_a_matrix_too_small_to_scale_is_named_even_with_weights(entry):
    # The matrix alone is already out of range: the weights are not at
    # fault, so the error is Sinkhorn's "rescale the matrix".
    with pytest.raises(MatrixValueError, match="too small to scale.*matrix"):
        ENTRY_POINTS[entry](TINY, task_weights=[0.5] * 3)


def test_weights_that_underflow_some_entries_still_work():
    # One entry underflows to zero, but no row or column is left empty.
    ecs = np.ones((3, 3))
    ecs[0, 2] = 1e-170
    profile = repro.characterize(ecs, machine_weights=[1.0, 1.0, 1e-160])
    assert profile.tma_method == "standard"
