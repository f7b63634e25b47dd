"""The error contract of the entry points that validate once.

:func:`repro.characterize` validates its matrix at entry and then runs
private bodies that trust it; :func:`repro.normalize.standardize` and
:func:`repro.normalize.sinkhorn_knopp` keep their own checks.  This
pins the exact ``(exception type, message)`` every bad input gets from
each of them, as recorded while every kernel still re-validated its
input, so validating once drops no check and rewords no error.

The batched entry points (``characterize_ensemble``,
``standardize_batched``, ``sinkhorn_knopp_batched``,
``characterize_store``) are pinned the same way, with their quarantine
reports, as recorded while they still chained each other's checks; only
the rows for finite entries whose line sums cannot be scaled changed
when they began to validate once (see ``_MEMBER_FAULTS``).

Every case runs with warnings as errors: a bad input gets its error and
nothing else.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.batch import sinkhorn_knopp_batched
from repro.exceptions import (
    ConvergenceError,
    EmptyRowColumnError,
    MatrixShapeError,
    MatrixValueError,
    WeightError,
)
from repro.normalize import sinkhorn_knopp, standardize

pytestmark = pytest.mark.filterwarnings("error")

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
    "complex": ([[1.0 + 5.0j, 2.0], [3.0, 4.0]], {}),
    # Not numbers, though numpy would cast all but the dict to float.
    "string_entry": ([[1.5, 2.0], [3, "4"]], {}),
    "bytes_entry": (np.array([[b"1", b"2"], [b"3", b"4"]]), {}),
    "bool_array": (np.array([[True, False], [True, True]]), {}),
    "object_entry": ([[1.0, {}], [1.0, 1.0]], {}),
    # Finite entries whose line sums leave the float64 range.
    "overflow": (np.full((3, 3), 1e308), {}),
    "weights_length": (GOOD, {"task_weights": [1.0]}),
    "weights_nonpositive": (GOOD, {"machine_weights": [1.0, 0.0]}),
    "tol_nan": (GOOD, {"tol": float("nan")}),
    "tol_negative": (GOOD, {"tol": -1.0}),
    "max_iterations_negative": (GOOD, {"max_iterations": -5}),
    "max_iterations_float": (GOOD, {"max_iterations": 2.5}),
    # Past the int64 counters the kernels keep.
    "max_iterations_huge": (GOOD, {"max_iterations": 2**63}),
}

ENTRY_POINTS = {
    "characterize": repro.characterize,
    "standardize": standardize,
    "sinkhorn_knopp": sinkhorn_knopp,
}

#: The dtype numpy infers for each non-numeric input.
_DTYPES = {
    "string_entry": "<U32",
    "bytes_entry": "|S1",
    "bool_array": "bool",
    "object_entry": "object",
}


def _dtype_errors(name: str) -> dict:
    """The non-numeric rows, for an entry point that names its input
    ``name``."""
    return {
        key: (
            MatrixValueError,
            f"{name} must hold int or float entries, got dtype {dtype}",
        )
        for key, dtype in _DTYPES.items()
    }


_ECS_INF = (
    "ECS matrix contains infinite entries; infinities belong in the ETC "
    "representation (use zero ECS for incompatible pairs)"
)
_SUMS_OVERFLOW = (
    MatrixValueError,
    "row or column sums overflow to inf; rescale the matrix (e.g. divide it "
    "by its largest entry) so every row and column sum is finite",
)
#: The same for every entry point that takes the keyword.
_CONTROL_ERRORS = {
    "tol_nan": (MatrixValueError, "tol must be finite, got nan"),
    "tol_negative": (MatrixValueError, "tol must be >= 0, got -1.0"),
    "max_iterations_negative": (
        MatrixValueError,
        "max_iterations must be >= 1, got -5",
    ),
    "max_iterations_float": (MatrixValueError, "max_iterations must be an integer"),
    "max_iterations_huge": (
        MatrixValueError,
        "max_iterations must be <= 9223372036854775807 (the int64 maximum), "
        "got 9223372036854775808",
    ),
}
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
    "ragged": (MatrixShapeError, "ECS matrix is ragged: its rows differ in length"),
    "complex": (MatrixValueError, "ECS matrix must be real-valued"),
    **_dtype_errors("ECS matrix"),
    "overflow": _SUMS_OVERFLOW,
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
    ("sinkhorn_knopp", "ragged"): (
        MatrixShapeError,
        "matrix is ragged: its rows differ in length",
    ),
    ("sinkhorn_knopp", "complex"): (MatrixValueError, "matrix must be real-valued"),
    **{("sinkhorn_knopp", k): e for k, e in _dtype_errors("matrix").items()},
    ("sinkhorn_knopp", "overflow"): _SUMS_OVERFLOW,
    **{
        (entry, key): error
        for entry in ENTRY_POINTS
        for key, error in _CONTROL_ERRORS.items()
        # characterize takes no max_iterations.
        if not (entry == "characterize" and key.startswith("max_iterations"))
    },
}

CASES = [
    (entry, key)
    for entry in ENTRY_POINTS
    for key, (_matrix, kwargs) in INPUTS.items()
    # sinkhorn_knopp takes no weights, characterize no max_iterations.
    if not (entry == "sinkhorn_knopp" and key.startswith("weights"))
    and not (entry == "characterize" and "max_iterations" in kwargs)
]


@pytest.mark.parametrize("entry,key", CASES, ids=[f"{e}-{k}" for e, k in CASES])
def test_error_type_and_message(entry, key):
    matrix, kwargs = INPUTS[key]
    kind, message = EXPECTED[(entry, key)]
    with pytest.raises(Exception) as info:
        ENTRY_POINTS[entry](matrix, **kwargs)
    assert type(info.value) is kind
    assert str(info.value) == message


def test_every_case_has_an_expectation():
    assert sorted(EXPECTED) == sorted(CASES)


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


def _stack_with(value, where=(1, 0, 1)):
    """A (3, 2, 2) stack of ones with ``value`` written at ``where``."""
    stack = np.ones((3, 2, 2))
    stack[where] = value
    return stack


def _complex_stack():
    """A (3, 2, 2) complex stack of ones with one imaginary part."""
    stack = np.ones((3, 2, 2), dtype=complex)
    stack[1, 0, 1] = 1.0 + 5.0j
    return stack


def _between_healthy(member):
    """An (8, 8) ``member`` between two healthy 8x8 members."""
    rng = np.random.default_rng(3)
    healthy = rng.uniform(0.5, 2.0, (2, 8, 8))
    return np.stack([healthy[0], member, healthy[1]])


#: name -> (ensemble, keyword arguments)
ENSEMBLE_INPUTS = {
    "nan": (_stack_with(float("nan")), {}),
    "inf": (_stack_with(float("inf")), {}),
    "negative": (_stack_with(-1.0), {}),
    "zero_line": (_stack_with(0.0, (1, 0, slice(None))), {}),
    "empty": (np.empty((0, 2, 2)), {}),
    "two_d": (np.ones((2, 2)), {}),
    "empty_list": ([], {}),
    "weights_length": (np.ones((3, 2, 2)), {"task_weights": [1.0]}),
    "policy": (np.ones((3, 2, 2)), {"policy": "bogus"}),
    "tma_fallback": (np.ones((3, 2, 2)), {"tma_fallback": "bogus"}),
    # Finite entries whose line sums leave the float64 range.
    "overflow": (_between_healthy(np.full((8, 8), 1e308)), {}),
    "tiny": (_between_healthy(np.full((8, 8), 1e-320)), {}),
    "complex": (_complex_stack(), {}),
    "complex_members": (list(_complex_stack()), {"policy": "quarantine"}),
    # A list goes member by member through characterize_ensemble, an
    # array as one stack.
    "string_entry": ([INPUTS["string_entry"][0]] * 3, {}),
    "bytes_entry": (np.stack([INPUTS["bytes_entry"][0]] * 3), {}),
    "bool_array": (np.stack([INPUTS["bool_array"][0]] * 3), {}),
    "object_entry": ([INPUTS["object_entry"][0]] * 3, {}),
    # Member 1 has ragged rows: a list member, or a stack that is not one.
    "ragged_rows": ([GOOD, INPUTS["ragged"][0], GOOD], {}),
    "ragged_rows_quarantine": (
        [GOOD, INPUTS["ragged"][0], GOOD],
        {"policy": "quarantine"},
    ),
    **{key: (np.ones((3, 2, 2)), INPUTS[key][1]) for key in _CONTROL_ERRORS},
    # The caller's argument is not the members' fault.
    "tol_nan_quarantine": (
        np.ones((3, 2, 2)),
        {"tol": float("nan"), "policy": "quarantine"},
    ),
}


def _characterize_store(stack, tmp_path, **kwargs):
    from repro.shard import characterize_store, write_store

    return characterize_store(write_store(tmp_path / "store", stack), **kwargs)


ENSEMBLE_ENTRY_POINTS = {
    "characterize_ensemble": lambda envs, tmp, **kw: repro.characterize_ensemble(
        envs, **kw
    ),
    "standardize_batched": lambda envs, tmp, **kw: repro.standardize_batched(
        envs, **kw
    ),
    "sinkhorn_knopp_batched": lambda envs, tmp, **kw: sinkhorn_knopp_batched(
        envs, **kw
    ),
    "characterize_store": lambda envs, tmp, **kw: _characterize_store(
        envs, tmp, **kw
    ),
}

_ECS_STACK_INF = (
    "ECS stack contains infinite entries; infinities belong in the ETC "
    "representation (use zero ECS for incompatible pairs)"
)
_ECS_STACK_DATA = {
    "nan": (MatrixValueError, "ECS stack contains NaN entries"),
    "inf": (MatrixValueError, _ECS_STACK_INF),
    "negative": (MatrixValueError, "ECS stack contains negative entries"),
    "zero_line": (
        MatrixValueError,
        "ECS stack has an all-zero row or column in slice(s) [1]",
    ),
}

_POLICY = (
    MatrixValueError,
    "policy must be 'raise', 'quarantine' or 'repair', got 'bogus'",
)
_TMA_FALLBACK = (
    MatrixValueError,
    "tma_fallback must be 'limit', 'column' or 'raise', got 'bogus'",
)
_OVERFLOW = (
    MatrixValueError,
    "row or column sums overflow to inf in slice(s) [1]; rescale the matrix "
    "(e.g. divide it by its largest entry) so every row and column sum is "
    "finite",
)
_TINY = (
    MatrixValueError,
    "row or column sums are too small to scale (target / sum overflows to "
    "inf) in slice(s) [1]; rescale the matrix (e.g. divide it by its largest "
    "entry) so every row and column sum is a normal float",
)
#: The message sinkhorn_knopp_batched gives, and standardize_batched
#: gives for what it does not screen itself.
_STACK_ERRORS = {
    "nan": (MatrixValueError, "stack contains NaN entries"),
    "inf": (MatrixValueError, "stack must be finite (got inf entries)"),
    "negative": (MatrixValueError, "stack must be non-negative"),
    "zero_line": (
        MatrixValueError,
        "stack has an all-zero row or column in slice(s) [1]; no scaling "
        "can fix that",
    ),
    "empty": (
        MatrixShapeError,
        "stack must be non-empty, got shape (0, 2, 2)",
    ),
    "two_d": (
        MatrixShapeError,
        "stack must be 3-D (N, T, M), got ndim=2 (shape (2, 2))",
    ),
    "empty_list": (
        MatrixShapeError,
        "stack must be 3-D (N, T, M), got ndim=1 (shape (0,))",
    ),
    "overflow": _OVERFLOW,
    "tiny": _TINY,
    "complex": (MatrixValueError, "stack must be real-valued"),
}

#: The entry points that take a fault policy.
ROBUST_ENTRY_POINTS = (
    "characterize_ensemble",
    "standardize_batched",
    "characterize_store",
)

#: (entry point, input) -> (exception type, message) under policy="raise".
#: The store entry point only sees data errors: write_store itself
#: rejects the malformed shapes, and a store takes no weights.
ENSEMBLE_EXPECTED = {
    **{("characterize_ensemble", k): e for k, e in _ECS_STACK_DATA.items()},
    **{("characterize_store", k): e for k, e in _ECS_STACK_DATA.items()},
    **{("standardize_batched", k): e for k, e in _STACK_ERRORS.items()},
    **{("sinkhorn_knopp_batched", k): e for k, e in _STACK_ERRORS.items()},
    **{
        (entry, key): error
        for entry in ENSEMBLE_ENTRY_POINTS
        for key, error in _CONTROL_ERRORS.items()
    },
    **{
        (entry, "tol_nan_quarantine"): _CONTROL_ERRORS["tol_nan"]
        for entry in ROBUST_ENTRY_POINTS
    },
    ("characterize_ensemble", "complex"): (
        MatrixValueError,
        "ECS stack must be real-valued",
    ),
    ("characterize_ensemble", "complex_members"): (
        MatrixValueError,
        "ECS matrix must be real-valued",
    ),
    ("standardize_batched", "complex_members"): (
        MatrixValueError,
        "stack must be real-valued",
    ),
    # The store writer rejects them: casting would drop the imaginary
    # parts.
    ("characterize_store", "complex"): (
        MatrixValueError,
        "members must be real-valued",
    ),
    ("characterize_store", "complex_members"): (
        MatrixValueError,
        "members must be real-valued",
    ),
    **{
        (entry, key): error
        for entry in ("characterize_ensemble", "characterize_store")
        for key, error in (
            ("policy", _POLICY),
            ("tma_fallback", _TMA_FALLBACK),
            # Was "values must be strictly positive and finite" before
            # the batched entry points validated once.
            ("overflow", _OVERFLOW),
            ("tiny", _TINY),
        )
    },
    ("standardize_batched", "policy"): _POLICY,
    **{
        (entry, key): error
        for entry, name in (
            ("standardize_batched", "stack"),
            ("sinkhorn_knopp_batched", "stack"),
            ("characterize_store", "members"),
        )
        for key, error in _dtype_errors(name).items()
    },
    **{
        ("characterize_ensemble", key): _dtype_errors(
            "ECS matrix" if isinstance(ENSEMBLE_INPUTS[key][0], list)
            else "ECS stack"
        )[key]
        for key in _DTYPES
    },
    ("characterize_ensemble", "empty"): (
        MatrixShapeError,
        "ECS stack must be non-empty, got shape (0, 2, 2)",
    ),
    ("characterize_ensemble", "two_d"): (
        MatrixShapeError,
        "array input must be a 3-D (N, T, M) stack, got ndim=2 (shape (2, 2)); "
        "wrap a single matrix as matrix[None, :, :] or pass a list",
    ),
    ("characterize_ensemble", "empty_list"): (
        MatrixShapeError,
        "cannot stack an empty environment sequence",
    ),
    ("characterize_ensemble", "weights_length"): (
        WeightError,
        "task_weights must be a 1-D vector of length 2, got shape (1,)",
    ),
    ("characterize_ensemble", "ragged_rows"): (
        MatrixShapeError,
        "ECS matrix is ragged: its rows differ in length",
    ),
    **{
        (entry, key): (
            MatrixShapeError,
            "stack is ragged: its members or their rows differ in length",
        )
        for entry in ("standardize_batched", "sinkhorn_knopp_batched")
        for key in ("ragged_rows", "ragged_rows_quarantine")
        # sinkhorn_knopp_batched takes no policy.
        if not (entry == "sinkhorn_knopp_batched" and key.endswith("quarantine"))
    },
}


@pytest.mark.parametrize(
    "entry,key",
    sorted(ENSEMBLE_EXPECTED),
    ids=[f"{e}-{k}" for e, k in sorted(ENSEMBLE_EXPECTED)],
)
def test_ensemble_error_type_and_message(entry, key, tmp_path):
    envs, kwargs = ENSEMBLE_INPUTS[key]
    kind, message = ENSEMBLE_EXPECTED[(entry, key)]
    with pytest.raises(Exception) as info:
        ENSEMBLE_ENTRY_POINTS[entry](envs, tmp_path, **kwargs)
    assert type(info.value) is kind
    assert str(info.value) == message


_MEMBER_FAULTS = {
    "nan": ("nan", "member contains NaN entries"),
    "inf": ("non-finite", "member contains infinite entries"),
    "negative": ("negative", "member contains negative entries"),
    "zero_line": ("empty-line", "member has an all-zero row or column"),
    # Before the batched entry points validated once, these two raised
    # for the whole call (the policy="raise" errors above, except that
    # characterize_ensemble and characterize_store said "values must be
    # strictly positive and finite" for an overflow).
    "overflow": (
        "non-finite",
        "member has a row or column sum that overflows to inf",
    ),
    "tiny": ("non-finite", "member has a row or column sum too small to scale"),
}

#: (entry point, input) -> the report's (index, category, detail) rows
#: under policy="quarantine".
QUARANTINE_EXPECTED = {
    **{
        (entry, key): ((1, *fault),)
        for entry in ROBUST_ENTRY_POINTS
        for key, fault in _MEMBER_FAULTS.items()
    },
    # A list member: numpy's own text for it varies between versions.
    ("characterize_ensemble", "ragged_rows"): (
        (1, "invalid-shape", "member is ragged: its rows differ in length"),
    ),
}


@pytest.mark.parametrize(
    "entry,key",
    sorted(QUARANTINE_EXPECTED),
    ids=[f"{e}-{k}" for e, k in sorted(QUARANTINE_EXPECTED)],
)
def test_ensemble_quarantine_report(entry, key, tmp_path):
    envs, kwargs = ENSEMBLE_INPUTS[key]
    faults = ENSEMBLE_ENTRY_POINTS[entry](
        envs, tmp_path, policy="quarantine", **kwargs
    ).report.faults
    expected = QUARANTINE_EXPECTED[(entry, key)]
    assert tuple((f.index, f.category, f.detail) for f in faults) == expected


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("policy", ["quarantine", "repair"])
@pytest.mark.parametrize("key", ["overflow", "tiny"])
def test_an_unscalable_member_leaves_its_batch_mates_bit_identical(key, policy):
    envs, _ = ENSEMBLE_INPUTS[key]
    mates = envs[[0, 2]]
    result = repro.characterize_ensemble(envs, policy=policy)
    alone = repro.characterize_ensemble(mates)
    assert result.report.quarantined == (1,)
    for name in ("mph", "tdh", "tma", "iterations", "converged", "batched"):
        assert getattr(result, name)[[0, 2]].tobytes() == getattr(alone, name).tobytes()
    scaled = repro.standardize_batched(envs, policy=policy)
    assert scaled.report.quarantined == (1,)
    alone = repro.standardize_batched(mates)
    assert scaled.matrix[[0, 2]].tobytes() == alone.matrix.tobytes()


def test_weights_that_underflow_some_entries_still_work():
    # One entry underflows to zero, but no row or column is left empty.
    ecs = np.ones((3, 3))
    ecs[0, 2] = 1e-170
    profile = repro.characterize(ecs, machine_weights=[1.0, 1.0, 1e-160])
    assert profile.tma_method == "standard"


#: Budget fields -> (keyword arguments, (exception type, message)).  A
#: zero member timeout used to be accepted and then fail only when a
#: member reached the process pool; a zero, NaN or infinite one would
#: time out (or speculate) every task, or none.
BUDGET_EXPECTED = {
    "deadline_negative": (
        {"deadline_s": -1.0},
        (
            MatrixValueError,
            "deadline_s must be a non-negative number or None, got -1.0",
        ),
    ),
    "member_timeout_zero": (
        {"member_timeout_s": 0.0},
        (
            MatrixValueError,
            "member_timeout_s must be a positive finite number or None, "
            "got 0.0",
        ),
    ),
    "member_timeout_nan": (
        {"member_timeout_s": float("nan")},
        (
            MatrixValueError,
            "member_timeout_s must be a positive finite number or None, "
            "got nan",
        ),
    ),
    "member_timeout_inf": (
        {"member_timeout_s": float("inf")},
        (
            MatrixValueError,
            "member_timeout_s must be a positive finite number or None, "
            "got inf",
        ),
    ),
}


@pytest.mark.parametrize("key", sorted(BUDGET_EXPECTED))
def test_budget_error_type_and_message(key):
    from repro.robust import Budget

    kwargs, (kind, message) = BUDGET_EXPECTED[key]
    with pytest.raises(Exception) as info:
        Budget(**kwargs)
    assert type(info.value) is kind
    assert str(info.value) == message


#: The backend retired with its optional dependency is an unknown name
#: like any other: the registry lists what is registered.
_RETIRED_BACKEND = "backend must be one of 'numpy'; got 'numba'"


def test_retired_backend_name_is_unknown_to_characterize():
    with pytest.raises(MatrixValueError) as info:
        repro.characterize(GOOD, backend="numba")
    assert str(info.value) == _RETIRED_BACKEND


def test_retired_backend_name_exits_the_cli_without_a_traceback(
    tmp_path, capsys
):
    from repro.cli import main

    path = tmp_path / "env.csv"
    np.savetxt(path, np.array(GOOD), delimiter=",")
    assert main(["measures", str(path), "--backend", "numba"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {_RETIRED_BACKEND}\n"


def test_retired_backend_name_is_a_structured_400():
    import asyncio
    import json

    from repro.serve import CharacterizationServer, ServeConfig

    async def exchange():
        server = CharacterizationServer(ServeConfig(enable_metrics=False))
        body = json.dumps({"matrix": GOOD, "backend": "numba"}).encode()
        return await server.exchange("POST", "/v1/characterize", body)

    status, _, body, _ = asyncio.run(exchange())
    assert status == 400
    assert json.loads(body)["error"] == {
        "category": "bad-request",
        "message": "'backend' must be one of ['numpy'], got 'numba'",
    }


def test_huge_max_iterations_is_a_structured_400():
    import asyncio
    import json

    from repro.serve import CharacterizationServer, ServeConfig

    async def exchange():
        server = CharacterizationServer(ServeConfig(enable_metrics=False))
        body = json.dumps({"matrix": GOOD, "max_iterations": 2**63}).encode()
        return await server.exchange("POST", "/v1/standardize", body)

    status, _, body, _ = asyncio.run(exchange())
    assert status == 400
    assert json.loads(body)["error"] == {
        "category": "bad-request",
        "message": "'max_iterations' must be an integer in "
        "[1, 9223372036854775807], got 9223372036854775808",
    }


def test_non_convergence_names_the_slices():
    eq10 = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    stack = np.stack([np.arange(1.0, 10.0).reshape(3, 3), eq10,
                      np.arange(2.0, 11.0).reshape(3, 3)])
    with pytest.raises(ConvergenceError) as info:
        sinkhorn_knopp_batched(stack, max_iterations=500)
    assert str(info.value) == (
        "1 of 3 slices did not reach tol=1e-08 within 500 iterations "
        "(residual=9.990e-04, first failing slices: [1]); the matrix may be "
        "decomposable — see repro.structure.is_normalizable"
    )


def test_inconsistent_batched_targets():
    with pytest.raises(MatrixValueError) as info:
        sinkhorn_knopp_batched(np.ones((1, 2, 2)), row_target=1.0, col_target=3.0)
    assert str(info.value) == (
        "inconsistent targets: need T*row_target == M*col_target "
        "(2*1.0 != 2*3.0)"
    )


#: A warm start that does not fit the matrix shape gets one message from
#: every entry point that takes one, for one matrix and for a stack.
_WRONG_WARM_START = (
    "warm_start scaling vectors must match the matrix shape (2, 2): one "
    "(2,)/(2,) pair, or one such pair per member; got shapes (3,) and (2,)"
)


@pytest.mark.parametrize(
    "entry",
    [sinkhorn_knopp, standardize, sinkhorn_knopp_batched,
     repro.characterize_ensemble],
    ids=lambda entry: entry.__name__,
)
def test_wrong_length_warm_start(entry):
    matrix = np.array(GOOD)
    if entry in (sinkhorn_knopp_batched, repro.characterize_ensemble):
        matrix = np.stack([matrix, 2.0 * matrix])
    with pytest.raises(MatrixValueError) as info:
        entry(matrix, warm_start=(np.ones(3), np.ones(2)))
    assert str(info.value) == _WRONG_WARM_START
