"""Direct tests for the shared validation helpers."""

import numpy as np
import pytest

from repro._validation import (
    as_ecs_array,
    as_etc_array,
    as_float_array,
    as_positive_vector,
    check_positive_int,
    check_positive_scalar,
    check_probability,
    check_weights,
)
from repro.exceptions import (
    EmptyRowColumnError,
    MatrixShapeError,
    MatrixValueError,
    WeightError,
)


def _shaped(rows, ndim):
    """``rows`` (a 2-D nested list) as a matrix, or as a stack of one."""
    return rows if ndim == 2 else [rows]


@pytest.mark.parametrize("ndim", [2, 3])
class TestAsFloatArray:
    def test_coerces_lists(self, ndim):
        out = as_float_array(_shaped([[1, 2], [3, 4]], ndim), ndim=ndim, name="m")
        assert out.dtype == np.float64
        assert out.ndim == ndim
        assert out.flags["C_CONTIGUOUS"]

    def test_contiguity_enforced(self, ndim):
        strided = np.ones((2, 4, 6))[..., ::2]
        out = as_float_array(strided[(0,) * (3 - ndim)], ndim=ndim, name="m")
        assert out.flags["C_CONTIGUOUS"]

    def test_inf_allowed(self, ndim):
        out = as_float_array(_shaped([[1.0, np.inf]], ndim), ndim=ndim, name="m")
        assert np.isinf(out.flat[1])

    def test_nan_rejected(self, ndim):
        with pytest.raises(MatrixValueError, match="^m contains NaN entries$"):
            as_float_array(_shaped([[np.nan]], ndim), ndim=ndim, name="m")

    def test_name_in_message(self, ndim):
        with pytest.raises(MatrixShapeError, match="^my-matrix must be"):
            as_float_array([1.0], ndim=ndim, name="my-matrix")


class TestEcsEtcValidation:
    def test_ecs_accepts_zeros(self):
        out = as_ecs_array([[0.0, 1.0], [1.0, 0.0]])
        assert out[0, 0] == 0.0

    def test_ecs_rejects_inf(self):
        with pytest.raises(MatrixValueError, match="infinite"):
            as_ecs_array([[np.inf, 1.0], [1.0, 1.0]])

    def test_ecs_rejects_negative(self):
        with pytest.raises(MatrixValueError):
            as_ecs_array([[-1.0, 1.0], [1.0, 1.0]])

    def test_ecs_rejects_zero_line(self):
        with pytest.raises(EmptyRowColumnError):
            as_ecs_array([[0.0, 0.0], [1.0, 1.0]])

    def test_etc_accepts_inf(self):
        out = as_etc_array([[np.inf, 1.0], [1.0, 1.0]])
        assert np.isinf(out[0, 0])

    def test_etc_rejects_zero(self):
        with pytest.raises(MatrixValueError):
            as_etc_array([[0.0, 1.0]])

    def test_etc_rejects_all_inf_line(self):
        with pytest.raises(EmptyRowColumnError):
            as_etc_array([[np.inf, np.inf], [1.0, 1.0]])
        with pytest.raises(EmptyRowColumnError):
            as_etc_array([[np.inf, 1.0], [np.inf, 1.0]])


class TestVectorsAndScalars:
    def test_positive_vector(self):
        np.testing.assert_allclose(as_positive_vector([1, 2]), [1.0, 2.0])

    def test_positive_vector_rejects_zero(self):
        with pytest.raises(MatrixValueError):
            as_positive_vector([1.0, 0.0])

    def test_positive_vector_rejects_inf(self):
        with pytest.raises(MatrixValueError):
            as_positive_vector([1.0, np.inf])

    def test_positive_vector_rejects_2d(self):
        with pytest.raises(MatrixShapeError):
            as_positive_vector(np.ones((2, 2)))

    def test_probability_bounds(self):
        assert check_probability(0.0, name="p") == 0.0
        assert check_probability(1.0, name="p") == 1.0
        with pytest.raises(MatrixValueError):
            check_probability(1.5, name="p")
        with pytest.raises(MatrixValueError):
            check_probability(-0.1, name="p")

    def test_probability_rejects_bool(self):
        with pytest.raises(MatrixValueError):
            check_probability(True, name="p")

    def test_positive_scalar(self):
        assert check_positive_scalar(2, name="x") == 2.0
        with pytest.raises(MatrixValueError):
            check_positive_scalar(0, name="x")
        assert check_positive_scalar(0, name="x", allow_zero=True) == 0.0
        with pytest.raises(MatrixValueError):
            check_positive_scalar(np.inf, name="x")
        with pytest.raises(MatrixValueError):
            check_positive_scalar("three", name="x")

    def test_positive_int(self):
        assert check_positive_int(3, name="n") == 3
        with pytest.raises(MatrixValueError):
            check_positive_int(0, name="n")
        with pytest.raises(MatrixValueError):
            check_positive_int(2.5, name="n")
        with pytest.raises(MatrixValueError):
            check_positive_int(True, name="n")


class TestCheckWeights:
    def test_none_yields_ones(self):
        np.testing.assert_array_equal(
            check_weights(None, 3, name="w"), [1.0, 1.0, 1.0]
        )

    def test_valid_passthrough(self):
        np.testing.assert_allclose(
            check_weights([0.5, 2.0], 2, name="w"), [0.5, 2.0]
        )

    def test_length_mismatch(self):
        with pytest.raises(WeightError):
            check_weights([1.0], 2, name="w")

    def test_nonpositive_rejected(self):
        with pytest.raises(WeightError):
            check_weights([1.0, 0.0], 2, name="w")

    def test_nonfinite_rejected(self):
        with pytest.raises(WeightError):
            check_weights([1.0, np.inf], 2, name="w")
