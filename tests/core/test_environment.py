"""Unit tests for the ETC/ECS matrix model."""

import numpy as np
import pytest

from repro import (
    ECSMatrix,
    ETCMatrix,
    EmptyRowColumnError,
    MatrixShapeError,
    MatrixValueError,
    WeightError,
    ecs_to_etc,
    etc_to_ecs,
)
from repro.exceptions import DatasetError


class TestConstruction:
    def test_etc_basic(self):
        etc = ETCMatrix([[1.0, 2.0], [4.0, 2.0]])
        assert etc.shape == (2, 2)
        assert etc.n_tasks == 2
        assert etc.n_machines == 2
        assert etc.task_names == ("t1", "t2")
        assert etc.machine_names == ("m1", "m2")

    def test_values_are_readonly(self):
        etc = ETCMatrix([[1.0, 2.0], [4.0, 2.0]])
        with pytest.raises(ValueError):
            etc.values[0, 0] = 9.0

    def test_input_array_not_aliased(self):
        source = np.array([[1.0, 2.0], [4.0, 2.0]])
        etc = ETCMatrix(source)
        source[0, 0] = 99.0
        assert etc.values[0, 0] == 1.0

    def test_custom_names(self):
        etc = ETCMatrix(
            [[1.0, 2.0]], task_names=["bzip2"], machine_names=["x", "y"]
        )
        assert etc.task_names == ("bzip2",)
        assert etc.machine_names == ("x", "y")

    def test_duplicate_names_rejected(self):
        with pytest.raises(MatrixValueError):
            ETCMatrix([[1.0, 2.0]], machine_names=["m", "m"])

    def test_wrong_name_count_rejected(self):
        with pytest.raises(MatrixShapeError):
            ETCMatrix([[1.0, 2.0]], machine_names=["only-one"])

    def test_non_2d_rejected(self):
        with pytest.raises(MatrixShapeError):
            ETCMatrix([1.0, 2.0])
        with pytest.raises(MatrixShapeError):
            ETCMatrix(np.ones((2, 2, 2)))

    def test_empty_rejected(self):
        with pytest.raises(MatrixShapeError):
            ETCMatrix(np.empty((0, 3)))

    def test_nan_rejected(self):
        with pytest.raises(MatrixValueError):
            ETCMatrix([[1.0, np.nan]])

    def test_etc_nonpositive_rejected(self):
        with pytest.raises(MatrixValueError):
            ETCMatrix([[1.0, 0.0]])
        with pytest.raises(MatrixValueError):
            ETCMatrix([[1.0, -2.0]])

    def test_etc_all_inf_row_rejected(self):
        with pytest.raises(EmptyRowColumnError):
            ETCMatrix([[np.inf, np.inf], [1.0, 2.0]])

    def test_etc_all_inf_column_rejected(self):
        with pytest.raises(EmptyRowColumnError):
            ETCMatrix([[np.inf, 1.0], [np.inf, 2.0]])

    def test_ecs_negative_rejected(self):
        with pytest.raises(MatrixValueError):
            ECSMatrix([[1.0, -0.5]])

    def test_ecs_inf_rejected(self):
        with pytest.raises(MatrixValueError):
            ECSMatrix([[1.0, np.inf]])

    def test_ecs_zero_row_rejected(self):
        with pytest.raises(EmptyRowColumnError):
            ECSMatrix([[0.0, 0.0], [1.0, 2.0]])

    def test_ecs_zero_column_rejected(self):
        with pytest.raises(EmptyRowColumnError):
            ECSMatrix([[0.0, 1.0], [0.0, 2.0]])

    def test_bad_weights_rejected(self):
        with pytest.raises(WeightError):
            ETCMatrix([[1.0, 2.0]], task_weights=[1.0, 2.0])
        with pytest.raises(WeightError):
            ETCMatrix([[1.0, 2.0]], machine_weights=[1.0, 0.0])


class TestConversion:
    def test_etc_to_ecs_reciprocal(self):
        etc = ETCMatrix([[2.0, 4.0], [1.0, 0.5]])
        ecs = etc.to_ecs()
        np.testing.assert_allclose(ecs.values, [[0.5, 0.25], [1.0, 2.0]])

    def test_inf_becomes_zero(self):
        etc = ETCMatrix([[2.0, np.inf], [1.0, 0.5]])
        assert etc.to_ecs().values[0, 1] == 0.0

    def test_round_trip(self):
        etc = ETCMatrix(
            [[2.0, np.inf], [1.0, 0.5]],
            task_names=["a", "b"],
            task_weights=[2.0, 3.0],
        )
        back = etc.to_ecs().to_etc()
        np.testing.assert_allclose(back.values, etc.values)
        assert back.task_names == etc.task_names
        np.testing.assert_allclose(back.task_weights, etc.task_weights)

    def test_functions_are_the_methods_bit_for_bit(self):
        rng = np.random.default_rng(7)
        times = rng.uniform(0.1, 10.0, (5, 4))
        times[1, 2] = times[3, 0] = np.inf
        etc = ETCMatrix(times)
        ecs = etc_to_ecs(times)
        assert ecs.tobytes() == etc.to_ecs().values.tobytes()
        assert ecs[1, 2] == 0.0 and ecs[3, 0] == 0.0
        speeds = ECSMatrix(ecs)
        assert ecs_to_etc(ecs).tobytes() == speeds.to_etc().values.tobytes()
        back = ecs_to_etc(ecs)
        assert np.isinf(back[1, 2]) and np.isinf(back[3, 0])
        np.testing.assert_allclose(back, times, rtol=1e-15)

    def test_functions_round_trip_exactly_on_powers_of_two(self):
        times = np.array([[2.0, np.inf], [0.5, 4.0]])
        assert ecs_to_etc(etc_to_ecs(times)).tobytes() == times.tobytes()
        speeds = np.array([[0.0, 0.25], [8.0, 1.0]])
        assert etc_to_ecs(ecs_to_etc(speeds)).tobytes() == speeds.tobytes()

    def test_compatibility_masks_agree(self):
        etc = ETCMatrix([[2.0, np.inf], [1.0, 0.5]])
        np.testing.assert_array_equal(
            etc.compatibility, etc.to_ecs().compatibility
        )

    def test_weighted_values(self):
        ecs = ECSMatrix(
            [[1.0, 2.0], [3.0, 4.0]],
            task_weights=[2.0, 1.0],
            machine_weights=[1.0, 10.0],
        )
        np.testing.assert_allclose(
            ecs.weighted_values(), [[2.0, 40.0], [3.0, 40.0]]
        )


class TestScaling:
    def test_scaled_multiplies(self):
        etc = ETCMatrix([[1.0, 2.0], [4.0, 2.0]])
        np.testing.assert_allclose(etc.scaled(60.0).values, etc.values * 60)

    def test_scaled_requires_positive(self):
        etc = ETCMatrix([[1.0, 2.0]])
        with pytest.raises(MatrixValueError):
            etc.scaled(0.0)
        with pytest.raises(MatrixValueError):
            etc.scaled(-1.0)

    def test_ecs_scaled(self):
        ecs = ECSMatrix([[1.0, 2.0]])
        np.testing.assert_allclose(ecs.scaled(0.5).values, [[0.5, 1.0]])


class TestEditing:
    @pytest.fixture
    def env(self):
        return ECSMatrix(
            [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]],
            task_names=["a", "b", "c"],
            machine_names=["x", "y", "z"],
            task_weights=[1.0, 2.0, 3.0],
        )

    def test_submatrix_by_name(self, env):
        sub = env.submatrix(tasks=["a", "c"], machines=["z"])
        np.testing.assert_allclose(sub.values, [[3.0], [9.0]])
        assert sub.task_names == ("a", "c")
        assert sub.machine_names == ("z",)
        np.testing.assert_allclose(sub.task_weights, [1.0, 3.0])

    def test_submatrix_by_index_and_mixed(self, env):
        sub = env.submatrix(tasks=[0, "b"], machines=[2, 0])
        np.testing.assert_allclose(sub.values, [[3.0, 1.0], [6.0, 4.0]])

    def test_submatrix_unknown_name(self, env):
        with pytest.raises(DatasetError):
            env.submatrix(tasks=["missing"])

    def test_submatrix_duplicate_rejected(self, env):
        with pytest.raises(MatrixValueError):
            env.submatrix(tasks=["a", "a"])

    def test_submatrix_out_of_range(self, env):
        with pytest.raises(DatasetError):
            env.submatrix(machines=[5])

    def test_drop_tasks(self, env):
        out = env.drop_tasks(["b"])
        assert out.task_names == ("a", "c")
        assert out.shape == (2, 3)

    def test_drop_all_tasks_rejected(self, env):
        with pytest.raises(MatrixShapeError):
            env.drop_tasks(["a", "b", "c"])

    def test_drop_machines(self, env):
        out = env.drop_machines([0, 2])
        assert out.machine_names == ("y",)

    def test_add_task(self, env):
        out = env.add_task("d", [1.0, 1.0, 1.0], weight=5.0)
        assert out.n_tasks == 4
        assert out.task_names[-1] == "d"
        assert out.task_weights[-1] == 5.0
        # original untouched
        assert env.n_tasks == 3

    def test_add_task_wrong_length(self, env):
        with pytest.raises(MatrixShapeError):
            env.add_task("d", [1.0, 1.0])

    def test_add_machine(self, env):
        out = env.add_machine("w", [1.0, 1.0, 1.0])
        assert out.n_machines == 4
        assert out.machine_names[-1] == "w"

    def test_with_weights(self, env):
        out = env.with_weights(machine_weights=[2.0, 2.0, 2.0])
        np.testing.assert_allclose(out.machine_weights, [2.0, 2.0, 2.0])
        np.testing.assert_allclose(out.task_weights, env.task_weights)

    def test_indices(self, env):
        assert env.task_index("c") == 2
        assert env.machine_index(1) == 1
        with pytest.raises(DatasetError):
            env.task_index("nope")


class TestProtocols:
    def test_array_protocol(self):
        etc = ETCMatrix([[1.0, 2.0]])
        np.testing.assert_allclose(np.asarray(etc), [[1.0, 2.0]])
        assert np.asarray(etc, dtype=np.float32).dtype == np.float32

    def test_equality(self):
        a = ETCMatrix([[1.0, 2.0]])
        b = ETCMatrix([[1.0, 2.0]])
        c = ETCMatrix([[1.0, 3.0]])
        assert a == b
        assert a != c
        assert a != ETCMatrix([[1.0, 2.0]], task_names=["other"])

    def test_etc_and_ecs_never_equal(self):
        assert ETCMatrix([[1.0]]) != ECSMatrix([[1.0]])

    def test_repr_mentions_shape(self):
        rep = repr(ETCMatrix(np.ones((4, 5))))
        assert "T=4" in rep and "M=5" in rep
