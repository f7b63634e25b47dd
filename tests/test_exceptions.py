"""Tests for the exception hierarchy's contracts."""

import pytest

import repro
from repro.exceptions import (
    ConvergenceError,
    DatasetError,
    EmptyRowColumnError,
    GenerationError,
    MatrixShapeError,
    MatrixValueError,
    NotNormalizableError,
    ReproError,
    SchedulingError,
    WeightError,
)

ALL_ERRORS = [
    MatrixShapeError,
    MatrixValueError,
    EmptyRowColumnError,
    WeightError,
    ConvergenceError,
    NotNormalizableError,
    DatasetError,
    SchedulingError,
    GenerationError,
]


class TestHierarchy:
    @pytest.mark.parametrize("cls", ALL_ERRORS)
    def test_all_derive_from_repro_error(self, cls):
        assert issubclass(cls, ReproError)

    def test_value_errors_catchable_as_valueerror(self):
        for cls in (
            MatrixShapeError,
            MatrixValueError,
            WeightError,
            NotNormalizableError,
            GenerationError,
            SchedulingError,
        ):
            assert issubclass(cls, ValueError), cls

    def test_dataset_error_is_keyerror(self):
        assert issubclass(DatasetError, KeyError)

    def test_dataset_error_prints_its_message(self):
        # KeyError.__str__ would print the repr, quotes and all.
        message = "unknown dataset 'nope'; available: a, b"
        assert str(DatasetError(message)) == message

    def test_convergence_error_is_runtimeerror(self):
        assert issubclass(ConvergenceError, RuntimeError)

    def test_empty_row_column_is_matrix_value(self):
        assert issubclass(EmptyRowColumnError, MatrixValueError)

    def test_all_exported_at_top_level(self):
        for cls in ALL_ERRORS + [ReproError]:
            assert getattr(repro, cls.__name__) is cls


class TestConvergenceErrorPayload:
    def test_carries_diagnostics(self):
        err = ConvergenceError("nope", iterations=42, residual=0.5)
        assert err.iterations == 42
        assert err.residual == 0.5
        assert "nope" in str(err)

    def test_defaults_none(self):
        err = ConvergenceError("nope")
        assert err.iterations is None
        assert err.residual is None

    def test_raised_with_payload_from_sinkhorn(self, eq10_matrix):
        from repro.normalize import sinkhorn_knopp

        with pytest.raises(ConvergenceError) as excinfo:
            sinkhorn_knopp(eq10_matrix, max_iterations=25)
        assert excinfo.value.iterations == 25
        assert excinfo.value.residual > 0


class TestSingleCatchAll:
    def test_library_failures_catchable_uniformly(self, eq10_matrix):
        """The package contract: one except clause covers everything."""
        from repro import ETCMatrix, standardize
        from repro.generate import from_targets
        from repro.scheduling import run_heuristic

        failing_calls = [
            lambda: ETCMatrix([[0.0]]),
            lambda: standardize(eq10_matrix),
            lambda: from_targets(2, 2, (2.0, 0.5, 0.1)),
            lambda: run_heuristic("nope", [[1.0]]),
        ]
        for call in failing_calls:
            with pytest.raises(ReproError):
                call()
