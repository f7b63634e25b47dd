"""The backend registry: registration, lookup, env/kwarg resolution."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.backends import (
    BACKEND_ENV_VAR,
    KernelBackend,
    KernelBackendBase,
    NumpyBackend,
    get_backend,
    list_backends,
    register_backend,
    registry,
    resolve_backend,
)
from repro.exceptions import MatrixValueError

DOCS = Path(__file__).resolve().parents[2] / "docs"


class TestLookup:
    def test_numpy_reference_always_registered(self):
        assert "numpy" in list_backends()
        backend = get_backend("numpy")
        assert isinstance(backend, KernelBackend)
        assert backend.name == "numpy"
        assert backend.tolerance == 0.0

    def test_numba_registered_iff_importable(self):
        has_numba = importlib.util.find_spec("numba") is not None
        assert ("numba" in list_backends()) == has_numba

    def test_unknown_name_lists_registered_backends(self):
        with pytest.raises(MatrixValueError, match="backend must be one of"):
            get_backend("fortran")

    def test_list_is_sorted_tuple(self):
        names = list_backends()
        assert isinstance(names, tuple)
        assert list(names) == sorted(names)


class TestRegister:
    def test_duplicate_rejected_unless_replace(self):
        with pytest.raises(MatrixValueError, match="already registered"):
            register_backend("numpy", NumpyBackend())
        register_backend("numpy", NumpyBackend(), replace=True)
        assert get_backend("numpy").name == "numpy"

    def test_rejects_non_backend_objects(self):
        with pytest.raises(MatrixValueError, match="KernelBackend"):
            register_backend("bogus", object())

    def test_rejects_empty_name(self):
        with pytest.raises(MatrixValueError, match="name"):
            register_backend("", NumpyBackend())


def _documented_backend_source() -> str:
    """The code block of docs/BACKENDS.md's "Registering your own"."""
    text = (DOCS / "BACKENDS.md").read_text(encoding="utf-8")
    section = text.split("## Registering your own", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


class TestDocumentedBackend:
    """The documented example registers and runs every entry point."""

    @pytest.fixture
    def loop_backend(self, monkeypatch):
        # Register into a copy so the example never leaks into other tests.
        monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
        exec(_documented_backend_source(), {})
        return get_backend("loop")

    def test_registers_as_a_kernel_backend(self, loop_backend):
        assert isinstance(loop_backend, KernelBackend)
        assert "loop" in list_backends()

    def test_matches_reference_within_tolerance(self, loop_backend):
        from repro.batch import standardize_batched
        from repro.normalize import scale_to_margins, sinkhorn_knopp

        rng = np.random.default_rng(0)
        stack = rng.uniform(0.1, 10.0, size=(4, 6, 5))
        margins = (np.full(6, 5.0), np.full(5, 6.0))

        def run(name):
            options = {"backend": name}
            return (
                sinkhorn_knopp(stack[0], **options),
                scale_to_margins(stack[1], *margins, **options),
                standardize_batched(stack, **options),
            )

        for ours, reference in zip(run("loop"), run("numpy")):
            np.testing.assert_allclose(
                ours.matrix, reference.matrix,
                rtol=0, atol=loop_backend.tolerance,
            )
            np.testing.assert_array_equal(ours.iterations, reference.iterations)

    def test_respects_the_iteration_budget(self, loop_backend):
        from repro.normalize import sinkhorn_knopp

        eq10 = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        result = sinkhorn_knopp(
            eq10, backend="loop", max_iterations=30, require_convergence=False
        )
        assert not result.converged
        assert result.iterations == 30
        assert len(result.residual_history) == 31


class TestResolve:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend(None).name == "numpy"

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert resolve_backend(None).name == "numpy"

    def test_env_var_unknown_name_raises(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "fortran")
        with pytest.raises(MatrixValueError, match="backend must be one of"):
            resolve_backend(None)

    def test_kwarg_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "fortran")
        assert resolve_backend("numpy").name == "numpy"

    def test_instance_passes_through(self):
        backend = NumpyBackend()
        assert resolve_backend(backend) is backend

    def test_rejects_other_types(self):
        with pytest.raises(MatrixValueError, match="backend"):
            resolve_backend(42)

    def test_rejects_a_non_backend_with_the_same_message(self):
        for other in (42, object(), type("Incomplete", (KernelBackendBase,), {})()):
            with pytest.raises(MatrixValueError) as info:
                resolve_backend(other)
            assert str(info.value) == (
                "backend must be a registered backend name or a "
                f"KernelBackend instance, got {other!r}"
            )

    def test_accepts_a_duck_typed_backend(self):
        class Duck:
            """Every protocol member, by delegation, and no base class."""

            def __init__(self):
                self._inner = NumpyBackend()
                self.name, self.tolerance = "duck", 0.0

            def sinkhorn_core_batched(self, *args, **kwargs):
                return self._inner.sinkhorn_core_batched(*args, **kwargs)

            def svd_values(self, matrix):
                return self._inner.svd_values(matrix)

            def svd_values_batched(self, stack):
                return self._inner.svd_values_batched(stack)

            def fused_standard_measures(self, stack, **options):
                return self._inner.fused_standard_measures(stack, **options)

        duck = Duck()
        assert not isinstance(duck, KernelBackendBase)
        assert resolve_backend(duck) is duck
        stack = np.random.default_rng(2).uniform(0.5, 2.0, (3, 4, 4))
        ours = repro.characterize_ensemble(stack, backend=duck)
        reference = repro.characterize_ensemble(stack)
        assert ours.records().tobytes() == reference.records().tobytes()

    def test_nominal_backends_skip_the_protocol_walk(self, monkeypatch):
        class Refusing(type):
            def __instancecheck__(cls, instance):
                raise AssertionError("walked the runtime protocol")

        monkeypatch.setattr(
            registry, "KernelBackend", Refusing("KernelBackend", (), {})
        )
        registered = get_backend("numpy")
        assert resolve_backend(registered) is registered
        fresh = NumpyBackend()
        assert resolve_backend(fresh) is fresh


class TestKwargSurface:
    """One consistent error everywhere ``backend=`` is accepted."""

    MATCH = "backend must be one of"

    def test_sinkhorn_knopp(self):
        from repro.normalize import sinkhorn_knopp

        with pytest.raises(MatrixValueError, match=self.MATCH):
            sinkhorn_knopp(np.ones((2, 2)), backend="fortran")

    def test_standardize(self):
        from repro.normalize import standardize

        with pytest.raises(MatrixValueError, match=self.MATCH):
            standardize(np.ones((2, 2)), backend="fortran")

    def test_standardize_batched(self):
        from repro.batch import standardize_batched

        with pytest.raises(MatrixValueError, match=self.MATCH):
            standardize_batched(np.ones((1, 2, 2)), backend="fortran")

    def test_characterize(self):
        from repro.measures import characterize

        with pytest.raises(MatrixValueError, match=self.MATCH):
            characterize(np.ones((2, 2)), backend="fortran")

    def test_characterize_ensemble(self):
        from repro.batch import characterize_ensemble

        with pytest.raises(MatrixValueError, match=self.MATCH):
            characterize_ensemble(np.ones((1, 2, 2)), backend="fortran")

    def test_cli_measures_exits_2(self, tmp_path, capsys):
        from repro.cli import main
        from repro.core.io import save_etc_csv
        from repro.generate.range_based import range_based

        path = tmp_path / "env.csv"
        save_etc_csv(range_based(3, 3, seed=0), path)
        assert main(["measures", str(path), "--backend", "fortran"]) == 2
        assert "backend must be one of" in capsys.readouterr().err
