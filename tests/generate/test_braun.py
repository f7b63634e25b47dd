"""Tests for the Braun et al. twelve-case suite presets."""

import numpy as np
import pytest

from repro import GenerationError
from repro.generate import BRAUN_CASES, braun_case
from repro.measures import mph, tdh


class TestCases:
    def test_twelve_names(self):
        assert len(BRAUN_CASES) == 12
        assert "hihi-c" in BRAUN_CASES and "lolo-i" in BRAUN_CASES

    def test_default_classic_shape(self):
        etc = braun_case("lolo-i", seed=0)
        assert etc.shape == (512, 16)

    def test_consistent_cases_sorted(self):
        etc = braun_case("hihi-c", n_tasks=24, n_machines=6, seed=1)
        assert (np.diff(etc.values, axis=1) >= 0).all()

    def test_inconsistent_not_sorted(self):
        etc = braun_case("hihi-i", n_tasks=24, n_machines=6, seed=1)
        assert not (np.diff(etc.values, axis=1) >= 0).all()

    def test_task_heterogeneity_ordering(self):
        hi = np.mean(
            [
                tdh(braun_case("hilo-i", n_tasks=40, n_machines=8, seed=s))
                for s in range(4)
            ]
        )
        lo = np.mean(
            [
                tdh(braun_case("lolo-i", n_tasks=40, n_machines=8, seed=s))
                for s in range(4)
            ]
        )
        assert hi < lo  # high task range -> less homogeneous tasks

    def test_machine_heterogeneity_ordering(self):
        hi = np.mean(
            [
                mph(braun_case("lohi-i", n_tasks=40, n_machines=8, seed=s))
                for s in range(4)
            ]
        )
        lo = np.mean(
            [
                mph(braun_case("lolo-i", n_tasks=40, n_machines=8, seed=s))
                for s in range(4)
            ]
        )
        assert hi < lo

    def test_case_insensitive(self):
        etc = braun_case("HiLo-C", n_tasks=8, n_machines=4, seed=2)
        assert etc.shape == (8, 4)

    def test_unknown_case(self):
        with pytest.raises(GenerationError):
            braun_case("mid-i")


class TestSuite:
    def test_all_cases_present(self):
        for name in BRAUN_CASES:
            assert braun_case(name, n_tasks=10, n_machines=4, seed=3).shape == (10, 4)
