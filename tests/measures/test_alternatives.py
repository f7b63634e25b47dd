"""Tests for the Section II-D comparison statistics (R, G, COV)."""

import warnings

import numpy as np
import pytest

from repro import MatrixShapeError, MatrixValueError
from repro.measures import (
    average_adjacent_ratio,
    coefficient_of_variation,
    geometric_mean_ratio,
    min_max_ratio,
)


class TestAverageAdjacentRatio:
    def test_fig2_env1(self):
        assert average_adjacent_ratio([1, 2, 4, 8, 16]) == 0.5

    def test_sorting_internal(self):
        assert average_adjacent_ratio([16, 4, 1, 8, 2]) == 0.5

    def test_single_value(self):
        assert average_adjacent_ratio([7.0]) == 1.0

    def test_equal_values(self):
        assert average_adjacent_ratio([3.0, 3.0, 3.0]) == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(MatrixValueError):
            average_adjacent_ratio([1.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(MatrixShapeError):
            average_adjacent_ratio([])

    def test_rejects_2d(self):
        with pytest.raises(MatrixShapeError):
            average_adjacent_ratio(np.ones((2, 2)))


class TestFig2Table:
    """The complete Fig. 2 table: only MPH separates the environments."""

    EXPECTED = {
        "env1": {"mph": 0.5, "r": 1 / 16, "g": 0.5, "cov": 0.88},
        "env2": {"mph": 0.77, "r": 1 / 16, "g": 0.5, "cov": 1.5},
        "env3": {"mph": 0.77, "r": 1 / 16, "g": 0.5, "cov": 0.46},
        "env4": {"mph": 0.63, "r": 1 / 16, "g": 0.5, "cov": 0.90},
    }

    @pytest.mark.parametrize("env", ["env1", "env2", "env3", "env4"])
    def test_all_four_measures(self, fig2_performances, env):
        perf = fig2_performances[env]
        expected = self.EXPECTED[env]
        assert average_adjacent_ratio(perf) == pytest.approx(
            expected["mph"], abs=6e-3
        )
        assert min_max_ratio(perf) == pytest.approx(expected["r"], abs=6e-3)
        assert geometric_mean_ratio(perf) == pytest.approx(
            expected["g"], abs=6e-3
        )
        assert coefficient_of_variation(perf) == pytest.approx(
            expected["cov"], abs=6e-3
        )

    def test_only_mph_matches_intuition(self, fig2_performances):
        """Paper's point: env1 most heterogeneous, env2/env3 tie, env4
        in between — an ordering R, G and COV all fail to produce."""
        mph = {
            k: average_adjacent_ratio(v) for k, v in fig2_performances.items()
        }
        assert mph["env1"] < mph["env4"] < mph["env2"]
        assert mph["env2"] == pytest.approx(mph["env3"])
        # R and G cannot tell any of them apart.
        r = {k: min_max_ratio(v) for k, v in fig2_performances.items()}
        g = {k: geometric_mean_ratio(v) for k, v in fig2_performances.items()}
        assert len({round(x, 12) for x in r.values()}) == 1
        assert len({round(x, 12) for x in g.values()}) == 1
        # COV ranks env3 as *less* heterogeneous than env1 while giving
        # env2 and env3 wildly different values — failing the tie.
        cov = {
            k: coefficient_of_variation(v)
            for k, v in fig2_performances.items()
        }
        assert cov["env2"] != pytest.approx(cov["env3"], abs=0.5)


class TestG:
    def test_telescopes_to_root_of_r(self):
        values = np.array([2.0, 5.0, 7.0, 80.0])
        expected = (values.min() / values.max()) ** (1 / 3)
        assert geometric_mean_ratio(values) == pytest.approx(expected)

    def test_single_value(self):
        assert geometric_mean_ratio([4.0]) == 1.0


class TestCov:
    def test_population_std(self):
        # ddof=0: mean 4, std 6 -> 1.5 (the paper's env2 value).
        assert coefficient_of_variation([1, 1, 1, 1, 16]) == 1.5

    def test_homogeneous_zero(self):
        assert coefficient_of_variation([5.0, 5.0]) == 0.0

    def test_scale_invariant(self):
        v = np.array([1.0, 3.0, 9.0])
        assert coefficient_of_variation(v * 1e6) == pytest.approx(
            coefficient_of_variation(v)
        )

    @pytest.mark.parametrize("exponent", [1000, -1000])
    def test_exact_at_the_ends_of_the_float_range(self, exponent):
        # A power-of-two scale is exact, so COV must not move a bit; the
        # direct sum of squares overflows (inf) or underflows (0) here.
        v = np.array([1.0, 1.0, 1.0, 1.0, 16.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = coefficient_of_variation(v * 2.0**exponent)
        assert scaled == coefficient_of_variation(v) == 1.5

    def test_paper_value_near_the_smallest_normal(self):
        v = np.array([1.0, 1.0, 1.0, 1.0, 16.0]) * 1e-300
        assert coefficient_of_variation(v) == pytest.approx(1.5, rel=1e-14)

    @pytest.mark.parametrize("exponent", [1000, -1000])
    def test_extreme_values_hold_for_r_and_g(self, exponent):
        v = np.array([1.0, 3.0, 9.0, 2.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = min_max_ratio(v * 2.0**exponent)
            g = geometric_mean_ratio(v * 2.0**exponent)
        assert r == min_max_ratio(v)
        # G goes through logs, so only rounding separates the two.
        assert g == pytest.approx(geometric_mean_ratio(v), rel=1e-12)
