"""Tests for the companion-work heterogeneity statistics."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.measures import (
    gini_coefficient,
    quartile_dispersion,
    skewness,
)
from tests.conftest import performance_vectors


class TestGini:
    def test_homogeneous_zero(self):
        assert gini_coefficient([7.0, 7.0, 7.0]) == 0.0

    def test_single_value_zero(self):
        assert gini_coefficient([3.0]) == 0.0

    def test_fig2_env2(self):
        assert gini_coefficient([1, 1, 1, 1, 16]) == pytest.approx(0.6)

    def test_order_invariant(self):
        assert gini_coefficient([16, 1, 1, 1, 1]) == pytest.approx(
            gini_coefficient([1, 1, 1, 1, 16])
        )

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            vec = rng.uniform(0.1, 100, size=rng.integers(2, 10))
            value = gini_coefficient(vec)
            assert 0.0 <= value < 1.0

    def test_dominant_machine_approaches_one(self):
        assert gini_coefficient([1e-6] * 9 + [1.0]) > 0.85

    @given(performance_vectors, st.floats(0.01, 100.0))
    def test_scale_invariant(self, vec, factor):
        assert gini_coefficient(vec * factor) == pytest.approx(
            gini_coefficient(vec), abs=1e-9
        )


class TestQuartileDispersion:
    def test_homogeneous_zero(self):
        assert quartile_dispersion([4.0, 4.0, 4.0, 4.0]) == 0.0

    def test_fig2_env1(self):
        assert quartile_dispersion([1, 2, 4, 8, 16]) == pytest.approx(0.6)

    def test_robust_to_single_outlier(self):
        """R collapses to 1/1000 with one straggler; the quartile
        measure barely moves — the robustness rationale."""
        from repro.measures import min_max_ratio

        base = np.full(20, 10.0)
        spiked = base.copy()
        spiked[0] = 0.01
        assert min_max_ratio(spiked) == pytest.approx(0.001)
        assert quartile_dispersion(spiked) < 0.05

    @given(performance_vectors, st.floats(0.01, 100.0))
    def test_scale_invariant(self, vec, factor):
        assert quartile_dispersion(vec * factor) == pytest.approx(
            quartile_dispersion(vec), abs=1e-9
        )

    @given(performance_vectors)
    def test_bounded(self, vec):
        assert 0.0 <= quartile_dispersion(vec) < 1.0


class TestSkewness:
    def test_constant_zero(self):
        assert skewness([3.0, 3.0, 3.0]) == 0.0

    def test_single_value_zero(self):
        assert skewness([9.0]) == 0.0

    def test_fast_outlier_positive(self):
        assert skewness([1.0, 1.0, 1.0, 1.0, 16.0]) > 1.0

    def test_slow_outlier_negative(self):
        assert skewness([16.0, 16.0, 16.0, 16.0, 1.0]) < -1.0

    def test_symmetric_near_zero(self):
        assert skewness([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_mirrored_vectors_opposite_sign(self):
        vec = np.array([1.0, 2.0, 3.0, 10.0])
        mirrored = vec.max() + vec.min() - vec
        assert skewness(vec) == pytest.approx(-skewness(mirrored))

    @given(performance_vectors, st.floats(0.01, 100.0))
    def test_scale_invariant(self, vec, factor):
        assert skewness(vec * factor) == pytest.approx(
            skewness(vec), abs=1e-6
        )


@pytest.mark.parametrize("exponent", [1000, -1000])
def test_exact_at_the_ends_of_the_float_range(exponent):
    # A power-of-two scale is exact, so no statistic may move a bit;
    # skewness' variance overflows or underflows here without a rescale.
    v = np.array([1.0, 1.0, 2.0, 3.0, 16.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = v * 2.0**exponent
        values = (
            skewness(scaled),
            gini_coefficient(scaled),
            quartile_dispersion(scaled),
        )
    assert values == (skewness(v), gini_coefficient(v), quartile_dispersion(v))
    assert values[0] > 0
