"""Tests for characterize() and HeterogeneityProfile."""

import warnings

import numpy as np
import pytest

from repro import ECSMatrix, MatrixValueError, NotNormalizableError
from repro.measures import characterize, mph, tdh, tma


class TestCharacterize:
    def test_agrees_with_individual_measures(self, fig3b_ecs):
        profile = characterize(fig3b_ecs)
        assert profile.mph == pytest.approx(mph(fig3b_ecs))
        assert profile.tdh == pytest.approx(tdh(fig3b_ecs))
        assert profile.tma == pytest.approx(tma(fig3b_ecs), abs=1e-9)
        assert profile.tma_method == "standard"

    def test_dimensions_recorded(self, fig1_ecs):
        profile = characterize(fig1_ecs)
        assert (profile.n_tasks, profile.n_machines) == (4, 3)

    def test_vectors_in_original_order(self, fig1_ecs):
        profile = characterize(fig1_ecs)
        np.testing.assert_allclose(
            profile.machine_performance, [17.0, 23.0, 14.0]
        )
        np.testing.assert_allclose(
            profile.task_difficulty, [17.0, 18.0, 13.0, 6.0]
        )

    def test_comparison_statistics(self, fig1_ecs):
        profile = characterize(fig1_ecs)
        assert profile.machine_r == pytest.approx(14.0 / 23.0)
        assert profile.task_r == pytest.approx(6.0 / 18.0)
        assert profile.machine_g == pytest.approx((14.0 / 23.0) ** 0.5)
        assert profile.machine_cov > 0

    def test_sinkhorn_diagnostics_present(self, fig3b_ecs):
        profile = characterize(fig3b_ecs)
        assert profile.sinkhorn_iterations >= 1
        assert profile.sinkhorn_residual <= 1e-8

    def test_limit_fallback_default(self, fig4_matrices):
        profile = characterize(fig4_matrices["B"])
        assert profile.tma_method == "limit"
        assert profile.tma == pytest.approx(1.0, abs=1e-6)

    def test_column_fallback(self, fig4_matrices):
        profile = characterize(fig4_matrices["B"], tma_fallback="column")
        assert profile.tma_method == "column"
        assert 0.0 <= profile.tma <= 1.0

    def test_raise_fallback(self, fig4_matrices):
        with pytest.raises(NotNormalizableError):
            characterize(fig4_matrices["B"], tma_fallback="raise")

    def test_invalid_fallback_rejected(self, fig1_ecs):
        with pytest.raises(MatrixValueError):
            characterize(fig1_ecs, tma_fallback="nope")

    def test_weights_flow_through(self):
        ecs = ECSMatrix([[1.0, 1.0], [1.0, 1.0]], machine_weights=[1.0, 2.0])
        profile = characterize(ecs)
        assert profile.mph == pytest.approx(0.5)

    def test_summary_mentions_all_measures(self, fig1_ecs):
        text = characterize(fig1_ecs).summary()
        for token in ("MPH", "TDH", "TMA", "standard form"):
            assert token in text

    def test_summary_without_iterations(self, fig4_matrices):
        text = characterize(
            fig4_matrices["B"], tma_fallback="column"
        ).summary()
        assert "column" in text


class TestFig4Corners:
    """The full Fig. 4 story: eight matrices at the measure extremes."""

    EXPECT = {
        # key: (mph_high, tdh_high, tma_high)
        "A": (False, True, True),
        "B": (False, False, True),
        "C": (True, True, True),
        "D": (True, False, True),
        "E": (False, True, False),
        "F": (False, False, False),
        "G": (True, True, False),
        "H": (True, False, False),
    }

    @pytest.mark.parametrize("key", list("ABCDEFGH"))
    def test_corner(self, fig4_matrices, key):
        profile = characterize(fig4_matrices[key])
        mph_high, tdh_high, tma_high = self.EXPECT[key]
        assert (profile.mph > 0.5) == mph_high, profile.mph
        assert (profile.tdh > 0.5) == tdh_high, profile.tdh
        assert (profile.tma > 0.5) == tma_high, profile.tma

    def test_abd_share_standard_form_of_c(self, fig4_matrices):
        from repro.normalize import standardize

        target = standardize(fig4_matrices["C"]).matrix
        for key in "ABD":
            limit = standardize(fig4_matrices[key], zeros="limit").matrix
            np.testing.assert_allclose(limit, target, atol=1e-8)


class TestInfeasibleLimitFallback:
    def test_limit_degrades_to_column_when_no_limit_exists(self):
        """A machine compatible with a single task type makes even the
        eq. 9 limit nonexistent (infeasible margins); characterize must
        degrade to the eq. 5 column method instead of raising."""
        import numpy as np

        ecs = np.array(
            [
                [1.0, 1.0, 2.0],
                [1.0, 2.0, 0.0],
                [2.0, 1.0, 0.0],
                [1.0, 1.0, 0.0],
            ]
        )
        profile = characterize(ecs)
        assert profile.tma_method == "column"
        assert 0.0 <= profile.tma <= 1.0

    def test_raise_mode_still_raises(self):
        import numpy as np

        ecs = np.array(
            [
                [1.0, 1.0, 2.0],
                [1.0, 2.0, 0.0],
                [2.0, 1.0, 0.0],
                [1.0, 1.0, 0.0],
            ]
        )
        with pytest.raises(NotNormalizableError):
            characterize(ecs, tma_fallback="raise")


class TestExtremeScale:
    """COV stays scale-invariant at the ends of the float64 range."""

    @pytest.fixture
    def matrix(self):
        return np.random.default_rng(8).uniform(0.1, 10.0, (8, 8))

    @pytest.mark.parametrize("exponent", [960, -960])
    def test_power_of_two_scale_is_exact(self, matrix, exponent):
        base = characterize(matrix)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = characterize(matrix * 2.0**exponent)
        assert scaled.machine_cov == base.machine_cov
        assert scaled.task_cov == base.task_cov
        assert (scaled.mph, scaled.tdh, scaled.tma) == (
            base.mph, base.tdh, base.tma
        )

    @pytest.mark.parametrize("factor", [1e280, 1e-290])
    def test_decimal_scale_is_close(self, matrix, factor):
        base = characterize(matrix)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = characterize(matrix * factor)
        assert scaled.machine_cov == pytest.approx(base.machine_cov, rel=1e-12)
        assert scaled.task_cov == pytest.approx(base.task_cov, rel=1e-12)
