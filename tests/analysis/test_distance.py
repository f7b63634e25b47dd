"""Tests for environment comparison (distance, equivalence, ranking)."""

import numpy as np
import pytest

from repro.analysis import (
    equivalent_up_to_scaling,
    measure_distance,
    rank_by_similarity,
)
from repro.spec import cfp2006rate, cint2006rate


class TestMeasureDistance:
    def test_zero_for_identical(self):
        env = cint2006rate()
        assert measure_distance(env, env) == 0.0

    def test_zero_for_scaled_copy(self):
        env = cint2006rate()
        assert measure_distance(env, env.scaled(60.0)) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_symmetric(self):
        a, b = cint2006rate(), cfp2006rate()
        assert measure_distance(a, b) == pytest.approx(
            measure_distance(b, a)
        )

    def test_nonnegative_and_triangleish(self):
        from repro.generate import from_targets

        a = from_targets(5, 4, (0.3, 0.5, 0.1))
        b = from_targets(5, 4, (0.7, 0.5, 0.1))
        c = from_targets(5, 4, (0.9, 0.5, 0.1))
        ab, bc, ac = (
            measure_distance(a, b),
            measure_distance(b, c),
            measure_distance(a, c),
        )
        assert ab > 0 and bc > 0
        assert ac <= ab + bc + 1e-9

    def test_weights_axis_selection(self):
        from repro.generate import from_targets

        a = from_targets(5, 4, (0.3, 0.7, 0.2))
        b = from_targets(5, 4, (0.9, 0.7, 0.2))  # differs only in MPH
        assert measure_distance(a, b, weights=(0.0, 1.0, 1.0)) == (
            pytest.approx(0.0, abs=1e-3)
        )
        assert measure_distance(a, b, weights=(1.0, 0.0, 0.0)) == (
            pytest.approx(0.6, abs=1e-3)
        )

    def test_bad_weights(self):
        """Refused, not turned into a NaN or infinite distance."""
        for weights in [(1.0, 1.0), (1.0, -1.0, 1.0), (np.nan, 1.0, 1.0),
                        (np.inf, 1.0, 1.0)]:
            with pytest.raises(ValueError):
                measure_distance(cint2006rate(), cfp2006rate(), weights=weights)


class TestEquivalence:
    def test_diagonal_rescaling_equivalent(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(0.5, 5.0, size=(4, 3))
        b = (
            rng.uniform(0.1, 10, size=(4, 1))
            * a
            * rng.uniform(0.1, 10, size=(1, 3))
        )
        assert equivalent_up_to_scaling(a, b)

    def test_entry_change_breaks_equivalence(self):
        a = np.array([[1.0, 2.0], [3.0, 1.0]])
        c = a.copy()
        c[0, 0] = 9.0
        assert not equivalent_up_to_scaling(a, c)

    def test_shape_mismatch(self):
        assert not equivalent_up_to_scaling(np.ones((2, 2)), np.ones((2, 3)))

    def test_transpose_of_asymmetric_3x3(self):
        a = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [9.0, 1.0, 2.0]])
        assert not equivalent_up_to_scaling(a, a.T)

    def test_weight_application_is_equivalence(self):
        """Weighting factors are diagonal scalings: same structure."""
        from repro import ECSMatrix

        ecs = np.random.default_rng(1).uniform(0.5, 5.0, size=(4, 3))
        weighted = ECSMatrix(
            ecs, task_weights=[1.0, 2.0, 3.0, 4.0]
        ).weighted_values()
        assert equivalent_up_to_scaling(ecs, weighted)

    def test_zero_pattern_via_limit(self):
        a = np.array([[1.0, 0.0], [1.0, 1.0]])
        b = np.array([[2.0, 0.0], [5.0, 7.0]])
        # Both reduce to the identity in the eq.-9 limit.
        assert equivalent_up_to_scaling(a, b)


class TestRankBySimilarity:
    def test_nearest_first(self):
        from repro.generate import from_targets

        reference = from_targets(5, 4, (0.5, 0.5, 0.2))
        candidates = {
            "near": from_targets(5, 4, (0.55, 0.5, 0.2)),
            "far": from_targets(5, 4, (0.95, 0.9, 0.0)),
        }
        ranked = rank_by_similarity(reference, candidates)
        assert [name for name, _ in ranked] == ["near", "far"]
        assert ranked[0][1] < ranked[1][1]

    def test_reference_characterized_once(self, monkeypatch):
        """One profile of the reference serves every candidate, and the
        distances are measure_distance's, bit for bit."""
        import repro.analysis.compare as compare

        candidates = {"cint": cint2006rate(), "cfp": cfp2006rate(),
                      "cint again": cint2006rate()}
        reference = cfp2006rate()
        weights = (0.5, 2.0, 1.0)
        expected = sorted(
            ((name, measure_distance(reference, env, weights=weights))
             for name, env in candidates.items()),
            key=lambda pair: pair[1],
        )
        profiled = []
        characterize = compare.characterize
        monkeypatch.setattr(compare, "characterize",
                            lambda m: profiled.append(m) or characterize(m))
        assert rank_by_similarity(reference, candidates, weights=weights) == expected
        assert len(profiled) == 1 + len(candidates)

    def test_bad_weights_refused_before_any_profile(self, monkeypatch):
        import repro.analysis.compare as compare

        def refuse(matrix):
            raise AssertionError("characterized before the weights were checked")

        monkeypatch.setattr(compare, "characterize", refuse)
        with pytest.raises(ValueError, match="finite"):
            rank_by_similarity(cint2006rate(), {"cfp": cfp2006rate()},
                               weights=(1.0, np.nan, 1.0))

    def test_spec_suites_close_to_each_other(self):
        """Fig. 6/7's point: the two SPEC suites are near twins in
        (MPH, TDH) and differ mainly in TMA."""
        distance = measure_distance(cint2006rate(), cfp2006rate())
        assert distance < 0.15
