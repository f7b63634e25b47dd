"""`characterize_ensemble` dispatch rules and the rewired study paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ECSMatrix, ETCMatrix
from repro.batch import ENSEMBLE_DTYPE, characterize_ensemble
from repro.exceptions import (
    ConvergenceError,
    MatrixShapeError,
    MatrixValueError,
    WeightError,
)
from repro.generate import perturb_stack, random_ecs, random_ecs_stack
from repro.measures import characterize
from repro.obs import recording
from repro.shard import characterize_store, write_store


@pytest.fixture
def positive_stack():
    rng = np.random.default_rng(7)
    return rng.uniform(0.5, 5.0, size=(12, 5, 4))


class TestDispatch:
    def test_positive_stack_goes_fully_batched(self, positive_stack):
        result = characterize_ensemble(positive_stack)
        assert result.batched.all()
        assert result.converged.all()
        assert (result.n_tasks, result.n_machines) == (5, 4)
        assert len(result) == 12

    def test_matches_scalar_characterize(self, positive_stack):
        result = characterize_ensemble(positive_stack)
        np.testing.assert_array_equal(
            result.measures, _lone_measures(positive_stack)
        )
        for i, matrix in enumerate(positive_stack):
            assert result.iterations[i] == characterize(matrix).sinkhorn_iterations

    def test_zero_slices_fall_back_to_scalar(self):
        rng = np.random.default_rng(1)
        stack = rng.uniform(0.5, 5.0, size=(4, 3, 3))
        stack[2, 0, 1] = 0.0  # normalizable zero pattern
        result = characterize_ensemble(stack)
        assert result.batched.tolist() == [True, True, False, True]
        profile = characterize(stack[2])
        assert result.tma[2] == pytest.approx(profile.tma, abs=1e-10)

    def test_ragged_sequence_falls_back(self):
        envs = [np.ones((2, 2)), np.ones((3, 2))]
        result = characterize_ensemble(envs)
        assert result.n_tasks is None and result.n_machines is None
        assert not result.batched.any()
        np.testing.assert_allclose(result.mph, 1.0)

    def test_wrapper_sequence_is_stacked(self):
        envs = [
            ETCMatrix([[2.0, 1.0], [1.0, 2.0]]),
            ECSMatrix([[1.0, 2.0], [2.0, 1.0]]),
        ]
        result = characterize_ensemble(envs)
        assert result.batched.all()
        for i, env in enumerate(envs):
            assert result.tma[i] == pytest.approx(
                characterize(env).tma, abs=1e-10
            )

    def test_weights_fold_into_the_stack(self, positive_stack):
        w_t = np.linspace(1.0, 2.0, positive_stack.shape[1])
        w_m = np.linspace(0.5, 1.5, positive_stack.shape[2])
        result = characterize_ensemble(
            positive_stack, task_weights=w_t, machine_weights=w_m
        )
        profile = characterize(
            positive_stack[0], task_weights=w_t, machine_weights=w_m
        )
        assert result.mph[0] == pytest.approx(profile.mph, abs=1e-10)
        assert result.tma[0] == pytest.approx(profile.tma, abs=1e-10)

    def test_weights_rejected_for_wrappers(self):
        envs = [ECSMatrix(np.ones((2, 2))) for _ in range(2)]
        with pytest.raises(WeightError):
            characterize_ensemble(envs, task_weights=[1.0, 2.0])

    @pytest.mark.parametrize("policy", ["raise", "quarantine", "repair"])
    def test_weights_rejected_for_ragged_members(self, policy):
        envs = [np.ones((4, 3)), np.ones((3, 3))]
        with pytest.raises(
            WeightError,
            match="explicit task_weights/machine_weights need same-shape "
            "members",
        ):
            characterize_ensemble(
                envs, task_weights=[1.0, 2.0, 3.0, 4.0], policy=policy
            )

    def test_invalid_inputs(self):
        with pytest.raises(MatrixShapeError):
            characterize_ensemble(np.empty((0, 2, 2)))
        with pytest.raises(MatrixValueError):
            characterize_ensemble(np.ones((1, 2, 2)), tma_fallback="nope")
        with pytest.raises(MatrixShapeError):
            characterize_ensemble([])


def _slow_member(*, zero: bool) -> np.ndarray:
    """An 8x8 member whose two diagonal blocks barely interact
    (off-diagonal blocks x1e-3), so Sinkhorn needs ~2,000 iterations;
    ``zero`` puts one zero in it, which sends it down the scalar path."""
    member = np.random.default_rng(0).uniform(0.5, 2.0, (8, 8))
    member[:4, 4:] *= 1e-3
    member[4:, :4] *= 1e-3
    if zero:
        member[0, 0] = 0.0
    return member


class TestScalarPath:
    @pytest.mark.parametrize("via_store", [False, True], ids=["memory", "store"])
    def test_honours_max_iterations(self, via_store, tmp_path):
        stack = np.stack([_slow_member(zero=True), np.ones((8, 8))])
        if via_store:
            store = write_store(tmp_path / "store", stack)

            def run(**options):
                return characterize_store(store, **options)
        else:

            def run(**options):
                return characterize_ensemble(stack, **options)

        with pytest.raises(ConvergenceError, match="within 10 iterations"):
            run(max_iterations=10)
        result = run(max_iterations=10, policy="quarantine")
        assert result.report.categories() == {0: "non-convergent"}
        assert result.converged.tolist() == [False, True]

    def test_limit_fallback_does_not_rerun_a_failed_run(self):
        """Without blocking entries the limit form is the strict run, so a
        run that missed tol fails once, with the "raise" message.  The
        trailing member of another shape makes the input ragged, so the
        positive member takes the scalar path."""
        member = _slow_member(zero=False)
        messages = {}
        for fallback in ("raise", "limit"):
            with recording() as rec, pytest.raises(ConvergenceError) as error:
                characterize_ensemble(
                    [member, np.ones((2, 2))],
                    max_iterations=5,
                    tma_fallback=fallback,
                )
            assert len(rec.spans("sinkhorn.scalar")) == 1
            messages[fallback] = str(error.value)
        assert messages["limit"] == messages["raise"]


class TestColumnarResult:
    def test_records_structured_array(self, positive_stack):
        records = characterize_ensemble(positive_stack).records()
        assert records.dtype == ENSEMBLE_DTYPE
        assert records.shape == (12,)
        assert (records["mph"] > 0).all()
        assert records["converged"].all()

    def test_measures_matrix_shape(self, positive_stack):
        result = characterize_ensemble(positive_stack)
        assert result.measures.shape == (12, 3)
        np.testing.assert_array_equal(result.measures[:, 2], result.tma)

    def test_summary_mentions_batching(self, positive_stack):
        text = characterize_ensemble(positive_stack).summary()
        assert "12 environments" in text and "12 batched" in text


class TestStackHelpers:
    def test_random_ecs_stack_matches_per_item_draws(self):
        stack = random_ecs_stack(5, 4, 3, seed=42)
        rng = np.random.default_rng(42)
        for i in range(5):
            child = int(rng.integers(0, 2**63 - 1))
            expected = random_ecs(4, 3, seed=child).values
            np.testing.assert_array_equal(stack[i], expected)

    def test_perturb_stack_matches_per_item_draws(self):
        from repro.generate import perturb

        base = np.ones((3, 3))
        stack = perturb_stack(base, 0.2, n_draws=4, seed=9)
        rng = np.random.default_rng(9)
        for i in range(4):
            child = int(rng.integers(0, 2**63 - 1))
            np.testing.assert_array_equal(
                stack[i], perturb(base, 0.2, seed=child)
            )


def _lone_measures(environments) -> np.ndarray:
    """(MPH, TDH, TMA) rows of lone :func:`characterize` calls."""
    profiles = [characterize(env) for env in environments]
    return np.array([(p.mph, p.tdh, p.tma) for p in profiles])


def _derived_seeds(rng, count: int) -> list[int]:
    """The per-item seeds the studies derive from their master seed."""
    return [int(rng.integers(0, 2**63 - 1)) for _ in range(count)]


def _zero_patterned_6x4() -> np.ndarray:
    matrix = np.random.default_rng(1).uniform(1, 5, (6, 4))
    matrix[0, 1] = matrix[3, 2] = matrix[5, 0] = 0.0
    return matrix


class TestRewiredStudies:
    """Each study equals lone ``characterize`` calls on the same seeded
    draws, bit for bit."""

    def _assert_sensitivity_exact(self, matrix, *, trials: int, seed: int):
        from repro.analysis import sensitivity_study
        from repro.generate import perturb

        levels = (0.01, 0.05, 0.1, 0.2)
        result = sensitivity_study(
            matrix, noise_levels=levels, trials=trials, seed=seed
        )
        (baseline,) = _lone_measures([matrix])
        np.testing.assert_array_equal(
            [result.baseline[m] for m in ("mph", "tdh", "tma")], baseline
        )
        rng = np.random.default_rng(seed)
        for li, sigma in enumerate(levels):
            draws = [
                perturb(matrix, sigma, seed=s)
                for s in _derived_seeds(rng, trials)
            ]
            shifts = np.abs(_lone_measures(draws) - baseline)
            np.testing.assert_array_equal(
                result.mean_shift[li], shifts.mean(axis=0)
            )
            np.testing.assert_array_equal(
                result.max_shift[li], shifts.max(axis=0)
            )

    def test_sensitivity_batched_matches_scalar(self):
        # 64 trials per level: each level's stack takes the member-last
        # working copy.
        matrix = np.random.default_rng(0).uniform(1, 5, (6, 4))
        self._assert_sensitivity_exact(matrix, trials=64, seed=3)

    def test_sensitivity_zero_patterned_matches_scalar(self):
        self._assert_sensitivity_exact(_zero_patterned_6x4(), trials=20, seed=3)

    def test_sensitivity_eq10_matches_scalar(self, eq10_matrix):
        self._assert_sensitivity_exact(eq10_matrix, trials=5, seed=3)

    def test_correlations_batched_matches_scalar(self):
        from repro.analysis import measure_correlations

        seeds = _derived_seeds(np.random.default_rng(4), 80)
        draws = [random_ecs(10, 6, spread=8.0, seed=s) for s in seeds]
        np.testing.assert_array_equal(
            measure_correlations(samples=80, seed=4),
            np.corrcoef(_lone_measures(draws), rowvar=False),
        )

    @staticmethod
    def _assert_footprint_exact(factory, *, samples: int, seed: int):
        from repro.analysis.regimes import characterize_generator

        footprint = characterize_generator(
            "family", factory, samples=samples, seed=seed
        )
        seeds = _derived_seeds(np.random.default_rng(seed), samples)
        np.testing.assert_array_equal(
            footprint.samples, _lone_measures([factory(s) for s in seeds])
        )

    def test_generator_footprint_batched_matches_scalar(self):
        from repro.generate import braun_case

        self._assert_footprint_exact(
            lambda s: braun_case("hilo-i", n_tasks=8, n_machines=4, seed=s),
            samples=4,
            seed=5,
        )

    def test_generator_footprint_ragged_matches_scalar(self):
        def factory(seed):
            rows = 4 + seed % 3
            return random_ecs(rows, 3, spread=6.0, seed=seed)

        self._assert_footprint_exact(factory, samples=6, seed=5)
