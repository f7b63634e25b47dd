"""MP and TD are one line sum: every path that reports MPH or TDH gives
the same bits for the same (weighted) matrix."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ECSMatrix, characterize
from repro.batch import characterize_ensemble
from repro.measures import machine_performance, mph, task_difficulty, tdh
from repro.spec import list_datasets, load_dataset


def _random(shapes, seed, *, weighted):
    rng = np.random.default_rng(seed)
    for shape in shapes:
        for _ in range(6):
            ecs = rng.uniform(0.1, 10.0, shape)
            weights = (
                (rng.uniform(0.2, 5.0, shape[0]), rng.uniform(0.2, 5.0, shape[1]))
                if weighted
                else (None, None)
            )
            yield ecs, *weights


SHAPES = [(2, 2), (4, 3), (3, 7), (8, 8), (13, 9), (32, 16), (16, 33)]
CASES = {
    "random": lambda: _random(SHAPES, 11, weighted=False),
    "weighted": lambda: _random(SHAPES, 12, weighted=True),
    "single-line": lambda: _random([(1, 5), (6, 1), (1, 1)], 13, weighted=True),
    "spec": lambda: (
        (load_dataset(name).to_ecs().values, None, None) for name in list_datasets()
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_every_path_reads_one_line_sum(case):
    for ecs, w_t, w_m in CASES[case]():
        weights = dict(task_weights=w_t, machine_weights=w_m)
        profile = characterize(ecs, **weights)
        ensemble = characterize_ensemble(ecs[None], **weights)
        mp = [profile.machine_performance, machine_performance(ecs, **weights)]
        td = [profile.task_difficulty, task_difficulty(ecs, **weights)]
        homogeneities = [
            (profile.mph, profile.tdh),
            (mph(ecs, **weights), tdh(ecs, **weights)),
            (ensemble.mph[0], ensemble.tdh[0]),
        ]
        for vectors in (mp, td):
            for vector in vectors[1:]:
                assert vector.tobytes() == vectors[0].tobytes(), ecs.shape
        for pair in homogeneities[1:]:
            assert pair == homogeneities[0], ecs.shape


def _unit_forms(ecs):
    """The unweighted environment spelled with all-ones weights, and
    as an :class:`ECSMatrix` wrapper (which stores ones)."""
    ones = dict(
        task_weights=np.ones(ecs.shape[0]), machine_weights=np.ones(ecs.shape[1])
    )
    return {"ones": (ecs, ones), "wrapper": (ECSMatrix(ecs), {})}


def _every_path(matrix, weights):
    """Each path's MP, TD, MPH, TDH (and characterize's TMA) as bytes."""
    stack = [matrix]
    profile = characterize(matrix, **weights)
    ensemble = characterize_ensemble(stack, **weights)
    arrays = [
        profile.machine_performance,
        profile.task_difficulty,
        np.array([profile.mph, profile.tdh, profile.tma]),
        machine_performance(matrix, **weights),
        task_difficulty(matrix, **weights),
        np.array([mph(matrix, **weights), tdh(matrix, **weights)]),
        ensemble.mph,
        ensemble.tdh,
        ensemble.tma,
    ]
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("form", ["ones", "wrapper"])
@pytest.mark.parametrize("case", ["random", "spec"])
def test_unit_weights_equal_the_unweighted_call(case, form):
    for ecs, _, _ in CASES[case]():
        expected = _every_path(ecs, {})
        assert _every_path(*_unit_forms(ecs)[form]) == expected, ecs.shape
