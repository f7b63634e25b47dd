"""Shared fixtures for the fault-tolerance (chaos) suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def base_stack() -> np.ndarray:
    """A healthy, strictly positive (8, 4, 4) ensemble.

    Square slices so every fault kind (including ``decomposable``) can
    be injected; moderate dynamic range so every slice converges in a
    handful of Sinkhorn iterations.
    """
    rng = np.random.default_rng(42)
    return rng.uniform(0.5, 2.0, size=(8, 4, 4))


def healthy_indices(n: int, plan) -> list[int]:
    """Members of an ``n``-ensemble the plan does not touch."""
    return [i for i in range(n) if i not in set(plan.members)]


#: name -> (a 2x2 member whose entries are not numbers, its dtype).
NON_NUMERIC_MEMBERS = {
    "string": ([[1.5, 2.0], [3, "4"]], "<U32"),
    "bytes": (np.array([[b"1", b"2"], [b"3", b"4"]]), "|S1"),
    "bool": (np.array([[True, False], [True, True]]), "bool"),
    "object": (np.array([[1.5, 2.0], [3.0, 4.0]], dtype=object), "object"),
}
