"""One scaling result type: every per-matrix Sinkhorn run, the standard
form included, returns a :class:`NormalizationResult`."""

import numpy as np
import pytest

from repro.batch import sinkhorn_knopp_batched, standardize_batched
from repro.normalize import (
    NormalizationResult,
    scale_to_margins,
    sinkhorn_knopp,
    standardize,
)

ENV = np.array([[1.0, 2.0], [2.0, 1.0]])
STACK = np.stack([ENV, ENV * 3.0])
#: Paper Fig. 4 matrix A: support but not total support.
FIG4_A = [[10.0, 0.0], [9.0, 1.0]]


@pytest.mark.parametrize(
    "run",
    [
        lambda: sinkhorn_knopp(ENV),
        lambda: scale_to_margins(ENV, [1.0, 2.0], [1.5, 1.5]),
        lambda: standardize(ENV),
        lambda: standardize(FIG4_A, zeros="limit"),
        lambda: sinkhorn_knopp_batched(STACK).slice(1),
        lambda: standardize_batched(STACK).slice(0),
    ],
    ids=[
        "sinkhorn_knopp",
        "scale_to_margins",
        "standardize",
        "standardize[limit]",
        "sinkhorn_knopp_batched.slice",
        "standardize_batched.slice",
    ],
)
def test_returns_normalization_result(run):
    assert type(run()) is NormalizationResult


def test_limit_semantics_report_the_zeroed_entries():
    assert standardize(FIG4_A, zeros="limit").zeroed_entries == ((1, 0),)
    assert standardize(ENV).zeroed_entries == ()
    assert sinkhorn_knopp(ENV).zeroed_entries == ()
