"""The repository benchmark's span hooks resolve against the program.

``benchmarks/suite/spans.py`` times each layer by wrapping its entry
points where callers look them up at call time; its ``backend:`` hooks
wrap the kernels as attributes of :mod:`repro.backends`.  A hook that
stops resolving, or a caller that imports a kernel by name and so
bypasses the wrapper, fails here by name rather than as a count in a
traced benchmark run.  The benchmark file is read, never edited.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.batch import characterize_ensemble

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "suite" / "spans.py"

#: Hooks naming functions that were merged away; the benchmark drops
#: them in a change of its own.
KNOWN_ABSENT = [
    "backend:sinkhorn_core",
    "repro.robust.ensemble:RobustEnsembleCharacterization.member_payload",
]


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_only_the_known_hooks_are_absent(spans):
    assert sorted(spans.Tracer().absent) == KNOWN_ABSENT


def test_an_ensemble_call_runs_the_wrapped_kernels(spans):
    tracer = spans.Tracer()
    stack = np.random.default_rng(7).uniform(0.5, 10.0, (4, 6, 5))
    tracer.install()
    try:
        characterize_ensemble(stack)
    finally:
        tracer.uninstall()
    names = {piece[4] for piece in tracer.pieces}
    assert {"sinkhorn_core_batched", "fused_standard_measures"} <= names
