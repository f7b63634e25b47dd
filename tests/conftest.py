"""Shared fixtures: the paper's example matrices, hypothesis strategies
and the documented ``LoopBackend``.

Also a session check that the test run leaves the repository's working
tree as it found it (no test may write into a tracked or unignored
path).
"""

from __future__ import annotations

import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

REPO_ROOT = Path(__file__).resolve().parent.parent

_GIT_STATUS = pytest.StashKey[str]()


def _git_status() -> str | None:
    """``git status --porcelain`` of this repository, or None when git is
    missing or the tests do not sit in the root of a git work tree."""
    if shutil.which("git") is None:
        return None
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=60,
        )
        if top.returncode != 0 or Path(top.stdout.strip()) != REPO_ROOT:
            return None
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=60,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return status.stdout if status.returncode == 0 else None


def pytest_sessionstart(session):
    status = _git_status()
    if status is not None:
        session.config.stash[_GIT_STATUS] = status


def pytest_sessionfinish(session, exitstatus):
    before = session.config.stash.get(_GIT_STATUS, None)
    if before is None:
        return
    after = _git_status()
    if after is None or after == before:
        return
    changed = sorted(set(after.splitlines()) ^ set(before.splitlines()))
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write_line("")
        reporter.write_sep("=", "the test run changed the working tree", red=True)
        for line in changed:
            reporter.write_line(line)
    session.exitstatus = pytest.ExitCode.TESTS_FAILED


@pytest.fixture(autouse=True)
def _restore_metrics_gate():
    """Put the metrics gate and the default registry back after each test.

    A default-config server opens the gate (``enable_metrics()``) and
    nothing closes it again; without this, a later test's assumption of
    a closed gate would depend on test order.
    """
    from repro.obs import metrics

    enabled, registry = metrics.metrics_enabled(), metrics.get_registry()
    yield
    (metrics.enable_metrics if enabled else metrics.disable_metrics)()
    metrics.set_registry(registry)


def _documented_backend_source() -> str:
    """The code block of docs/BACKENDS.md's "Registering your own": the
    one copy of the ``LoopBackend`` example."""
    text = (REPO_ROOT / "docs" / "BACKENDS.md").read_text(encoding="utf-8")
    section = text.split("## Registering your own", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


@pytest.fixture
def loop_backend(monkeypatch):
    """The documented ``LoopBackend``, registered as ``"loop"`` into a
    copy of the registry, so ``list_backends()`` is ``('numpy',)`` again
    after the test."""
    from repro.backends import get_backend, registry

    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
    exec(_documented_backend_source(), {})
    return get_backend("loop")


# ---------------------------------------------------------------------------
# Paper example matrices
# ---------------------------------------------------------------------------


@pytest.fixture
def fig1_ecs() -> np.ndarray:
    """Fig. 1's 4×3 ECS example; machine 1's performance is 17."""
    return np.array(
        [
            [4.0, 8.0, 5.0],
            [5.0, 9.0, 4.0],
            [6.0, 5.0, 2.0],
            [2.0, 1.0, 3.0],
        ]
    )


@pytest.fixture
def fig2_performances() -> dict[str, np.ndarray]:
    """Fig. 2's four machine-performance environments."""
    return {
        "env1": np.array([1.0, 2.0, 4.0, 8.0, 16.0]),
        "env2": np.array([1.0, 1.0, 1.0, 1.0, 16.0]),
        "env3": np.array([1.0, 16.0, 16.0, 16.0, 16.0]),
        "env4": np.array([1.0, 4.0, 4.0, 4.0, 16.0]),
    }


@pytest.fixture
def fig3a_ecs() -> np.ndarray:
    """Fig. 3(a): machine-homogeneous, zero affinity (identical columns)."""
    return np.array(
        [
            [4.0, 4.0, 4.0],
            [5.0, 5.0, 5.0],
            [6.0, 6.0, 6.0],
        ]
    )


@pytest.fixture
def fig3b_ecs() -> np.ndarray:
    """Fig. 3(b): machine-homogeneous but with task-machine affinity."""
    return np.array(
        [
            [10.0, 1.0, 4.0],
            [1.0, 10.0, 4.0],
            [4.0, 4.0, 7.0],
        ]
    )


@pytest.fixture
def fig4_matrices() -> dict[str, np.ndarray]:
    """Reconstructed Fig. 4 extreme 2×2 matrices.

    The source scan lost the entries; these satisfy every property the
    text states: A–D have TMA = 1 (a task runnable on one machine
    only), E–H have TMA = 0 (equal performance ratios); C, D, G, H have
    high MPH; A, C, E, G have high TDH; and A, B, D converge (in the
    eq.-9 limit) to the standard form of C.
    """
    return {
        "A": np.array([[10.0, 0.0], [9.0, 1.0]]),   # low MPH, high TDH
        "B": np.array([[1.0, 0.0], [10.0, 100.0]]),  # low MPH, low TDH
        "C": np.array([[1.0, 0.0], [0.0, 1.0]]),     # high MPH, high TDH
        "D": np.array([[1.0, 0.0], [9.0, 10.0]]),    # high MPH, low TDH
        "E": np.array([[1.0, 10.0], [1.0, 10.0]]),   # low MPH, high TDH
        "F": np.array([[0.1, 1.0], [1.0, 10.0]]),    # low MPH, low TDH
        "G": np.array([[1.0, 1.0], [1.0, 1.0]]),     # high MPH, high TDH
        "H": np.array([[0.1, 0.1], [1.0, 1.0]]),     # high MPH, low TDH
    }


@pytest.fixture
def eq10_matrix() -> np.ndarray:
    """Section VI's eq. 10: decomposable, no standard form exists.

    Reconstructed from the text's description: four nonzero entries,
    the second row and third column sum to 2 while the other lines sum
    to 1, and moving the last column to the front exposes the eq.-11
    block form with a 1×1 A11 and 2×2 A22.
    """
    return np.array(
        [
            [0.0, 0.0, 1.0],
            [1.0, 0.0, 1.0],
            [0.0, 1.0, 0.0],
        ]
    )


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

#: Strictly positive, well-conditioned matrix entries.  The range is
#: capped at 1e±2 because Sinkhorn's linear convergence rate is the
#: squared second singular value of the standard form: a 2×2 matrix with
#: cross ratio 1e12 needs millions of iterations to reach 1e-8, which is
#: mathematically fine but pointless to exercise per-example.
positive_entries = st.floats(
    min_value=1e-2, max_value=1e2, allow_nan=False, allow_infinity=False
)


def ecs_matrices(
    min_side: int = 1, max_side: int = 7, positive_only: bool = True
):
    """Strategy producing valid ECS arrays (optionally with zeros)."""
    shapes = st.tuples(
        st.integers(min_side, max_side), st.integers(min_side, max_side)
    )
    if positive_only:
        return shapes.flatmap(
            lambda shape: npst.arrays(
                dtype=np.float64, shape=shape, elements=positive_entries
            )
        )

    def with_zeros(shape):
        return npst.arrays(
            dtype=np.float64,
            shape=shape,
            elements=st.one_of(st.just(0.0), positive_entries),
        ).filter(
            lambda arr: (arr > 0).any(axis=1).all()
            and (arr > 0).any(axis=0).all()
        )

    return shapes.flatmap(with_zeros)


#: Strategy for strictly positive 1-D performance vectors.
performance_vectors = st.integers(1, 12).flatmap(
    lambda n: npst.arrays(
        dtype=np.float64, shape=(n,), elements=positive_entries
    )
)
