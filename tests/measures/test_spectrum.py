"""The eq. 8 spectrum: Gram eigenvalues where they pass the test, the
SVD's own bits everywhere else.

A member of a stack of standard forms takes the square roots of its
Gram eigenvalues when its Sinkhorn run converged, ``|sigma_1 - 1| <=
tol`` (Theorem 2) and its smallest singular value is at least
``_SIGMA_FLOOR`` times its largest.  Each verdict and value depends on
the member alone, so batched equals lone, member-last equals C and any
sub-range equals the full stack, bit for bit, wherever the block edges
fall.  An accepted member's TMA is within 1e-12 of the SVD's.  A member
that fails the test, one of more than 64 rows and columns, and every
column form (eq. 5) keep ``repro.backends.svd_values(_batched)`` and
so its bits.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro import characterize, characterize_ensemble, recording
from repro.backends.base import MEMBER_LAST_MIN
from repro.batch import standardize_batched
from repro.measures import standard_singular_values, tma
from repro.measures.affinity import (
    _GRAM_BLOCK,
    _SIGMA_FLOOR,
    _gram_spectrum,
    _singular_values,
    _tma_column,
)
from repro.normalize import standardize
from repro.normalize.standard_form import _column_normalize
from repro.robust.repair import recovered_columns
from repro.spec import figure8a, figure8b, list_datasets, load_dataset

TOL = 1e-8

#: (T, M) of the layout tests.  Stacks of 2 to 15 columns from
#: MEMBER_LAST_MIN members are member-last, and at 32 x 8 and 64 x 5 a
#: member-last block would round its Gram matrices differently from
#: their C copies.
SHAPES = ((2, 2), (3, 3), (8, 8), (12, 5), (5, 12), (16, 8), (32, 8), (64, 5),
          (32, 16), (64, 32))
COUNTS = (1, 2, 3, MEMBER_LAST_MIN - 1, MEMBER_LAST_MIN, 171)


def _svd(stack):
    return np.linalg.svd(stack, compute_uv=False)


def _spectrum(stack, converged, kind="batched", tol=TOL):
    return _singular_values(stack, kind, tol, converged)


def _standard_spectrum(raw, tol=TOL, **options):
    """The eq. 8 spectrum of each member's standard form, as the
    batched path takes it: ``(N, min(T, M))``, descending per member."""
    standard = standardize_batched(raw, tol=tol, **options)
    return _spectrum(standard.matrix, standard.converged, tol=tol)


def _bits(values):
    return np.ascontiguousarray(values).tobytes()


def _rank_one_plus_noise(n, shape, noise, seed):
    rng = np.random.default_rng(seed)
    rows = rng.uniform(0.5, 2.0, (n, shape[0], 1))
    cols = rng.uniform(0.5, 2.0, (n, 1, shape[1]))
    return rows * cols + noise * rng.uniform(0.0, 1.0, (n, *shape))


def _near_decomposable(scale, n, seed):
    """8x8 members whose off-diagonal 4x4 blocks are scaled by ``scale``."""
    stack = np.random.default_rng(seed).uniform(0.1, 10.0, (n, 8, 8))
    stack[:, :4, 4:] *= scale
    stack[:, 4:, :4] *= scale
    return stack


def _mixed(shape, n, seed=0):
    """``n`` random members, every fifth one rank one, so a stack mixes
    members the test accepts and members it sends to the SVD."""
    raw = np.random.default_rng(seed).uniform(0.1, 10.0, (n, *shape))
    raw[::5] = _rank_one_plus_noise(len(raw[::5]), shape, 0.0, seed)
    return raw


def _member_last(stack):
    """``stack`` with ``(M, T, N)`` memory."""
    return np.ascontiguousarray(stack.T).T


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
class TestBitForBit:
    @pytest.mark.parametrize("n", COUNTS)
    def test_batched_equals_lone(self, shape, n):
        standard = standardize_batched(_mixed(shape, n), tol=TOL)
        stack, converged = standard.matrix, standard.converged
        batched = _spectrum(stack, converged)
        lone = np.concatenate([
            _spectrum(np.ascontiguousarray(stack[i:i + 1]), converged[i:i + 1],
                      "scalar")
            for i in range(n)
        ])
        assert _bits(batched) == _bits(lone)

    def test_layouts_and_sub_ranges_equal_the_full_stack(self, shape):
        n = 171
        standard = standardize_batched(_mixed(shape, n), tol=TOL)
        converged = standard.converged
        full = _spectrum(np.ascontiguousarray(standard.matrix), converged)
        for layout in (np.ascontiguousarray(standard.matrix),
                       _member_last(standard.matrix)):
            assert _bits(_spectrum(layout, converged)) == _bits(full)
            # Each sub-range moves every block edge.
            for part in (slice(1, None), slice(None, -1), slice(7, 131),
                         slice(3, 3 + MEMBER_LAST_MIN)):
                values = _spectrum(layout[part], converged[part])
                assert _bits(values) == _bits(full[part])

    def test_public_entry_points_equal_lone(self, shape):
        raw = np.random.default_rng(3).uniform(0.1, 10.0, (MEMBER_LAST_MIN, *shape))
        lone = np.stack([standard_singular_values(m) for m in raw])
        assert _bits(_standard_spectrum(raw)) == _bits(lone)
        lone_tma = np.array([tma(m) for m in raw])
        assert _bits(characterize_ensemble(raw).tma) == _bits(lone_tma)


def _environments():
    yield "figure8a", figure8a()
    yield "figure8b", figure8b()
    for name in list_datasets():
        yield name, load_dataset(name)


@pytest.mark.parametrize(
    "matrix", [m for _, m in _environments()], ids=[n for n, _ in _environments()]
)
def test_every_tma_path_agrees(matrix):
    lone = tma(matrix)
    assert lone == characterize(matrix).tma
    assert lone == characterize_ensemble(matrix.to_ecs().values[None]).tma[0]


def _corpus():
    rng = np.random.default_rng(5)
    for t in (2, 3, 5, 8, 16, 32, 64):
        for m in (2, 3, 5, 8, 16, 32, 64):
            yield f"random{t}x{m}", rng.uniform(0.1, 10.0, (24, t, m))
    for scale in (1e-1, 1e-2, 1e-3, 1e-4):
        yield f"near{scale:g}", _near_decomposable(scale, 8, 8)
    for noise in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        yield f"rank1+{noise:g}", _rank_one_plus_noise(32, (16, 8), noise, 9)


CORPUS = dict(_corpus())


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_accuracy_on_the_probe_corpus(name):
    """Accepted members are within 1e-12 of the SVD's TMA; the others
    carry the SVD's bits."""
    standard = standardize_batched(CORPUS[name], tol=TOL)
    assert standard.converged.all()
    _, accepted = _gram_spectrum(standard.matrix, TOL, standard.converged)
    values = _standard_spectrum(CORPUS[name])
    svd = _svd(standard.matrix)
    gap = np.abs(_tma_column(values) - _tma_column(svd))
    assert gap[accepted].max(initial=0.0) <= 1e-12
    assert _bits(values[~accepted]) == _bits(svd[~accepted])
    if name.startswith(("random", "near")):
        # Square random members can have a sigma_min below 1e-4.
        assert accepted.any()


class TestTheRule:
    """Each clause of the test sends a member to the SVD on its own."""

    @pytest.mark.parametrize("noise", [1e-5, 1e-6])
    def test_ill_conditioned_members_take_the_svd(self, noise):
        raw = _rank_one_plus_noise(16, (16, 8), noise, seed=9)
        standard = standardize_batched(raw, tol=TOL)
        assert standard.converged.all()
        sigma = _svd(standard.matrix)
        assert (sigma[:, -1] < _SIGMA_FLOOR * sigma[:, 0]).all()
        assert (np.abs(sigma[:, 0] - 1.0) <= TOL).all()
        assert _bits(_standard_spectrum(raw)) == _bits(_svd(standard.matrix))
        assert _bits(standard_singular_values(raw[0])) == _bits(
            _svd(standardize(raw[0]).matrix)
        )

    def test_sigma_1_off_one_takes_the_svd(self):
        standard = standardize_batched(_mixed((8, 8), 16, seed=4)[1::5], tol=TOL)
        off = standard.matrix * (1.0 + 1e-6)
        assert _bits(_spectrum(off, True)) == _bits(_svd(off))
        assert not _gram_spectrum(off, TOL, True)[1].any()
        assert _gram_spectrum(standard.matrix, TOL, True)[1].all()

    def test_tol_zero_runs_take_the_svd(self):
        raw = np.random.default_rng(11).uniform(0.1, 10.0, (16, 8, 8))
        options = dict(tol=0.0, max_iterations=200, require_convergence=False)
        standard = standardize_batched(raw, **options)
        values = _standard_spectrum(raw, **options)
        assert _bits(values) == _bits(_svd(standard.matrix))

    def test_non_converged_members_take_the_svd(self):
        raw = np.random.default_rng(10).uniform(0.1, 10.0, (64, 8, 8))
        options = dict(max_iterations=5, require_convergence=False)
        standard = standardize_batched(raw, **options)
        missed = ~standard.converged
        assert missed.any()
        # Their sigma_1 and conditioning already pass; their margins do not.
        assert _gram_spectrum(standard.matrix, TOL, True)[1][missed].all()
        values = _standard_spectrum(raw, **options)
        assert _bits(values[missed]) == _bits(_svd(standard.matrix[missed]))
        ensemble = characterize_ensemble(raw, max_iterations=5)
        assert _bits(ensemble.tma[missed]) == _bits(
            _tma_column(_svd(standard.matrix[missed]))
        )

    def test_a_repair_that_missed_tol_takes_the_svd(self):
        matrix = np.random.default_rng(12).uniform(0.1, 10.0, (8, 8))
        relaxed = standardize(matrix, tol=1e-3)
        assert TOL < relaxed.residual <= 1e-3
        svd = _tma_column(_svd(relaxed.matrix[None]))[0]
        assert recovered_columns(matrix, relaxed, TOL)[2] == svd
        strict = standardize(matrix, tol=TOL)
        assert recovered_columns(matrix, strict, TOL)[2] == tma(matrix)

    @pytest.mark.parametrize("shape", [(70, 65), (65, 70), (130, 80)])
    def test_members_over_64_on_both_sides_take_the_svd(self, shape):
        matrix = np.random.default_rng(12).uniform(0.1, 10.0, shape)
        assert _bits(standard_singular_values(matrix)) == _bits(
            _svd(standardize(matrix).matrix)
        )
        raw = np.stack([matrix, matrix[::-1]])
        standard = standardize_batched(raw)
        assert _bits(_standard_spectrum(raw)) == _bits(_svd(standard.matrix))

    def test_non_finite_members_reach_the_svd(self):
        stack = np.ascontiguousarray(
            standardize_batched(_mixed((8, 8), 8), tol=TOL).matrix
        )
        stack[3, 2, 2] = np.nan

        def outcome(spectrum):
            try:
                return _bits(spectrum(stack))
            except np.linalg.LinAlgError as exc:
                return f"raises {exc}"

        assert outcome(lambda s: _spectrum(s, True)) == outcome(_svd)


def test_column_form_keeps_the_svd():
    """eq. 5 has no Theorem 2 test: every member takes the SVD."""
    matrix = np.random.default_rng(14).uniform(0.1, 10.0, (8, 8))
    with recording() as rec:
        value = tma(matrix, method="column")
    (event,) = rec.spans("svd.scalar")
    assert event.meta["svd_members"] == 1
    values = _svd(_column_normalize(matrix))
    assert value == min(max(values[1:].sum() / (7 * values[0]), 0.0), 1.0)


class TestSpanAttribute:
    def _stack(self):
        stack = np.random.default_rng(13).uniform(0.1, 10.0, (17, 8, 8))
        stack[16] = np.outer(np.arange(1.0, 9.0), np.linspace(1.0, 2.0, 8))
        return stack

    def test_svd_members_counts_the_members_that_took_the_svd(self):
        stack = self._stack()
        with recording() as rec:
            characterize_ensemble(stack)
        (event,) = rec.spans("svd.batched")
        assert event.meta["svd_members"] == 1
        with recording() as rec:
            characterize(stack[16])
            characterize(stack[0])
        assert [e.meta["svd_members"] for e in rec.spans("svd.scalar")] == [1, 0]

    def test_traced_output_is_untraced_output(self):
        stack = self._stack()
        untraced = characterize_ensemble(stack)
        with recording():
            traced = characterize_ensemble(stack)
        assert traced.records().tobytes() == untraced.records().tobytes()


@pytest.mark.parametrize("layout", ["member-last", "C"])
def test_the_step_holds_one_block(layout):
    """Beside the ``(N, K)`` values and the member mask it returns, the
    step holds one block (Gram stack, eigenvalues and, member-last, a C
    copy: at most ``_GRAM_BLOCK`` entries in all) and the verdict's two
    floats per member.  All blocks at once would hold 2.2 times the
    stack member-last and 1.1 times it in C."""
    n, t, m = 4096, 8, 8
    standard = standardize_batched(
        np.random.default_rng(0).uniform(0.1, 10.0, (n, t, m))
    )
    stack = standard.matrix
    if layout == "C":
        stack = np.ascontiguousarray(stack)
    assert stack.flags.c_contiguous == (layout == "C")

    def call():
        return _gram_spectrum(stack, TOL, standard.converged)

    values, accepted = call()
    gc.collect()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    extra = 8 * (_GRAM_BLOCK + 2 * n)
    assert peak - values.nbytes - accepted.nbytes <= extra + 4096
