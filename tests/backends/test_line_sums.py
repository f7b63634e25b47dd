"""Exact-order line sums and the working-copy layout.

``line_sums`` must give, on a C stack and on a member-last one, the
bits ``np.add.reduce`` gives on the C copy: rows pairwise over M,
columns in sequence over T, except M = 1, where numpy sums T pairwise.
The cases cross numpy's pairwise boundaries (8 terms, 128 terms and
the split beyond) on both axes, at member counts on both sides of the
layout threshold, with entries spanning eight decades, so a line summed
in any other order differs in its last bits.  Member-last stacks of one
column, or of ``MEMBER_LAST_MAX_COLS`` or more, are summed as their C
copy; the cases pin that too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.base import (
    MEMBER_LAST_MAX_COLS,
    MEMBER_LAST_MIN,
    _member_last,
    line_sums,
    working_copy,
)

SIZES = (1, 2, 7, 8, 9, 16, 17, 127, 128, 129, 257)
MEMBERS = (1, 2, MEMBER_LAST_MIN - 1, MEMBER_LAST_MIN, 3 * MEMBER_LAST_MIN)
#: Entries per stack at most, so the largest shapes stay small.
LIMIT = 400_000


def _stack(n, t, m, seed=0):
    rng = np.random.default_rng([n, t, m, seed])
    return np.exp(rng.uniform(np.log(1e-4), np.log(1e4), (n, t, m)))


def _member_last_copy(stack):
    """The stack in ``(M, T, N)`` memory, as an ``(N, T, M)`` view."""
    return np.ascontiguousarray(stack.T).T


CASES = [
    (n, t, m) for n in MEMBERS for t in SIZES for m in SIZES if n * t * m <= LIMIT
]


def test_every_size_meets_every_member_count():
    for n in MEMBERS:
        for size in SIZES:
            assert any(c[0] == n and c[1] == size for c in CASES)
            assert any(c[0] == n and c[2] == size for c in CASES)


@pytest.mark.parametrize("n,t,m", CASES, ids=[f"{n}x{t}x{m}" for n, t, m in CASES])
def test_both_layouts_sum_as_the_c_copy(n, t, m):
    stack = _stack(n, t, m)
    member_last = _member_last_copy(stack)
    for axis in (1, 2):
        want = np.add.reduce(stack, axis=axis)
        assert line_sums(stack, axis).tobytes() == want.tobytes()
        got = line_sums(member_last, axis)
        assert got.tobytes() == want.tobytes(), (axis, got - want)


@pytest.mark.parametrize("t", SIZES)
def test_one_column_sums_its_rows_pairwise(t):
    # M = 1: numpy's C copy sums the contiguous T axis pairwise, where a
    # member-last stack's T planes would add in sequence.
    stack = _stack(3 * MEMBER_LAST_MIN, t, 1, seed=1)
    want = np.add.reduce(stack, axis=1)
    assert line_sums(_member_last_copy(stack), 1).tobytes() == want.tobytes()


@pytest.mark.parametrize("m", range(8, MEMBER_LAST_MAX_COLS))
def test_rows_of_8_to_15_terms_add_their_remainder_in_sequence(m):
    # Every width a member-last copy reaches beyond numpy's 8 accumulators.
    stack = _stack(3 * MEMBER_LAST_MIN, 7, m, seed=8)
    want = np.add.reduce(stack, axis=2)
    assert line_sums(_member_last_copy(stack), 2).tobytes() == want.tobytes()


@pytest.mark.parametrize("t,m", [(8, 8), (17, 9), (129, 2), (2, 129), (257, 1)])
def test_a_one_member_gather_sums_as_its_c_copy(t, m):
    # One member gathered from member-last memory is (M, T, 1): numpy
    # would sum its then contiguous T axis pairwise.
    stack = _stack(3 * MEMBER_LAST_MIN, t, m, seed=2)
    source = _member_last_copy(stack)
    gathered = np.take(source.T, [5], axis=2).T
    copy = working_copy(source, np.array([5]))
    for axis in (1, 2):
        want = np.add.reduce(stack[5:6], axis=axis)
        assert line_sums(gathered, axis).tobytes() == want.tobytes()
        assert line_sums(copy, axis).tobytes() == want.tobytes()


def test_out_receives_the_member_last_sums():
    stack = _stack(3 * MEMBER_LAST_MIN, 16, 8, seed=3)
    source = working_copy(stack)
    rows = np.empty_like(source[:, :, 0])
    cols = np.empty_like(source[:, 0, :])
    assert line_sums(source, 2, out=rows) is rows
    assert line_sums(source, 1, out=cols) is cols
    assert rows.tobytes() == np.add.reduce(stack, axis=2).tobytes()
    assert cols.tobytes() == np.add.reduce(stack, axis=1).tobytes()
    # A C-ordered ``out`` receives the same sums.
    rows = np.empty(rows.shape)
    assert line_sums(source, 2, out=rows) is rows
    assert rows.tobytes() == np.add.reduce(stack, axis=2).tobytes()


@pytest.mark.parametrize("view", ["fortran", "reversed", "strided"])
def test_other_layouts_sum_as_the_c_copy(view):
    big = _stack(3 * MEMBER_LAST_MIN, 34, 9, seed=4)
    stack = {
        "fortran": np.asfortranarray(big),
        "reversed": big[::-1],
        "strided": big[:, ::2],
    }[view]
    copy = np.ascontiguousarray(stack)
    for axis in (1, 2):
        want = np.add.reduce(copy, axis=axis)
        assert line_sums(stack, axis).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "n,m,member_last",
    [
        (MEMBER_LAST_MIN - 1, 8, False),
        (MEMBER_LAST_MIN, 8, True),
        (3 * MEMBER_LAST_MIN, 15, True),
        (3 * MEMBER_LAST_MIN, 16, False),
        (3 * MEMBER_LAST_MIN, 1, False),
    ],
)
def test_working_copy_layout(n, m, member_last):
    stack = _stack(n, 6, m, seed=5)
    for source in (stack, _member_last_copy(stack), stack[::-1]):
        copy = working_copy(source)
        assert _member_last(copy) == member_last
        assert copy.flags.c_contiguous != member_last
        assert np.array_equal(copy, source)
        assert not np.shares_memory(copy, source)


@pytest.mark.parametrize(
    "count", [1, MEMBER_LAST_MIN - 1, MEMBER_LAST_MIN, 2 * MEMBER_LAST_MIN]
)
def test_working_copy_gathers(count):
    stack = _stack(3 * MEMBER_LAST_MIN, 6, 8, seed=6)
    idx = np.sort(np.random.default_rng(count).permutation(len(stack))[:count])
    for source in (stack, _member_last_copy(stack)):
        copy = working_copy(source, idx)
        assert _member_last(copy) == (count >= MEMBER_LAST_MIN)
        assert np.array_equal(copy, stack[idx])
