"""Unit tests for the fault taxonomy and quarantine report."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import (
    ConvergenceError,
    EmptyRowColumnError,
    MatrixShapeError,
    MatrixValueError,
    NotNormalizableError,
)
from repro.robust import (
    FAULT_CATEGORIES,
    UNREPAIRABLE_CATEGORIES,
    MemberFault,
    QuarantineReport,
    classify_exception,
    classify_matrix,
    classify_stack,
)

from .conftest import NON_NUMERIC_MEMBERS


class TestClassifyException:
    @pytest.mark.parametrize(
        ("exc", "category"),
        [
            (ConvergenceError("x"), "non-convergent"),
            (NotNormalizableError("x"), "decomposable"),
            (EmptyRowColumnError("x"), "empty-line"),
            (MatrixShapeError("x"), "invalid-shape"),
            (TimeoutError("x"), "timeout"),
            (MatrixValueError("x"), "worker-error"),
            (RuntimeError("x"), "worker-error"),
        ],
    )
    def test_mapping(self, exc, category):
        assert classify_exception(exc) == category

    def test_futures_timeout_counts_as_timeout(self):
        from concurrent.futures import TimeoutError as FuturesTimeout

        # Under Python >= 3.8 this aliases/subclasses builtin TimeoutError
        # on 3.11+; on 3.10 it does not, and the pipeline normalizes to
        # the builtin before classifying.  Either way the builtin maps:
        assert classify_exception(TimeoutError()) == "timeout"
        assert FuturesTimeout is not None


class TestClassifyMatrix:
    def test_healthy(self):
        assert classify_matrix(np.ones((3, 3))) is None

    @pytest.mark.parametrize(
        ("matrix", "category"),
        [
            ([[1.0, float("nan")], [1.0, 1.0]], "nan"),
            ([[1.0, float("inf")], [1.0, 1.0]], "non-finite"),
            ([[1.0, -2.0], [1.0, 1.0]], "negative"),
            ([[0.0, 0.0], [1.0, 1.0]], "empty-line"),
            ([[1.0, 0.0], [1.0, 1.0]], None),  # zeros alone are fine
            ("not a matrix", "invalid-shape"),
            ([1.0, 2.0], "invalid-shape"),
            ([[]], "invalid-shape"),
        ],
    )
    def test_categories(self, matrix, category):
        verdict = classify_matrix(matrix)
        if category is None:
            assert verdict is None
        else:
            assert verdict[0] == category

    @pytest.mark.parametrize("kind", sorted(NON_NUMERIC_MEMBERS))
    def test_not_numbers_is_invalid_shape(self, kind):
        # Checked before any conversion: numpy would parse "4" and
        # cast True to 1.0.
        member, dtype = NON_NUMERIC_MEMBERS[kind]
        assert classify_matrix(member) == (
            "invalid-shape",
            f"member must hold int or float entries, got dtype {dtype}",
        )

    def test_screen_order_nan_beats_structure(self):
        # NaN and an all-zero column at once: nan wins (most fundamental).
        m = np.array([[np.nan, 0.0], [1.0, 0.0]])
        assert classify_matrix(m)[0] == "nan"

    def test_decomposable_only_under_raise(self):
        # eq. 10: feasible pattern, but decomposable.
        eq10 = np.array([[0, 0, 1], [1, 0, 1], [0, 1, 0]], dtype=float)
        assert classify_matrix(eq10) is None
        assert classify_matrix(eq10, tma_fallback="limit") is None
        verdict = classify_matrix(eq10, tma_fallback="raise")
        assert verdict[0] == "decomposable"

    def test_infeasible_under_raise(self):
        # Two tasks runnable only on machine 0: margins are infeasible
        # once any other machine needs positive column mass it can't get
        # from rows 0/1 — construct the classic infeasible pattern.
        m = np.array(
            [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 1.0]]
        )
        verdict = classify_matrix(m, tma_fallback="raise")
        assert verdict is not None
        assert verdict[0] in ("infeasible", "decomposable")


class TestClassifyStack:
    @pytest.mark.parametrize("tma_fallback", ["limit", "raise"])
    def test_matches_member_by_member_screen(self, tma_fallback):
        stack = np.random.default_rng(3).uniform(0.5, 2.0, size=(9, 3, 3))
        stack[1, 0, 0] = np.nan
        stack[2, 1, 1] = np.inf
        stack[3, 2, 0] = -1.0
        stack[4, :, 2] = 0.0
        stack[5] = [[0, 0, 1], [1, 0, 1], [0, 1, 0]]  # eq. 10
        stack[6, 0, 1] = 0.0  # zeros, but normalizable
        stack[7, 0, 0] = np.nan
        stack[7, 1, :] = 0.0  # nan outranks the empty line
        expected = {}
        for i, member in enumerate(stack):
            verdict = classify_matrix(member, tma_fallback=tma_fallback)
            if verdict is not None:
                expected[i] = verdict
        assert classify_stack(stack, tma_fallback=tma_fallback) == expected
        categories = {1: "nan", 2: "non-finite", 3: "negative", 4: "empty-line"}
        if tma_fallback == "raise":
            categories[5] = "decomposable"
        categories[7] = "nan"
        assert {i: c for i, (c, _) in expected.items()} == categories

    def test_healthy_stack_is_empty(self):
        assert classify_stack(np.ones((4, 2, 3))) == {}


class TestMemberFault:
    def test_rejects_unknown_category(self):
        with pytest.raises(MatrixValueError):
            MemberFault(index=0, category="gremlin", detail="?")

    def test_summary_states(self):
        q = MemberFault(index=3, category="nan", detail="x")
        assert "quarantined" in q.summary()
        r = MemberFault(
            index=3,
            category="non-convergent",
            detail="x",
            repaired=True,
            attempts=2,
            repair="tol-backoff:1e-06",
        )
        assert "repaired" in r.summary()
        assert "tol-backoff:1e-06" in r.summary()

    def test_unrepairable_is_subset(self):
        assert UNREPAIRABLE_CATEGORIES < set(FAULT_CATEGORIES)


class TestQuarantineReport:
    def _report(self):
        return QuarantineReport(
            policy="repair",
            faults=(
                MemberFault(index=1, category="nan", detail="a"),
                MemberFault(index=4, category="non-convergent", detail="b"),
                MemberFault(index=6, category="nan", detail="c"),
            ),
        )

    def test_len_bool(self):
        assert len(self._report()) == 3
        assert self._report()
        assert not QuarantineReport(policy="quarantine")

    def test_indices_and_groups(self):
        rep = self._report()
        assert rep.quarantined == (1, 4, 6)
        assert rep.repaired == ()
        assert rep.categories() == {
            1: "nan",
            4: "non-convergent",
            6: "nan",
        }
        assert rep.by_category() == {
            "nan": (1, 6),
            "non-convergent": (4,),
        }

    def test_fault_lookup(self):
        rep = self._report()
        assert rep.fault(4).category == "non-convergent"
        with pytest.raises(KeyError):
            rep.fault(2)

    def test_mark_repaired_is_pure(self):
        rep = self._report()
        marked = rep.mark_repaired(4, attempts=2, repair="tol-backoff:1e-06")
        assert rep.fault(4).repaired is False
        assert marked.fault(4).repaired is True
        assert marked.quarantined == (1, 6)
        assert marked.repaired == (4,)
        assert marked.attempts == 2

    def test_summary(self):
        rep = self._report()
        text = rep.summary()
        assert "policy=repair" in text
        assert "3 quarantined" in text
        assert text.count("member") == 3
        assert (
            QuarantineReport(policy="quarantine").summary()
            == "quarantine report: all members healthy"
        )
