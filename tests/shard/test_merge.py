"""Property harness for shard-result merging: the two merge laws.

Merging is pure bookkeeping over result columns, so the properties run
against one real characterization computed once per module (no kernel
calls inside Hypothesis examples): parts are column slices of the
whole, and any partition — merged in any order, or merged in nested
groups — must reproduce the whole bit for bit.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import characterize_ensemble
from repro.batch.ensemble import EnsembleCharacterization
from repro.exceptions import MatrixShapeError, MatrixValueError
from repro.robust.taxonomy import MemberFault, QuarantineReport
from repro.shard import merge_characterizations, merge_reports, shift_report

from .conftest import RESULT_COLUMNS, assert_results_equal, random_stack

N_MEMBERS = 24


@pytest.fixture(scope="module")
def whole():
    return characterize_ensemble(random_stack(N_MEMBERS, 3, 3, seed=7))


@pytest.fixture(scope="module")
def whole_robust():
    # A synthetic report exercises index shifting without needing real
    # faults: merge only moves indices around.
    plain = characterize_ensemble(random_stack(N_MEMBERS, 3, 3, seed=7))
    report = QuarantineReport(
        policy="quarantine",
        faults=tuple(
            MemberFault(index=i, category="nan", detail=f"member {i}")
            for i in (2, 11, 17, 23)
        ),
    )
    return EnsembleCharacterization(
        report=report,
        **{name: getattr(plain, name) for name in RESULT_COLUMNS},
        n_tasks=plain.n_tasks,
        n_machines=plain.n_machines,
    )


def slice_result(result, start, stop):
    """The part covering members [start, stop), indices made relative."""
    columns = {
        name: getattr(result, name)[start:stop] for name in RESULT_COLUMNS
    }
    if result.report is not None:
        faults = tuple(
            dataclasses.replace(f, index=f.index - start)
            for f in result.report.faults
            if start <= f.index < stop
        )
        return EnsembleCharacterization(
            report=QuarantineReport(
                policy=result.report.policy, faults=faults
            ),
            **columns,
            n_tasks=result.n_tasks,
            n_machines=result.n_machines,
        )
    return EnsembleCharacterization(
        **columns, n_tasks=result.n_tasks, n_machines=result.n_machines
    )


partitions = st.lists(
    st.integers(min_value=1, max_value=N_MEMBERS - 1),
    unique=True,
    max_size=N_MEMBERS - 1,
).map(lambda cuts: [0, *sorted(cuts), N_MEMBERS])


@st.composite
def shuffled_partitions(draw):
    bounds = draw(partitions)
    parts = list(zip(bounds[:-1], bounds[1:]))
    return draw(st.permutations(parts))


class TestMergeLaws:
    @settings(max_examples=60, deadline=None)
    @given(parts=shuffled_partitions())
    def test_order_independent_merge_reproduces_whole(self, parts, whole):
        merged = merge_characterizations(
            [(start, slice_result(whole, start, stop)) for start, stop in parts]
        )
        assert_results_equal(merged, whole)

    @settings(max_examples=60, deadline=None)
    @given(parts=shuffled_partitions())
    def test_order_independent_merge_robust(self, parts, whole_robust):
        merged = merge_characterizations(
            [
                (start, slice_result(whole_robust, start, stop))
                for start, stop in parts
            ]
        )
        assert_results_equal(merged, whole_robust)
        assert [f.index for f in merged.report.faults] == [2, 11, 17, 23]

    @settings(max_examples=40, deadline=None)
    @given(
        parts=shuffled_partitions(),
        pivot=st.integers(min_value=1, max_value=10),
    )
    def test_merge_is_associative(self, parts, pivot, whole_robust):
        """Merging merges equals merging everything at once."""
        ordered = sorted(parts)
        pivot = min(pivot, len(ordered) - 1)
        if pivot == 0:
            groups = [ordered]
        else:
            groups = [ordered[:pivot], ordered[pivot:]]
        group_results = [
            (
                group[0][0],
                merge_characterizations(
                    [
                        (start, slice_result(whole_robust, start, stop))
                        for start, stop in group
                    ]
                ),
            )
            for group in groups
        ]
        assert_results_equal(
            merge_characterizations(group_results), whole_robust
        )

    def test_single_part_is_identity(self, whole):
        merged = merge_characterizations([(0, whole)])
        assert_results_equal(merged, whole)

    def test_nonzero_base_offset(self, whole_robust):
        # Parts need not start at member 0: a merged sub-range keeps
        # report indices relative to its own base.
        part = slice_result(whole_robust, 8, 20)
        merged = merge_characterizations(
            [(108, part), (120, slice_result(whole_robust, 20, 24))]
        )
        assert len(merged) == 16
        # whole faults at 11, 17, 23 fall in [8, 24) -> relative 3, 9, 15.
        assert [f.index for f in merged.report.faults] == [3, 9, 15]


class TestMergeErrors:
    def test_empty_merge(self):
        with pytest.raises(MatrixValueError, match="zero shard results"):
            merge_characterizations([])

    def test_gap_rejected(self, whole):
        with pytest.raises(MatrixShapeError, match="not contiguous"):
            merge_characterizations(
                [
                    (0, slice_result(whole, 0, 8)),
                    (10, slice_result(whole, 10, 24)),
                ]
            )

    def test_overlap_rejected(self, whole):
        with pytest.raises(MatrixShapeError, match="not contiguous"):
            merge_characterizations(
                [
                    (0, slice_result(whole, 0, 10)),
                    (8, slice_result(whole, 8, 24)),
                ]
            )

    def test_duplicate_start_rejected(self, whole):
        with pytest.raises(MatrixShapeError):
            merge_characterizations(
                [
                    (0, slice_result(whole, 0, 12)),
                    (0, slice_result(whole, 0, 12)),
                ]
            )

    def test_mixed_robust_and_plain_rejected(self, whole, whole_robust):
        with pytest.raises(MatrixValueError, match="robust and non-robust"):
            merge_characterizations(
                [
                    (0, slice_result(whole, 0, 12)),
                    (12, slice_result(whole_robust, 12, 24)),
                ]
            )

    def test_shape_mismatch_rejected(self, whole):
        other = characterize_ensemble(random_stack(4, 2, 2, seed=8))
        with pytest.raises(MatrixShapeError, match="member shape"):
            merge_characterizations([(0, whole), (24, other)])


class TestReportMerging:
    def test_shift_report_zero_is_identity(self, whole_robust):
        assert shift_report(whole_robust.report, 0) is whole_robust.report

    def test_shift_report_moves_every_index(self, whole_robust):
        shifted = shift_report(whole_robust.report, 100)
        assert [f.index for f in shifted.faults] == [102, 111, 117, 123]
        # Non-index fields are untouched.
        assert [f.detail for f in shifted.faults] == [
            f.detail for f in whole_robust.report.faults
        ]

    def test_merge_reports_sorts_absolute_indices(self):
        first = QuarantineReport(
            policy="repair",
            faults=(MemberFault(index=1, category="nan", detail="a"),),
        )
        second = QuarantineReport(
            policy="repair",
            faults=(MemberFault(index=0, category="non-convergent", detail="b"),),
        )
        merged = merge_reports([(10, second), (0, first)])
        assert merged.policy == "repair"
        assert [(f.index, f.category) for f in merged.faults] == [
            (1, "nan"),
            (10, "non-convergent"),
        ]

    def test_merge_reports_empty(self):
        with pytest.raises(MatrixValueError, match="zero quarantine"):
            merge_reports([])

    def test_merge_reports_policy_mismatch(self):
        a = QuarantineReport(policy="quarantine", faults=())
        b = QuarantineReport(policy="repair", faults=())
        with pytest.raises(MatrixValueError, match="different policies"):
            merge_reports([(0, a), (4, b)])
