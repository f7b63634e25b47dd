"""Property harness for the shard planner (the two docstring invariants)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import MatrixValueError
from repro.shard import DEFAULT_CHUNK_SIZE, Shard, plan_shards
from repro.shard import planner
from repro.shard.planner import _modeled_peak

geometries = st.tuples(
    st.integers(min_value=1, max_value=5000),  # n_members
    st.integers(min_value=1, max_value=16),  # n_tasks
    st.integers(min_value=1, max_value=16),  # n_machines
)


def assert_exact_partition(plan):
    """Shards tile range(n_members) exactly once, in order."""
    expected = 0
    for i, shard in enumerate(plan.shards):
        assert shard.index == i
        assert shard.start == expected
        assert shard.stop > shard.start
        assert shard.n_members == shard.stop - shard.start
        expected = shard.stop
    assert expected == plan.n_members


class TestCoverageProperty:
    @settings(max_examples=60, deadline=None)
    @given(geometry=geometries, chunk=st.integers(min_value=1, max_value=6000))
    def test_explicit_chunk_partitions_exactly_once(self, geometry, chunk):
        n, t, m = geometry
        plan = plan_shards(n, t, m, chunk_size=chunk)
        assert_exact_partition(plan)
        assert plan.chunk_size == min(chunk, n)
        # Every full shard has chunk_size members; only the last is short.
        for shard in plan.shards[:-1]:
            assert shard.n_members == plan.chunk_size
        assert plan.shards[-1].n_members <= plan.chunk_size

    @settings(max_examples=60, deadline=None)
    @given(
        geometry=geometries,
        budget=st.integers(min_value=1, max_value=2**28),
    )
    def test_budgeted_plan_partitions_exactly_once(self, geometry, budget):
        n, t, m = geometry
        plan = plan_shards(n, t, m, memory_budget_bytes=budget)
        assert_exact_partition(plan)
        assert plan.memory_budget_bytes == budget

    @settings(max_examples=30, deadline=None)
    @given(geometry=geometries)
    def test_default_chunk(self, geometry):
        n, t, m = geometry
        plan = plan_shards(n, t, m)
        assert_exact_partition(plan)
        assert plan.chunk_size == min(DEFAULT_CHUNK_SIZE, n)
        assert plan.memory_budget_bytes is None


class TestBudgetProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        geometry=geometries,
        budget=st.integers(min_value=1, max_value=2**28),
    )
    def test_estimated_peak_within_budget_when_feasible(self, geometry, budget):
        n, t, m = geometry
        plan = plan_shards(n, t, m, memory_budget_bytes=budget)
        peaks = [_modeled_peak(n, t, m, c) for c in range(1, n + 1)]
        assert plan.estimated_peak_bytes == peaks[plan.chunk_size - 1]
        if min(peaks) <= budget:
            # The largest chunk that fits.
            assert plan.estimated_peak_bytes <= budget
            assert all(p > budget for p in peaks[plan.chunk_size :])
        else:
            # No chunk fits: the plan takes the least modeled peak and
            # says so via estimated_peak_bytes.
            assert plan.estimated_peak_bytes == min(peaks)

    def test_known_chunk_derivation(self):
        # The largest chunk that fits: one member more would not.
        budget = 128 * 2**20
        plan = plan_shards(10**6, 8, 8, memory_budget_bytes=budget)
        wider = plan_shards(10**6, 8, 8, chunk_size=plan.chunk_size + 1)
        assert plan.estimated_peak_bytes <= budget < wider.estimated_peak_bytes
        assert len(plan.shards) == -(-(10**6) // plan.chunk_size)

    def test_peak_model_parts(self):
        # Per member of the chunk, per shard and per pass (module
        # docstring): the parts add up to the estimate.
        plan = plan_shards(1000, 8, 4, chunk_size=300)
        chunk_bytes = planner.WORKING_SET_FACTOR * 8 * 4 * 8
        line_bytes = planner.LINE_VECTORS * (8 + 4) * 8
        assert plan.estimated_peak_bytes == (
            planner.PASS_BYTES
            + planner.RESULT_BYTES * 1000
            + planner.SHARD_BYTES * 4
            + 300 * (chunk_bytes + line_bytes)
        )


class TestValidation:
    def test_budget_and_chunk_are_mutually_exclusive(self):
        with pytest.raises(MatrixValueError, match="not both"):
            plan_shards(10, 2, 2, memory_budget_bytes=1000, chunk_size=4)

    @pytest.mark.parametrize("bad", [0, -3, 1.5, True, "4"])
    def test_bad_chunk_size(self, bad):
        with pytest.raises(MatrixValueError, match="chunk_size"):
            plan_shards(10, 2, 2, chunk_size=bad)

    @pytest.mark.parametrize("bad", [0, -1, 0.5, True, "64"])
    def test_bad_budget(self, bad):
        with pytest.raises(MatrixValueError, match="memory_budget_bytes"):
            plan_shards(10, 2, 2, memory_budget_bytes=bad)

    @pytest.mark.parametrize("field", ["n_members", "n_tasks", "n_machines"])
    def test_bad_geometry(self, field):
        kwargs = {"n_members": 4, "n_tasks": 2, "n_machines": 2}
        kwargs[field] = 0
        with pytest.raises(MatrixValueError, match=field):
            plan_shards(
                kwargs["n_members"], kwargs["n_tasks"], kwargs["n_machines"]
            )

    def test_shard_rejects_empty_range(self):
        with pytest.raises(MatrixValueError, match="empty or negative"):
            Shard(index=0, start=3, stop=3)
        with pytest.raises(MatrixValueError):
            Shard(index=0, start=-1, stop=2)


class TestSummary:
    def test_summary_mentions_budget_and_shards(self):
        plan = plan_shards(100, 8, 8, memory_budget_bytes=2**20)
        text = plan.summary()
        assert "1 MB budget" in text
        assert f"{len(plan)} shard(s)" in text

    def test_summary_reads_sub_mib_values(self):
        plan = plan_shards(512, 8, 8, memory_budget_bytes=2**19)
        text = plan.summary()
        assert "(0.5 MB budget, est. peak " in text
        estimate = plan.estimated_peak_bytes / 2**20
        assert f"est. peak {estimate:.3g} MB)" in text
        assert 0.1 < estimate <= 0.5

    def test_summary_without_budget(self):
        assert "no budget" in plan_shards(100, 8, 8, chunk_size=10).summary()
