"""Memory-ceiling regression: streaming peaks stay under the plan.

``tracemalloc`` sees every numpy heap allocation but not memmap pages
(those live in the OS page cache), so the traced peak of a
``characterize_store`` run is what the planner models: chunk copies,
kernel temporaries, finished shard parts and the O(N) result columns
(docs/SHARDING.md, "The planner").  The matrix over shapes, policies
and budgets runs in tier 1 and checks the model bounds every pass it
plans; the ``slow``-marked variant streams a store several
times larger than its budget.
"""

import tracemalloc

import numpy as np
import pytest

from repro.shard import (
    characterize_store,
    create_store,
    open_store,
    plan_shards,
    write_store,
)
from repro.shard.planner import _modeled_peak

#: The configurations the planner serves, at tier-1 sizes.
SHAPES = ((5, 4), (8, 8), (32, 16))
BUDGETS_MB = (0.1, 0.25, 0.5, 2)
MATRIX_MEMBERS = 1024


def build_store(path, n_members, *, shape=(8, 8), chunk=8192, seed=0):
    """Stream a positive (N, T, M) ensemble to disk in bounded chunks."""
    rng = np.random.default_rng(seed)
    with create_store(path, n_tasks=shape[0], n_machines=shape[1]) as writer:
        remaining = n_members
        while remaining:
            k = min(chunk, remaining)
            writer.append(np.exp(rng.uniform(-2.3, 2.3, size=(k, *shape))))
            remaining -= k
    return open_store(path)


def traced_peak_bytes(func):
    """tracemalloc peak of one call, isolated from collection noise."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = func()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def run_and_assert_ceiling(store, budget_mb):
    result, peak = traced_peak_bytes(
        lambda: characterize_store(store, memory_budget_mb=budget_mb)
    )
    assert len(result) == len(store)
    assert result.converged.all()
    budget_bytes = budget_mb * 2**20
    assert peak <= budget_bytes, (
        f"streaming peak {peak / 2**20:.1f} MiB exceeds the "
        f"{budget_mb} MiB budget"
    )
    return peak


@pytest.fixture(scope="module")
def matrix_stores(tmp_path_factory):
    """shape -> (store, 8-member warm-up store of the same shape)."""
    root = tmp_path_factory.mktemp("ceiling")
    stores = {}
    for t, m in SHAPES:
        stores[t, m] = (
            build_store(root / f"{t}x{m}", MATRIX_MEMBERS, shape=(t, m)),
            build_store(root / f"warm-{t}x{m}", 8, shape=(t, m)),
        )
    return stores


@pytest.mark.parametrize("budget_mb", BUDGETS_MB)
@pytest.mark.parametrize("policy", ["raise", "quarantine"])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_peak_within_estimate(matrix_stores, shape, policy, budget_mb):
    store, warm = matrix_stores[shape]
    characterize_store(warm, chunk_size=4, policy=policy)
    budget = int(budget_mb * 2**20)
    plan = plan_shards(len(store), *shape, memory_budget_bytes=budget)
    result, peak = traced_peak_bytes(
        lambda: characterize_store(store, memory_budget_mb=budget_mb, policy=policy)
    )
    assert result.converged.all()
    assert peak <= plan.estimated_peak_bytes, (
        f"{plan.summary()}: traced peak {peak} B"
    )
    # Over budget only at the floor: no chunk has a smaller modeled peak.
    n = len(store)
    least = min(_modeled_peak(n, *shape, c) for c in range(1, n + 1))
    assert plan.estimated_peak_bytes <= budget or plan.estimated_peak_bytes == least


def test_estimate_tracks_benchmark_pass(tmp_path):
    # The suite's store pass: 512 (8, 8) members under 0.5 MiB.  The
    # estimate bounds the peak and stays within 1.5x of it.
    rng = np.random.default_rng(7)
    store = write_store(tmp_path / "s", rng.uniform(0.5, 10.0, (512, 8, 8)))
    characterize_store(store, chunk_size=4)
    plan = plan_shards(512, 8, 8, memory_budget_bytes=2**19)
    _, peak = traced_peak_bytes(
        lambda: characterize_store(store, memory_budget_mb=0.5)
    )
    assert peak <= plan.estimated_peak_bytes <= 1.5 * peak


def test_slow_members_stay_within_estimate(tmp_path):
    # Off-diagonal 4x4 blocks scaled by 1e-4 take ~1.5e4 iterations.  A
    # store pass records no residual trace, so its peak does not grow
    # with the iteration count.
    rng = np.random.default_rng(11)
    stack = rng.uniform(0.5, 10.0, (512, 8, 8))
    stack[:, :4, 4:] *= 1e-4
    stack[:, 4:, :4] *= 1e-4
    store = write_store(tmp_path / "s", stack)
    characterize_store(write_store(tmp_path / "w", np.ones((8, 8, 8))), chunk_size=4)
    plan = plan_shards(512, 8, 8, memory_budget_bytes=2**19)
    result, peak = traced_peak_bytes(
        lambda: characterize_store(store, memory_budget_mb=0.5)
    )
    assert result.converged.all()
    assert np.median(result.iterations) > 10_000
    assert peak <= plan.estimated_peak_bytes, (
        f"{plan.summary()}: traced peak {peak} B"
    )


def test_quick_ceiling(tmp_path):
    # 16384 members = 8 MiB on disk, streamed under an 8 MiB budget in
    # the chunks the planner fits.
    store = build_store(tmp_path / "s", 16384)
    peak = run_and_assert_ceiling(store, budget_mb=8)
    # Sanity: the whole stack would not have fit the measured peak
    # (float64 stack + standard form alone is 2x nbytes).
    assert peak < 2 * store.nbytes


@pytest.mark.slow
def test_ceiling_on_store_much_larger_than_budget(tmp_path):
    # 64 Ki members = 32 MiB on disk against a 16 MiB working-set
    # budget: the stack cannot be materialized inside the budget even
    # once, so only streaming can pass.
    store = build_store(tmp_path / "s", 65536)
    budget_mb = 16
    assert store.nbytes == 32 * 2**20 > budget_mb * 2**20
    run_and_assert_ceiling(store, budget_mb=budget_mb)


def test_warm_import_baseline(tmp_path):
    # Guard the harness itself: a tiny run must register a peak well
    # below the quick budget, proving imports/caches are not billed to
    # the streaming working set by the time the ceiling tests run.
    store = build_store(tmp_path / "s", 64, chunk=64)
    _, peak = traced_peak_bytes(
        lambda: characterize_store(store, chunk_size=32)
    )
    assert peak < 4 * 2**20
