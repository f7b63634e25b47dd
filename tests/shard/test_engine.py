"""characterize_store API contracts."""

import pytest

from repro.batch import characterize_ensemble
from repro.exceptions import MatrixValueError
from repro.robust import Budget
from repro.shard import StackStore, characterize_store, engine, write_store

from .conftest import random_stack


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    path = tmp_path_factory.mktemp("engine") / "store"
    return write_store(path, random_stack(12, 3, 3, seed=21))


class TestEngineValidation:
    def test_unknown_policy(self, store):
        with pytest.raises(MatrixValueError, match="policy"):
            characterize_store(store, policy="retry")

    def test_budget_requires_robust_policy(self, store):
        with pytest.raises(MatrixValueError, match="quarantine"):
            characterize_store(store, budget=Budget(deadline_s=10.0))

    @pytest.mark.parametrize("bad", [0, -2.0, True, "32"])
    def test_bad_memory_budget(self, store, bad):
        with pytest.raises(MatrixValueError, match="memory_budget_mb"):
            characterize_store(store, memory_budget_mb=bad)

    def test_budget_and_chunk_mutually_exclusive(self, store):
        with pytest.raises(MatrixValueError, match="not both"):
            characterize_store(store, memory_budget_mb=8, chunk_size=4)

    def test_nonexistent_store_path(self, tmp_path):
        with pytest.raises(MatrixValueError, match="not a stack store"):
            characterize_store(tmp_path / "missing")

    def test_deadline_budget_flows_to_chunks(self, store):
        # A generous run-level deadline must not disturb the results.
        result = characterize_store(
            store,
            chunk_size=5,
            policy="quarantine",
            budget=Budget(deadline_s=300.0),
        )
        assert len(result) == 12
        assert result.converged.all()


class TestOneMapPerPass:
    def test_an_eight_chunk_pass_maps_the_file_once(self, tmp_path, monkeypatch):
        stack = random_stack(64, 4, 4, seed=5)
        store = write_store(tmp_path / "store", stack)
        maps, reads = [], []
        memmap, read = StackStore.memmap, StackStore.read
        monkeypatch.setattr(
            StackStore, "memmap", lambda self: maps.append(1) or memmap(self)
        )
        monkeypatch.setattr(
            StackStore,
            "read",
            lambda self, start, stop: (
                reads.append(store._map is None) or read(self, start, stop)
            ),
        )
        result = characterize_store(store, chunk_size=8)
        assert (len(maps), len(reads)) == (1, 8)
        # The pass reads through its own copy of the store: the caller's
        # store holds no map even mid-pass, so another thread reading it
        # maps the file as it is.
        assert all(reads)
        reference = characterize_ensemble(stack)
        assert result.records().tobytes() == reference.records().tobytes()
        # The map ends with the pass: a later read maps the file afresh.
        store.read(0, 1)
        assert len(maps) == 2


def _message(call):
    with pytest.raises(MatrixValueError) as info:
        call()
    return str(info.value)


class TestRaiseNamesAbsoluteMembers:
    """A ``policy="raise"`` store run names a bad member by its index in
    the store, as the in-memory run does, in both dispatch modes."""

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize(
        "member,corrupt",
        [(67, lambda m: m.__setitem__(1, 0.0)), (70, lambda m: m.fill(1e308))],
        ids=["zero-row", "overflow"],
    )
    def test_error_matches_in_memory(self, tmp_path, member, corrupt, n_jobs):
        stack = random_stack(96, 4, 4, seed=3)
        corrupt(stack[member])
        store = write_store(tmp_path / "store", stack)
        expected = _message(lambda: characterize_ensemble(stack))
        assert f"slice(s) [{member}]" in expected
        assert _message(
            lambda: characterize_store(store, chunk_size=32, n_jobs=n_jobs)
        ) == expected


class TestOptionsCheckedFirst:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_bad_option_before_any_read_or_pool(self, store, monkeypatch, n_jobs):
        calls = []
        monkeypatch.setattr(
            StackStore, "read", lambda *args: calls.append("read")
        )
        monkeypatch.setattr(
            engine, "_schedule", lambda *args, **kw: calls.append("schedule")
        )
        with pytest.raises(MatrixValueError, match="tma_fallback"):
            characterize_store(
                store, chunk_size=4, n_jobs=n_jobs, tma_fallback="nearest"
            )
        assert calls == []
