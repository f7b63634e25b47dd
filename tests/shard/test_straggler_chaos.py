"""Chaos drill: straggling shards are speculated around, not waited for.

A ``stall`` fault pins one shard's primary dispatch; with a per-shard
timeout (``Budget.member_timeout_s``) the pool scheduler re-dispatches
the shard redundantly, the healthy copy wins, the straggler is
cancelled, and the merged result is bit-identical to a stall-free
in-memory run — all of it recorded by ``repro_shard_dispatch_total``.
"""

import time

import numpy as np
import pytest

from repro.batch import characterize_ensemble
from repro.exceptions import MatrixValueError
from repro.obs import recording
from repro.obs.metrics import MetricsRegistry, collecting_metrics
from repro.robust import Budget, FaultPlan
from repro.robust.chaos import FaultSpec
from repro.shard import StackStore, characterize_store, engine, write_store

from .conftest import assert_results_equal, random_stack

N_MEMBERS = 32
CHUNK = 8  # four shards
THIRD = -(-N_MEMBERS // 3)  # three shards

STALL_S = 3.0
TIMEOUT_S = 0.25


_REAL_WORKER = engine._shard_worker


def _stall_every_copy(task, attempt):
    """A shard worker whose second shard stalls on every attempt."""
    if task[1] == CHUNK:
        time.sleep(STALL_S)
    return _REAL_WORKER(task, attempt)


def _hang_first_two_shards(task, attempt):
    """A shard worker whose first two of three shards hang on every copy."""
    if task[1] < 2 * THIRD:
        time.sleep(60.0)
    return _REAL_WORKER(task, attempt)


@pytest.fixture(scope="module")
def stack():
    return random_stack(N_MEMBERS, 6, 6, seed=11)


@pytest.fixture(scope="module")
def store(stack, tmp_path_factory):
    return write_store(tmp_path_factory.mktemp("chaos") / "store", stack)


def dispatches(registry):
    counter = registry.get("repro_shard_dispatch_total")
    return {
        event: counter.value(event=event)
        for event in (
            "primary",
            "speculative",
            "winner_primary",
            "winner_backup",
            "cancelled",
        )
    }


class TestSpeculation:
    def test_backup_overtakes_stalled_shard(self, stack, store):
        plan = FaultPlan(
            faults=(FaultSpec(kind="stall", member=3, stall_s=STALL_S),)
        )
        started = time.monotonic()
        with collecting_metrics(MetricsRegistry()) as registry, recording() as rec:
            sharded = characterize_store(
                store,
                chunk_size=CHUNK,
                n_jobs=3,
                policy="quarantine",
                fault_plan=plan,
                budget=Budget(member_timeout_s=TIMEOUT_S),
            )
        elapsed = time.monotonic() - started

        # The run never waited out the stall: the backup finished first.
        assert elapsed < STALL_S

        events = dispatches(registry)
        assert events["primary"] == 4.0
        assert events["speculative"] >= 1.0
        assert events["winner_backup"] >= 1.0
        assert events["cancelled"] >= 1.0
        assert (
            events["winner_primary"] + events["winner_backup"] == 4.0
        )  # every shard produced exactly one winning result
        (run,) = rec.spans("shard.characterize_store")
        assert run.meta["shards"] == 4
        assert run.meta["members"] == N_MEMBERS

        # Stalls delay, they do not corrupt: bit-identical to a healthy
        # in-memory run.
        whole = characterize_ensemble(stack, policy="quarantine")
        assert_results_equal(sharded, whole)

    def test_serial_stall_just_waits(self, stack, store):
        plan = FaultPlan(
            faults=(FaultSpec(kind="stall", member=3, stall_s=0.2),)
        )
        started = time.monotonic()
        with collecting_metrics(MetricsRegistry()) as registry:
            sharded = characterize_store(
                store, chunk_size=CHUNK, fault_plan=plan
            )
        elapsed = time.monotonic() - started
        assert elapsed >= 0.2  # no speculation without a pool
        events = dispatches(registry)
        assert events["primary"] == 4.0
        assert events["speculative"] == 0.0
        assert events["cancelled"] == 0.0
        assert_results_equal(sharded, characterize_ensemble(stack))

    def test_no_timeout_means_no_speculation(self, stack, store):
        with collecting_metrics(MetricsRegistry()) as registry:
            sharded = characterize_store(store, chunk_size=CHUNK, n_jobs=2)
        events = dispatches(registry)
        assert events["primary"] == 4.0
        assert events["speculative"] == 0.0
        assert events["winner_primary"] == 4.0
        assert_results_equal(sharded, characterize_ensemble(stack))

    def test_queued_shards_are_not_speculated(self, stack, store):
        # Two workers, four shards, every first copy 0.3 s slow: the
        # second pair waits for a free worker, and its clock must not
        # run while it waits.
        plan = FaultPlan(
            faults=tuple(
                FaultSpec(kind="stall", member=member, stall_s=0.3)
                for member in (0, 8, 16, 24)
            )
        )
        with collecting_metrics(MetricsRegistry()) as registry:
            sharded = characterize_store(
                store,
                chunk_size=CHUNK,
                n_jobs=2,
                policy="quarantine",
                fault_plan=plan,
                budget=Budget(member_timeout_s=0.5),
            )
        events = dispatches(registry)
        assert events["primary"] == 4.0
        assert events["speculative"] == 0.0
        assert events["cancelled"] == 0.0
        assert events["winner_primary"] == 4.0
        assert_results_equal(
            sharded, characterize_ensemble(stack, policy="quarantine")
        )

    def test_shard_past_timeout_on_both_copies_is_quarantined(
        self, stack, store, monkeypatch
    ):
        # The second shard stalls on every copy: its spare runs past the
        # timeout too, so its members are quarantined as timeouts (at
        # absolute indices) and, under "repair", recomputed in process.
        monkeypatch.setattr(engine, "_shard_worker", _stall_every_copy)
        for policy in ("quarantine", "repair"):
            with collecting_metrics(MetricsRegistry()) as registry:
                sharded = characterize_store(
                    store,
                    chunk_size=CHUNK,
                    n_jobs=2,
                    policy=policy,
                    budget=Budget(member_timeout_s=TIMEOUT_S),
                )
            events = dispatches(registry)
            assert events["speculative"] == 1.0
            assert events["winner_primary"] == 3.0
            assert events["winner_backup"] == 0.0
            report = sharded.report
            assert [f.index for f in report.faults] == list(range(8, 16))
            assert {f.category for f in report.faults} == {"timeout"}
            whole = characterize_ensemble(stack, policy="quarantine")
            rest = np.r_[0:8, 16:N_MEMBERS]
            for name in ("mph", "tdh", "tma"):
                assert np.array_equal(
                    getattr(sharded, name)[rest], getattr(whole, name)[rest]
                )
            if policy == "quarantine":
                assert np.isnan(sharded.tma[8:16]).all()
                assert not report.repaired
            else:
                assert [f.repair for f in report.faults] == ["local-retry"] * 8
                np.testing.assert_allclose(
                    sharded.tma[8:16], whole.tma[8:16], rtol=1e-9
                )

    def test_shards_hung_on_every_worker_do_not_block_the_rest(
        self, stack, store, monkeypatch
    ):
        # Three shards on two workers; the first two hang on every copy,
        # so their given-up copies hold both workers.  The third shard
        # must still run, on a fresh pool, within a few timeouts.
        monkeypatch.setattr(engine, "_shard_worker", _hang_first_two_shards)
        start = time.monotonic()
        with collecting_metrics(MetricsRegistry()) as registry:
            sharded = characterize_store(
                store,
                chunk_size=THIRD,
                n_jobs=2,
                policy="quarantine",
                budget=Budget(member_timeout_s=0.3),
            )
        assert time.monotonic() - start < 10.0
        events = dispatches(registry)
        assert events["primary"] == 3.0
        assert events["speculative"] == 2.0
        assert events["winner_primary"] == 1.0
        report = sharded.report
        assert [f.index for f in report.faults] == list(range(2 * THIRD))
        assert {f.category for f in report.faults} == {"timeout"}
        whole = characterize_ensemble(stack, policy="quarantine")
        for name in ("mph", "tdh", "tma"):
            assert np.array_equal(
                getattr(sharded, name)[2 * THIRD :],
                getattr(whole, name)[2 * THIRD :],
            )

    def test_stall_combined_with_data_faults(self, stack, store):
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="stall", member=3, stall_s=STALL_S),
                FaultSpec(kind="nan", member=17),
                FaultSpec(kind="zero-row", member=30),
            )
        )
        with collecting_metrics(MetricsRegistry()) as registry:
            sharded = characterize_store(
                store,
                chunk_size=CHUNK,
                n_jobs=3,
                policy="quarantine",
                fault_plan=plan,
                budget=Budget(member_timeout_s=TIMEOUT_S),
            )
        assert dispatches(registry)["winner_backup"] >= 1.0
        # Data faults keep in-memory semantics even on a speculated run.
        whole = characterize_ensemble(
            stack,
            policy="quarantine",
            fault_plan=FaultPlan(
                faults=(
                    FaultSpec(kind="nan", member=17),
                    FaultSpec(kind="zero-row", member=30),
                )
            ),
        )
        for name in ("mph", "tdh", "tma"):
            assert np.array_equal(
                getattr(sharded, name), getattr(whole, name), equal_nan=True
            )
        assert {f.index for f in sharded.report.faults} == {17, 30}


def _raise_for_second_shard(task, attempt):
    """A shard worker whose second shard raises."""
    if task[1] == CHUNK:
        raise RuntimeError("shard worker crashed")
    return _REAL_WORKER(task, attempt)


class TestFailedShards:
    """A shard that raised follows the in-memory rule for a failed
    worker: under the robust policies its members are ``worker-error``
    faults at absolute indices, and the rest of the run is untouched."""

    def check(self, stack, sharded, policy):
        report = sharded.report
        assert [f.index for f in report.faults] == list(range(CHUNK, 2 * CHUNK))
        assert {f.category for f in report.faults} == {"worker-error"}
        assert not report.repaired
        assert np.isnan(sharded.tma[CHUNK : 2 * CHUNK]).all()
        whole = characterize_ensemble(stack, policy=policy)
        rest = np.r_[0:CHUNK, 2 * CHUNK : N_MEMBERS]
        for name in ("mph", "tdh", "tma", "iterations", "converged", "batched"):
            assert np.array_equal(
                getattr(sharded, name)[rest], getattr(whole, name)[rest]
            )

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("policy", ["quarantine", "repair"])
    def test_chunk_whose_read_raises(self, stack, store, monkeypatch, policy, n_jobs):
        read = StackStore.read

        def failing_read(self, start, stop):
            if CHUNK <= start < 2 * CHUNK:
                raise OSError("store read failed")
            return read(self, start, stop)

        monkeypatch.setattr(StackStore, "read", failing_read)
        sharded = characterize_store(
            store, chunk_size=CHUNK, n_jobs=n_jobs, policy=policy
        )
        self.check(stack, sharded, policy)
        with pytest.raises(OSError, match="store read failed"):
            characterize_store(store, chunk_size=CHUNK, n_jobs=n_jobs)

    @pytest.mark.parametrize("policy", ["quarantine", "repair"])
    def test_shard_worker_that_raises(self, stack, store, monkeypatch, policy):
        monkeypatch.setattr(engine, "_shard_worker", _raise_for_second_shard)
        sharded = characterize_store(
            store, chunk_size=CHUNK, n_jobs=2, policy=policy
        )
        self.check(stack, sharded, policy)
        with pytest.raises(RuntimeError, match="shard worker crashed"):
            characterize_store(store, chunk_size=CHUNK, n_jobs=2)


class TestChaosValidation:
    def test_timeout_requires_robust_policy(self, store):
        with pytest.raises(MatrixValueError, match="policy='quarantine'"):
            characterize_store(
                store, chunk_size=CHUNK, budget=Budget(member_timeout_s=0.1)
            )

    def test_fault_beyond_store_rejected(self, store):
        plan = FaultPlan(faults=(FaultSpec(kind="nan", member=N_MEMBERS),))
        with pytest.raises(MatrixValueError, match="only 32 members"):
            characterize_store(
                store, chunk_size=CHUNK, policy="quarantine", fault_plan=plan
            )
