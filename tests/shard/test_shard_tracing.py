"""Trace-context handoff into shard pool workers.

With a JSONL sink bound (``recording(trace_path=path)``), a pooled
``characterize_store`` run serializes ``(path, shard context)`` into
each worker's argument tuple; each worker binds a sink on the shared
file under that context and runs inside a ``shard.worker`` span, so its
kernel spans are that span's children.  Under speculation a shard's
primary and backup dispatches are *sibling* spans under one
``shard.dispatch`` parent — the loser's span is synthesized by the
scheduler (terminated stragglers cannot write their own).
"""

from __future__ import annotations

import os

import pytest

from repro.obs import (
    TraceContext,
    group_traces,
    load_spans,
    recording,
    trace_scope,
)
from repro.obs.metrics import MetricsRegistry, collecting_metrics
from repro.robust import Budget, FaultPlan
from repro.robust.chaos import FaultSpec
from repro.shard import characterize_store, write_store

from .conftest import random_stack

N_MEMBERS = 16
CHUNK = 8  # two shards


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    stack = random_stack(N_MEMBERS, 5, 4, seed=7)
    return write_store(tmp_path_factory.mktemp("traced") / "store", stack)


def _traced_run(store, trace_path, **kwargs):
    with collecting_metrics(MetricsRegistry()):
        with recording(trace_path=str(trace_path)):
            characterize_store(store, chunk_size=CHUNK, **kwargs)
    return load_spans(str(trace_path))


class TestPooledRunTracing:
    def test_worker_spans_hang_off_dispatch_parents(self, store, tmp_path):
        spans = _traced_run(store, tmp_path / "spans.jsonl", n_jobs=2)
        [view] = group_traces(spans)  # one run, one trace

        dispatches = [s for s in spans if s["name"] == "shard.dispatch"]
        workers = [s for s in spans if s["name"] == "shard.worker"]
        assert len(dispatches) == 2
        assert len(workers) == 2
        assert all(s["trace_id"] == view.trace_id for s in spans)

        dispatch_ids = {d["span_id"] for d in dispatches}
        assert {w["parent_id"] for w in workers} <= dispatch_ids
        # Worker spans carry their shard slice and real process ids.
        for worker in workers:
            assert worker["meta"]["members"] == CHUNK
            assert worker["pid"] != os.getpid()
        # Each dispatch records its winner without speculation.
        for dispatch in dispatches:
            assert dispatch["meta"]["speculated"] is False
            assert dispatch["meta"]["winner"] == "primary"

    def test_dispatch_spans_adopt_the_ambient_context(
        self, store, tmp_path
    ):
        ambient = TraceContext.new()
        with collecting_metrics(MetricsRegistry()):
            with recording(trace_path=str(tmp_path / "spans.jsonl")):
                with trace_scope(ambient):
                    characterize_store(store, chunk_size=CHUNK, n_jobs=2)
        spans = load_spans(str(tmp_path / "spans.jsonl"))
        assert spans and all(
            s["trace_id"] == ambient.trace_id for s in spans
        )
        # The run's own span is the ambient context's child, and each
        # dispatch hangs off the run.
        [run] = [s for s in spans if s["name"] == "shard.characterize_store"]
        assert run["parent_id"] == ambient.span_id
        dispatches = [s for s in spans if s["name"] == "shard.dispatch"]
        assert len(dispatches) == 2
        for dispatch in dispatches:
            assert dispatch["parent_id"] == run["span_id"]

    def test_speculation_yields_sibling_pair_under_one_parent(
        self, store, tmp_path
    ):
        plan = FaultPlan(
            faults=(FaultSpec(kind="stall", member=3, stall_s=3.0),)
        )
        spans = _traced_run(
            store,
            tmp_path / "spans.jsonl",
            n_jobs=2,
            policy="quarantine",
            fault_plan=plan,
            budget=Budget(member_timeout_s=0.25),
        )
        [view] = group_traces(spans)

        # The stalled shard's dispatch fathered two sibling attempts:
        # the backup's real worker span and the synthesized span of the
        # cancelled primary.
        speculated = next(
            s for s in spans
            if s["name"] == "shard.dispatch" and s["meta"]["speculated"]
        )
        siblings = [
            s for s in spans
            if s["parent_id"] == speculated["span_id"]
            and s["name"].startswith("shard.worker")
        ]
        assert len(siblings) == 2
        by_name = {s["name"]: s for s in siblings}
        assert set(by_name) == {"shard.worker", "shard.worker.lost"}
        lost = by_name["shard.worker.lost"]
        assert "cancelled" in lost["error"]
        assert lost["meta"]["attempt"] != by_name["shard.worker"]["meta"][
            "attempt"
        ]
        assert speculated["meta"]["winner"] == "backup"
        assert view.root["name"] == "shard.dispatch" or view.root[
            "parent_id"
        ] is None

    def test_untraced_pooled_run_emits_nothing(self, store, tmp_path):
        with collecting_metrics(MetricsRegistry()):
            characterize_store(store, chunk_size=CHUNK, n_jobs=2)
        assert list(tmp_path.iterdir()) == []

    def test_serial_run_emits_no_dispatch_spans(self, store, tmp_path):
        path = tmp_path / "spans.jsonl"
        with collecting_metrics(MetricsRegistry()):
            with recording(trace_path=str(path)) as rec:
                characterize_store(store, chunk_size=CHUNK)
        # The serial path never dispatches: its chunks run in process
        # under the run's span, and nothing crosses to a worker.
        names = {e.name for e in rec.events}
        assert "shard.chunk" in names
        assert not names & {"shard.dispatch", "shard.worker",
                            "shard.worker.lost"}
        assert load_spans(str(path)) == []  # untraced: no trace ids

    def test_worker_kernel_spans_nest_under_shard_worker(
        self, store, tmp_path
    ):
        spans = _traced_run(store, tmp_path / "spans.jsonl", n_jobs=2)
        by_id = {s["span_id"]: s for s in spans}
        workers = [s for s in spans if s["name"] == "shard.worker"]
        assert len(workers) == 2

        def owning_worker(record):
            while record is not None and record["name"] != "shard.worker":
                record = by_id.get(record["parent_id"])
            return record

        for worker in workers:
            kernels = [
                s for s in spans
                if s["name"] in ("sinkhorn.batched", "svd.batched")
                and owning_worker(s) is worker
            ]
            assert {s["name"] for s in kernels} == {
                "sinkhorn.batched", "svd.batched",
            }
            # Written by the worker process that ran them.
            assert {s["pid"] for s in kernels} == {worker["pid"]}
