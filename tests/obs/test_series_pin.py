"""Which metric series the instrumented paths produce, pinned.

Each case runs one fixed path under a fresh registry and compares every
``(family, label tuple)`` series it left behind with a literal.  Counter
values and histogram observation counts are pinned; gauge values and
histogram sums and buckets are not, since they carry wall times or the
adaptive admission limit.  A refactor of the recording call sites must
move no series: the literals below were taken before one.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro import characterize
from repro.batch import characterize_ensemble
from repro.batch.sinkhorn import standardize_batched
from repro.obs.metrics import MetricsRegistry, collecting_metrics
from repro.robust import FaultPlan
from repro.serve import CharacterizationServer, ServeConfig
from repro.shard import characterize_store, write_store


def _series(registry: MetricsRegistry) -> dict:
    """family -> {label tuple: pinned value}; ``None`` where not pinned."""
    out = {}
    for family in registry.collect():
        samples = {}
        for key, value in sorted(family.samples.items()):
            if family.kind == "histogram":
                value = value["count"]
            elif family.kind == "gauge":
                value = None
            samples[key] = value
        out[family.name] = samples
    return out


def _scalar(tmp_path):
    characterize(np.random.default_rng(3).uniform(0.5, 10.0, (6, 4)))


def _ensemble(tmp_path):
    stack = np.random.default_rng(2).uniform(0.5, 4.0, (6, 4, 4))
    plan = FaultPlan.random(6, faults="nan=1,zero-row=1", seed=0)
    characterize_ensemble(stack, policy="quarantine", fault_plan=plan)


def _warm(tmp_path):
    stack = np.random.default_rng(4).uniform(0.5, 4.0, (5, 4, 3))
    cold = standardize_batched(stack)
    standardize_batched(stack * 1.01, warm_start=cold)


def _store(tmp_path):
    stack = np.random.default_rng(5).uniform(0.5, 10.0, (8, 4, 4))
    characterize_store(write_store(tmp_path / "store", stack), chunk_size=4)


def _served(tmp_path):
    rng = np.random.default_rng(6)
    nan = rng.uniform(0.5, 10.0, (4, 4))
    nan[1, 2] = np.nan
    requests = [
        ("characterize", {"matrix": rng.uniform(0.5, 10.0, (4, 4)).tolist()}),
        ("characterize", {"matrix": rng.uniform(0.5, 10.0, (4, 4)).tolist()}),
        ("characterize", {"matrix": nan.tolist()}),
        ("standardize", {"matrix": rng.uniform(0.5, 10.0, (3, 5)).tolist()}),
        ("recommend-heuristic",
         {"matrix": rng.uniform(0.5, 10.0, (5, 3)).tolist()}),
        ("standardize", {"matrix": [[1.0, 2.0]], "tol": "tight"}),
    ]

    def post(server, endpoint, payload):
        return server.exchange(
            "POST", f"/v1/{endpoint}",
            json.dumps(payload, allow_nan=True).encode(),
        )

    async def run():
        server = CharacterizationServer(ServeConfig())
        await asyncio.gather(*(post(server, *r) for r in requests))
        await post(server, *requests[0])  # a cache hit
        await server.stop()

    asyncio.run(run())


PINNED = {
    "ensemble": {
        "repro_ensemble_members_total": {("batched",): 4.0},
        "repro_member_outcomes_total": {
            ("fault.empty-line",): 1.0,
            ("fault.nan",): 1.0,
            ("quarantined",): 2.0,
            ("repaired",): 0.0,
        },
        "repro_sinkhorn_exit_residual": {("batched",): 4},
        "repro_sinkhorn_iterations": {("batched",): 4},
        "repro_sinkhorn_runs_total": {("batched", "true"): 4.0},
        "repro_svd_seconds": {("batched",): 1},
    },
    "scalar": {
        "repro_characterize_runs_total": {("standard",): 1.0},
        "repro_sinkhorn_exit_residual": {("scalar",): 1},
        "repro_sinkhorn_iterations": {("scalar",): 1},
        "repro_sinkhorn_runs_total": {("scalar", "true"): 1.0},
        "repro_svd_seconds": {("scalar",): 1},
    },
    "served": {
        "repro_ensemble_members_total": {("batched",): 3.0},
        "repro_member_outcomes_total": {
            ("fault.nan",): 1.0,
            ("quarantined",): 1.0,
            ("repaired",): 0.0,
        },
        "repro_serve_admission_limit": {
            ("characterize",): None,
            ("recommend-heuristic",): None,
            ("standardize",): None,
        },
        "repro_serve_admitted_total": {
            ("characterize",): 3.0,
            ("recommend-heuristic",): 1.0,
            ("standardize",): 1.0,
        },
        "repro_serve_cache_events_total": {
            ("hit-memory",): 1.0,
            ("miss",): 5.0,
            ("store",): 4.0,
        },
        "repro_serve_coalesce_batch_size": {("characterize",): 2, ("standardize",): 1},
        "repro_serve_deadline_exceeded_total": {},
        "repro_serve_drain_total": {},
        "repro_serve_kernel_invocations_total": {
            ("characterize",): 2.0,
            ("standardize",): 1.0,
        },
        "repro_serve_quarantined_total": {("characterize", "nan"): 1.0},
        "repro_serve_request_seconds": {
            ("characterize", "batched"): 2,
            ("characterize", "cache-memory"): 1,
            ("characterize", "error"): 1,
            ("recommend-heuristic", "cold"): 1,
            ("standardize", "cold"): 1,
            ("standardize", "error"): 1,
        },
        "repro_serve_requests_total": {
            ("characterize", "200"): 3.0,
            ("characterize", "422"): 1.0,
            ("recommend-heuristic", "200"): 1.0,
            ("standardize", "200"): 1.0,
            ("standardize", "400"): 1.0,
        },
        "repro_serve_scrape_seconds": {},
        "repro_serve_scrapes_total": {},
        "repro_serve_shed_total": {},
        "repro_sinkhorn_exit_residual": {("batched",): 4},
        "repro_sinkhorn_iterations": {("batched",): 4},
        "repro_sinkhorn_runs_total": {("batched", "true"): 4.0},
        "repro_svd_seconds": {("batched",): 2},
    },
    "store": {
        "repro_ensemble_members_total": {("batched",): 8.0},
        "repro_shard_chunk_seconds": {("serial",): 2},
        "repro_shard_chunks_total": {("serial",): 2.0},
        "repro_shard_dispatch_total": {("primary",): 2.0},
        "repro_shard_members_total": {("serial",): 8.0},
        "repro_sinkhorn_exit_residual": {("batched",): 8},
        "repro_sinkhorn_iterations": {("batched",): 8},
        "repro_sinkhorn_runs_total": {("batched", "true"): 8.0},
        "repro_svd_seconds": {("batched",): 2},
    },
    "warm": {
        "repro_backend_warm_start_total": {("sinkhorn_batched", "converged"): 1.0},
        "repro_sinkhorn_exit_residual": {("batched",): 10},
        "repro_sinkhorn_iterations": {("batched",): 10},
        "repro_sinkhorn_runs_total": {("batched", "true"): 10.0},
    },
}


@pytest.mark.parametrize(
    "path", [_scalar, _ensemble, _warm, _store, _served],
    ids=["scalar", "ensemble", "warm", "store", "served"],
)
def test_series_are_pinned(path, tmp_path):
    with collecting_metrics(MetricsRegistry()) as registry:
        path(tmp_path)
    assert _series(registry) == PINNED[path.__name__.lstrip("_")]
