"""Unweighted paths hold one input-sized working copy at their peak.

``tracemalloc`` sees every numpy heap allocation, so the traced peak of
one call, divided by the bytes of its input, counts the input-sized
copies the call holds at once: the Sinkhorn working copy of the
Theorem-2 scaling, and nothing beside it.  With no weighting factors
the eq. 4/6 product is the matrix itself, a robust standardize that
screens out no slice returns its working copy, and a served request
that waits for a kernel holds its parsed matrix, not its JSON.
"""

from __future__ import annotations

import asyncio
import gc
import json
import tracemalloc

import numpy as np

from repro import characterize
from repro.batch import standardize_batched
from repro.measures import mph
from repro.serve import CharacterizationServer


def _peak_bytes(call) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _matrix(shape, seed=0):
    return np.random.default_rng(seed).uniform(0.1, 10.0, shape)


def test_characterize_holds_one_working_copy():
    ecs = _matrix((512, 256))
    assert _peak_bytes(lambda: characterize(ecs)) <= 1.2 * ecs.nbytes


def test_mph_holds_no_copy():
    ecs = _matrix((512, 256))
    assert _peak_bytes(lambda: mph(ecs)) <= 0.2 * ecs.nbytes


def test_robust_standardize_returns_its_working_copy():
    stack = _matrix((64, 64, 64))
    peak = _peak_bytes(lambda: standardize_batched(stack, policy="quarantine"))
    assert peak <= 1.25 * stack.nbytes


def test_waiting_requests_hold_no_json():
    n_requests, shape = 64, (64, 64)
    server = CharacterizationServer()
    documents = [
        json.dumps({"matrix": _matrix(shape, seed).tolist()})
        for seed in range(n_requests + 1)
    ]

    async def send():
        # The body is built here and handed over: no frame but the
        # exchange's holds it.
        status, _, _, _ = await server.exchange(
            "POST", "/v1/standardize", documents.pop().encode()
        )
        return status

    async def burst():
        assert await send() == 200  # imports and executor start-up
        gc.collect()
        tracemalloc.start()
        try:
            statuses = await asyncio.gather(
                *(send() for _ in range(n_requests))
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert statuses == [200] * n_requests
        return peak

    peak = asyncio.run(burst())
    matrix_bytes = 8 * shape[0] * shape[1]
    assert peak <= 5.5 * matrix_bytes * n_requests
