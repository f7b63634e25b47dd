"""Unweighted paths hold one input-sized working copy at their peak,
and the Sinkhorn core a fixed line workspace beside it.

``tracemalloc`` sees every numpy heap allocation, so the traced peak of
one call, divided by the bytes of its input, counts the input-sized
copies the call holds at once: the Sinkhorn working copy of the
Theorem-2 scaling, and nothing beside it.  With no weighting factors
the eq. 4/6 product is the matrix itself, a robust standardize that
screens out no slice returns its working copy, and a served request
that waits for a kernel holds its parsed matrix, not its JSON.

Beside the working copy and its scales, the core holds line-sized
arrays: one ``(N, T)`` row buffer, the ``(N, M)`` column sums and, for
one expression per iteration, the column deviations.  Counted in line
sets (``N * (T + M)`` float64), what a stack of small members holds
beyond its working copy and scales stays a small constant, plus
numpy's per-call broadcast buffer.
"""

from __future__ import annotations

import asyncio
import gc
import json
import tracemalloc

import numpy as np

from repro import characterize
from repro.batch import sinkhorn_knopp_batched, standardize_batched
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


def test_sinkhorn_core_holds_a_fixed_line_workspace():
    n, t, m = 2048, 16, 8
    # Identical slices converge together: one phase, no compact copy.
    stack = np.broadcast_to(_matrix((t, m)), (n, t, m)).copy()
    sinkhorn_knopp_batched(stack)  # first-call allocations, e.g. coverage's
    peak = _peak_bytes(lambda: sinkhorn_knopp_batched(stack))
    line_set = n * (t + m) * 8
    scales = line_set
    # numpy >= 2.3 allocates a buffer of up to 8192 float64 on every
    # broadcasting ufunc call.
    assert peak - (stack.nbytes + scales) <= 2.5 * line_set + 64 * 1024


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
