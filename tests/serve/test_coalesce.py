"""Coalescing semantics, and the headline serving guarantee (satellite 1):

N concurrent identical requests produce **exactly one** batched kernel
invocation — asserted from the ``repro_serve_kernel_invocations_total``
counter, not inferred — and every caller receives bit-identical
response bytes.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.serve import (
    CharacterizationServer,
    Coalescer,
    ServeConfig,
    ServeFault,
    ServeRequest,
)

from .conftest import batch_size_snapshot, cache_events, kernel_invocations


def _request(matrix, **options) -> ServeRequest:
    options.setdefault("tol", 1e-8)
    options.setdefault("policy", "quarantine")
    return ServeRequest(
        endpoint="characterize",
        matrix=np.ascontiguousarray(matrix, dtype=np.float64),
        options=options,
    )


class CountingRunner:
    """A batch runner that records every invocation it receives."""

    def __init__(self, fail_on=None):
        self.calls: list[list] = []
        self.fail_on = fail_on or set()

    def __call__(self, options, matrices):
        self.calls.append(matrices)
        out = []
        for matrix in matrices:
            total = float(np.sum(matrix))
            if total in self.fail_on:
                out.append(ServeFault("nan", f"injected for sum={total}"))
            else:
                out.append({"sum": total})
        return out


class TestCoalescer:
    def test_concurrent_same_shape_requests_share_one_batch(self):
        runner = CountingRunner()
        coalescer = Coalescer(runner, endpoint="characterize", linger_s=0.02)

        async def main():
            requests = [_request(np.full((3, 4), i + 1.0)) for i in range(6)]
            return await asyncio.gather(
                *(coalescer.submit(r) for r in requests)
            )

        results = asyncio.run(main())
        assert len(runner.calls) == 1
        assert len(runner.calls[0]) == 6
        assert [r.batch_size for r in results] == [6] * 6
        assert sorted(r.payload["sum"] for r in results) == [
            12.0 * i for i in range(1, 7)
        ]
        assert coalescer.batches_flushed == 1
        assert coalescer.requests_coalesced == 6

    def test_different_shapes_never_share_a_batch(self):
        runner = CountingRunner()
        coalescer = Coalescer(runner, endpoint="characterize", linger_s=0.02)

        async def main():
            return await asyncio.gather(
                coalescer.submit(_request(np.ones((2, 2)))),
                coalescer.submit(_request(np.ones((3, 3)))),
            )

        results = asyncio.run(main())
        assert len(runner.calls) == 2
        assert [r.batch_size for r in results] == [1, 1]

    def test_different_options_never_share_a_batch(self):
        runner = CountingRunner()
        coalescer = Coalescer(runner, endpoint="characterize", linger_s=0.02)

        async def main():
            return await asyncio.gather(
                coalescer.submit(_request(np.ones((2, 2)), policy="quarantine")),
                coalescer.submit(_request(np.ones((2, 2)), policy="repair")),
            )

        asyncio.run(main())
        assert len(runner.calls) == 2

    def test_max_batch_flushes_immediately(self):
        runner = CountingRunner()
        coalescer = Coalescer(
            runner, endpoint="characterize", linger_s=10.0, max_batch=3
        )

        async def main():
            # linger is effectively infinite: only the max-batch
            # trigger can flush, bounding latency.
            requests = [_request(np.full((2, 2), i + 1.0)) for i in range(3)]
            return await asyncio.wait_for(
                asyncio.gather(*(coalescer.submit(r) for r in requests)),
                timeout=5.0,
            )

        results = asyncio.run(main())
        assert len(runner.calls) == 1
        assert [r.batch_size for r in results] == [3, 3, 3]

    def test_lone_request_does_not_wait_out_the_linger(self):
        runner = CountingRunner()
        coalescer = Coalescer(runner, endpoint="characterize", linger_s=10.0)

        async def main():
            # The first loop turn that adds no member flushes the group;
            # linger_s is only the cap.
            return await asyncio.wait_for(
                coalescer.submit(_request(np.ones((2, 2)))), timeout=1.0
            )

        result = asyncio.run(main())
        assert result.batch_size == 1
        assert result.linger_s < 1.0

    def test_members_on_consecutive_turns_share_one_batch(self):
        runner = CountingRunner()
        coalescer = Coalescer(runner, endpoint="characterize", linger_s=10.0)

        async def main():
            tasks = []
            for i in range(4):
                tasks.append(asyncio.ensure_future(
                    coalescer.submit(_request(np.full((2, 2), i + 1.0)))
                ))
                await asyncio.sleep(0)  # the next member joins a turn later
            return await asyncio.wait_for(asyncio.gather(*tasks), timeout=5.0)

        results = asyncio.run(main())
        assert len(runner.calls) == 1
        assert [r.batch_size for r in results] == [4] * 4

    def test_trickle_is_flushed_by_the_linger_cap(self):
        runner = CountingRunner()
        coalescer = Coalescer(
            runner, endpoint="characterize", linger_s=0.05, max_batch=100_000
        )

        async def main():
            loop = asyncio.get_running_loop()
            start = loop.time()
            first = asyncio.ensure_future(
                coalescer.submit(_request(np.ones((2, 2))))
            )
            tasks = [first]
            while not first.done():  # one new member on every loop turn
                await asyncio.sleep(0)
                tasks.append(asyncio.ensure_future(
                    coalescer.submit(_request(np.ones((2, 2))))
                ))
            waited = loop.time() - start
            await asyncio.wait_for(asyncio.gather(*tasks), timeout=5.0)
            return waited

        waited = asyncio.run(main())
        assert waited >= 0.04  # never idle, so only the cap could flush
        assert len(runner.calls[0]) > 10
        assert len(runner.calls) >= 2

    def test_group_waits_while_a_request_is_being_read(self):
        runner = CountingRunner()
        coalescer = Coalescer(runner, endpoint="characterize", linger_s=10.0)

        async def main():
            coalescer.read_started()
            coalescer.read_started()
            first = asyncio.ensure_future(
                coalescer.submit(_request(np.ones((2, 2))))
            )
            for _ in range(20):  # quiet turns, but reads are in progress
                await asyncio.sleep(0)
            coalescer.read_finished()  # a request that joins no group
            for _ in range(20):
                await asyncio.sleep(0)
            assert not first.done() and coalescer.pending == 1
            # The last read ends and its request joins, in one loop turn.
            second = asyncio.ensure_future(
                coalescer.submit(_request(np.full((2, 2), 2.0)))
            )
            await asyncio.sleep(0)
            coalescer.read_finished()
            return await asyncio.wait_for(
                asyncio.gather(first, second), timeout=5.0
            )

        results = asyncio.run(main())
        assert len(runner.calls) == 1
        assert [r.batch_size for r in results] == [2, 2]

    def test_read_that_never_finishes_is_cut_off_by_the_cap(self):
        runner = CountingRunner()
        coalescer = Coalescer(runner, endpoint="characterize", linger_s=0.05)
        checks = []
        check = coalescer._flush_if_idle
        coalescer._flush_if_idle = lambda *args: (
            checks.append(args), check(*args)
        )

        async def main():
            coalescer.read_started()  # never finishes
            loop = asyncio.get_running_loop()
            start = loop.time()
            result = await asyncio.wait_for(
                coalescer.submit(_request(np.ones((2, 2)))), timeout=5.0
            )
            return result, loop.time() - start

        result, waited = asyncio.run(main())
        assert result.batch_size == 1
        assert waited >= 0.04
        # The held group waits for read_finished; it is not re-checked
        # on every loop turn until the cap.
        assert len(checks) <= 3

    def test_faulty_member_fails_only_its_caller(self):
        runner = CountingRunner(fail_on={4.0 * 9})  # the all-9s matrix
        coalescer = Coalescer(runner, endpoint="characterize", linger_s=0.02)

        async def main():
            good = coalescer.submit(_request(np.full((2, 2), 1.0)))
            bad = coalescer.submit(_request(np.full((2, 2), 9.0)))
            return await asyncio.gather(good, bad, return_exceptions=True)

        good, bad = asyncio.run(main())
        assert good.payload == {"sum": 4.0}
        assert isinstance(bad, ServeFault)
        assert bad.category == "nan"
        assert len(runner.calls) == 1  # quarantine cost zero extra kernels

    def test_runner_crash_fails_the_whole_batch(self):
        def exploding(options, matrices):
            raise RuntimeError("kernel exploded")

        coalescer = Coalescer(
            exploding, endpoint="characterize", linger_s=0.01
        )

        async def main():
            return await asyncio.gather(
                coalescer.submit(_request(np.ones((2, 2)))),
                coalescer.submit(_request(np.ones((2, 2)) * 2)),
                return_exceptions=True,
            )

        results = asyncio.run(main())
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Coalescer(lambda o, m: [], endpoint="x", linger_s=-1.0)
        with pytest.raises(ValueError):
            Coalescer(lambda o, m: [], endpoint="x", max_batch=0)


class TestSingleflightGuarantee:
    """The satellite-1 contract, on the full server pipeline."""

    N = 8

    def _spin(self, server, matrix):
        body = json.dumps({"matrix": matrix}).encode()

        async def main():
            return await asyncio.gather(
                *(
                    server.dispatch("POST", "/v1/characterize", body)
                    for _ in range(self.N)
                )
            )

        return asyncio.run(main())

    def test_identical_concurrent_requests_run_one_kernel(
        self, metrics_registry
    ):
        server = CharacterizationServer(
            ServeConfig(port=0, linger_s=0.05, enable_metrics=False)
        )
        matrix = (
            np.random.default_rng(11).uniform(0.5, 10.0, (5, 4)).tolist()
        )
        responses = self._spin(server, matrix)

        statuses = {status for status, _, _ in responses}
        assert statuses == {200}
        # Exactly one batched kernel invocation for all N callers,
        # straight from the metrics counter.
        assert kernel_invocations(metrics_registry, "characterize") == 1
        # ... and the responses are bit-identical.
        bodies = {body for _, _, body in responses}
        assert len(bodies) == 1
        # The N-1 followers joined the in-flight computation; nobody
        # hit the cache (it was empty when they all arrived).
        assert cache_events(metrics_registry, "hit-memory") == 0

    def test_distinct_concurrent_requests_coalesce_into_one_batch(
        self, metrics_registry
    ):
        server = CharacterizationServer(
            ServeConfig(port=0, linger_s=0.05, enable_metrics=False)
        )
        rng = np.random.default_rng(12)
        bodies = [
            json.dumps(
                {"matrix": rng.uniform(0.5, 10.0, (5, 4)).tolist()}
            ).encode()
            for _ in range(self.N)
        ]

        async def main():
            return await asyncio.gather(
                *(
                    server.dispatch("POST", "/v1/characterize", body)
                    for body in bodies
                )
            )

        responses = asyncio.run(main())
        assert {status for status, _, _ in responses} == {200}
        assert kernel_invocations(metrics_registry, "characterize") == 1
        snapshot = batch_size_snapshot(metrics_registry, "characterize")
        assert snapshot["count"] == 1
        assert snapshot["sum"] == self.N  # one batch of N distinct matrices
        # Distinct matrices produce distinct measure payloads.
        assert len({body for _, _, body in responses}) == self.N

    def test_repeat_of_identical_burst_is_answered_from_cache(
        self, metrics_registry
    ):
        server = CharacterizationServer(
            ServeConfig(port=0, linger_s=0.05, enable_metrics=False)
        )
        matrix = (
            np.random.default_rng(13).uniform(0.5, 10.0, (4, 4)).tolist()
        )
        first = self._spin(server, matrix)
        invocations_after_first = kernel_invocations(
            metrics_registry, "characterize"
        )
        second = self._spin(server, matrix)
        # Zero additional kernel invocations: the whole second burst was
        # answered from the content-addressed cache.
        assert (
            kernel_invocations(metrics_registry, "characterize")
            == invocations_after_first
            == 1
        )
        assert cache_events(metrics_registry, "hit-memory") == self.N
        assert {b for _, _, b in first} == {b for _, _, b in second}
