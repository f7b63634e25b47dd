"""The kernel lane: one batch runner in flight per event loop.

Every coalescer on a running loop shares one FIFO lane.  A flushed
batch waits for it, runs its runner in the executor and answers its
members before the next batch's runner starts.  The runners here sleep
for 50 ms, so each ordering assertion has tens of milliseconds of room.
"""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np
import pytest

from repro.robust.budget import Deadline
from repro.serve import (
    CharacterizationServer,
    Coalescer,
    DeadlineExceeded,
    ServeConfig,
    ServeRequest,
)

SLEEP_S = 0.05


def _request(matrix) -> ServeRequest:
    return ServeRequest(
        endpoint="characterize",
        matrix=np.ascontiguousarray(matrix, dtype=np.float64),
        options={"tol": 1e-8, "policy": "quarantine"},
    )


class SleepyRunner:
    """A runner that sleeps and logs its start and end, so a test can
    read the order of runners and answers from one shared log."""

    def __init__(self, name: str, log: list, inner=None, fail: bool = False):
        self.name = name
        self.log = log
        self.inner = inner
        self.fail = fail
        self.calls: list[int] = []  # batch sizes
        self.durations: list[float] = []

    def __call__(self, options, matrices):
        self.log.append(("start", self.name))
        t0 = time.perf_counter()
        try:
            time.sleep(SLEEP_S)
            self.calls.append(len(matrices))
            if self.fail:
                raise RuntimeError(f"{self.name} blew up")
            if self.inner is not None:
                return self.inner(options, matrices)
            return [{"sum": float(np.sum(m))} for m in matrices]
        finally:
            self.durations.append(time.perf_counter() - t0)
            self.log.append(("end", self.name))


def _max_in_flight(log: list) -> int:
    depth = peak = 0
    for event, _name in log:
        depth += 1 if event == "start" else -1
        peak = max(peak, depth)
    return peak


def _sleepy_server(log: list) -> CharacterizationServer:
    """A server whose two coalescers run their real runners after a
    50 ms sleep."""
    server = CharacterizationServer(ServeConfig(enable_metrics=False))
    for name, coalescer in server.coalescers.items():
        coalescer.runner = SleepyRunner(name, log, inner=coalescer.runner)
    return server


class TestLaneOrder:
    def test_first_batch_is_answered_before_the_second_runner_starts(self):
        log: list = []
        first = Coalescer(SleepyRunner("a", log), endpoint="a")
        second = Coalescer(SleepyRunner("b", log), endpoint="b")

        async def member(coalescer, name, value):
            result = await coalescer.submit(_request(np.full((2, 2), value)))
            log.append(("answer", name))
            return result

        async def main():
            # Both groups are made in one turn and flush in the next.
            return await asyncio.gather(
                *(member(first, "a", i + 1.0) for i in range(3)),
                *(member(second, "b", i + 1.0) for i in range(3)),
            )

        results = asyncio.run(main())
        assert [r.batch_size for r in results] == [3] * 6
        assert log == (
            [("start", "a"), ("end", "a")]
            + [("answer", "a")] * 3
            + [("start", "b"), ("end", "b")]
            + [("answer", "b")] * 3
        )

    def test_one_runner_in_flight_across_a_servers_coalescers(self):
        log: list = []
        server = _sleepy_server(log)
        rng = np.random.default_rng(7)
        sent = [
            (endpoint, rng.uniform(0.5, 10.0, shape))
            for endpoint in ("characterize", "standardize", "recommend-heuristic")
            for shape in ((4, 4), (5, 3))
            for _ in range(2)
        ]

        async def main():
            return await asyncio.gather(*(
                server.exchange(
                    "POST", f"/v1/{endpoint}",
                    json.dumps({"matrix": m.tolist()}).encode(),
                )
                for endpoint, m in sent
            ))

        answers = asyncio.run(main())
        assert [status for status, *_ in answers] == [200] * len(sent)
        # characterize and recommend-heuristic share the characterize
        # coalescer: four groups, four runners, one at a time.
        assert len([e for e in log if e[0] == "start"]) == 4
        assert _max_in_flight(log) == 1


class TestLaneFaults:
    def test_member_expiring_while_waiting_for_the_lane_is_shed(self):
        log: list = []
        first = Coalescer(SleepyRunner("a", log), endpoint="a")
        second_runner = SleepyRunner("b", log)
        second = Coalescer(second_runner, endpoint="b")

        async def main():
            return await asyncio.gather(
                first.submit(_request(np.ones((2, 2)))),
                # Alive at flush, expired 40 ms before the lane frees.
                second.submit(_request(np.ones((2, 2))), Deadline(0.01)),
                second.submit(_request(np.full((2, 2), 2.0))),
                return_exceptions=True,
            )

        kept, shed, survivor = asyncio.run(main())
        assert kept.payload == {"sum": 4.0}
        assert isinstance(shed, DeadlineExceeded)
        assert survivor.payload == {"sum": 8.0}
        assert second_runner.calls == [1]  # the kernel ran without it
        assert second.deadline_shed == 1

    def test_a_runner_that_raises_releases_the_lane(self):
        log: list = []
        first = Coalescer(SleepyRunner("a", log, fail=True), endpoint="a")
        second = Coalescer(SleepyRunner("b", log), endpoint="b")

        async def main():
            return await asyncio.wait_for(
                asyncio.gather(
                    first.submit(_request(np.ones((2, 2)))),
                    second.submit(_request(np.ones((2, 2)))),
                    return_exceptions=True,
                ),
                timeout=5.0,
            )

        failed, answered = asyncio.run(main())
        assert isinstance(failed, RuntimeError)
        assert answered.payload == {"sum": 4.0}
        assert log == [("start", "a"), ("end", "a"), ("start", "b"), ("end", "b")]


class TestLaneLifecycle:
    def test_one_server_answers_on_two_successive_loops(self):
        log: list = []
        server = _sleepy_server(log)
        rng = np.random.default_rng(8)

        async def burst():
            return await asyncio.wait_for(
                asyncio.gather(*(
                    server.exchange(
                        "POST", f"/v1/{endpoint}",
                        json.dumps(
                            {"matrix": rng.uniform(0.5, 10.0, (3, 3)).tolist()}
                        ).encode(),
                    )
                    for endpoint in ("characterize", "standardize") * 2
                )),
                timeout=10.0,
            )

        for _ in range(2):  # each run contends for its own loop's lane
            answers = asyncio.run(burst())
            assert [status for status, *_ in answers] == [200] * 4
        assert len([e for e in log if e[0] == "start"]) == 4
        assert _max_in_flight(log) == 1

    def test_drain_answers_both_pending_groups(self):
        log: list = []
        runners = [SleepyRunner("a", log), SleepyRunner("b", log)]
        coalescers = [
            Coalescer(runner, endpoint=runner.name, linger_s=10.0)
            for runner in runners
        ]

        async def main():
            for coalescer in coalescers:
                coalescer.read_started()  # hold the groups: only drain flushes
            members = [
                asyncio.ensure_future(coalescer.submit(_request(np.ones((2, 2)))))
                for coalescer in coalescers
                for _ in range(2)
            ]
            await asyncio.sleep(0.01)
            assert sum(c.pending for c in coalescers) == 4
            for coalescer in coalescers:
                await coalescer.drain()
            return await asyncio.wait_for(asyncio.gather(*members), timeout=5.0)

        results = asyncio.run(main())
        assert [r.payload for r in results] == [{"sum": 4.0}] * 4
        assert [runner.calls for runner in runners] == [[2], [2]]


class TestStageAttribution:
    def test_each_batch_reports_its_own_kernel_and_the_lane_wait(self):
        log: list = []
        server = _sleepy_server(log)
        rng = np.random.default_rng(9)
        sent = [
            (endpoint, rng.uniform(0.5, 10.0, (4, 4)))
            for endpoint in ("characterize", "standardize")
            for _ in range(3)
        ]

        async def main():
            return await asyncio.gather(*(
                server.exchange(
                    "POST", f"/v1/{endpoint}",
                    json.dumps(
                        {"matrix": m.tolist(), "debug_timings": True}
                    ).encode(),
                )
                for endpoint, m in sent
            ))

        answers = asyncio.run(main())
        timings = {
            endpoint: [] for endpoint in ("characterize", "standardize")
        }
        for (endpoint, _m), (status, _ct, body, _h) in zip(sent, answers):
            assert status == 200
            timings[endpoint].append(json.loads(body)["debug"]["timings"])
        first, second = [name for event, name in log if event == "start"]
        runners = {name: c.runner for name, c in server.coalescers.items()}
        (first_s,), (second_s,) = (
            runners[first].durations, runners[second].durations
        )
        for t in timings[first]:
            assert t["kernel_s"] < first_s + second_s
        for t in timings[second]:
            assert t["coalesce_linger_s"] >= first_s
            assert t["kernel_s"] < first_s + second_s


    def test_answer_wait_is_the_time_batch_mates_answered_first(
        self, monkeypatch
    ):
        # Each member's render sleeps 50 ms, so the members of one batch
        # resume at least one render apart.
        import repro.serve.server as server_module

        real = server_module.result_body

        def slow_render(endpoint, payload):
            time.sleep(SLEEP_S)
            return real(endpoint, payload)

        monkeypatch.setattr(server_module, "result_body", slow_render)
        server = CharacterizationServer(ServeConfig(enable_metrics=False))
        rng = np.random.default_rng(10)
        bodies = [
            json.dumps({"matrix": m.tolist(), "debug_timings": True}).encode()
            for m in rng.uniform(0.5, 10.0, (3, 4, 4))
        ]

        async def main():
            return await asyncio.gather(*(
                server.exchange("POST", "/v1/characterize", body)
                for body in bodies
            ))

        debug = [
            json.loads(body)["debug"] for _s, _ct, body, _h in asyncio.run(main())
        ]
        waits = sorted(d["timings"]["answer_wait_s"] for d in debug)
        assert waits[0] < SLEEP_S
        assert waits[1] >= SLEEP_S
        assert waits[2] >= 2 * SLEEP_S
        for d in debug:
            assert d["timings"]["render_s"] >= SLEEP_S
            assert sum(d["timings"].values()) == pytest.approx(d["total_s"])
