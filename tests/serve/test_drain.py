"""Graceful drain: in-flight completes, new work sheds, process exits 0."""

from __future__ import annotations

import asyncio
import json
import re
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.serve import CharacterizationServer, ServeConfig
from repro.serve.loadgen import http_exchange

_BODY = json.dumps({"matrix": [[1.0, 2.0], [3.0, 4.0]]}).encode("utf-8")


class TestInProcessDrain:
    def test_inflight_completes_and_new_work_sheds(self, metrics_registry):
        # The kernel is held on an event that is only released once the
        # drain has begun, so the request is really in flight while the
        # server shuts down (a coalescer flushes as soon as its burst
        # ends, so a linger cannot hold it).
        release = threading.Event()

        async def _run():
            server = CharacterizationServer(ServeConfig(port=0, adaptive=False))
            coalescer = server.coalescers["characterize"]
            runner = coalescer.runner

            def gated(options, matrices):
                release.wait(10.0)
                return runner(options, matrices)

            coalescer.runner = gated
            await server.start()
            host, port = server.address
            inflight = asyncio.ensure_future(
                http_exchange(host, port, "POST", "/v1/characterize", _BODY)
            )
            active = 0
            for _ in range(500):
                await asyncio.sleep(0.01)
                health = await server.exchange("GET", "/healthz", b"")
                active = json.loads(health[2])["result"]["active_exchanges"]
                if active >= 1:
                    break
            drain = asyncio.ensure_future(server.shutdown(drain_timeout_s=5.0))
            while not server.drain_state.draining:
                await asyncio.sleep(0)
            answered_early = inflight.done()
            release.set()
            clean = await drain
            first = await inflight
            late = await server.exchange("POST", "/v1/characterize", _BODY)
            health = await server.exchange("GET", "/healthz", b"")
            ready = await server.exchange("GET", "/healthz/ready", b"")
            live = await server.exchange("GET", "/healthz/live", b"")
            return active, answered_early, clean, first, late, health, ready, live

        try:
            (active, answered_early, clean, first, late,
             health, ready, live) = asyncio.run(_run())
        finally:
            release.set()
        assert active >= 1
        assert not answered_early
        assert clean is True
        # The request caught mid-kernel still got its real answer.
        assert first[0] == 200
        assert b'"result"' in first[2]
        # New work is shed with the draining category + Retry-After.
        assert late[0] == 503
        assert json.loads(late[2])["error"]["category"] == "draining"
        assert "Retry-After" in late[3]
        # Probe split: combined report says draining, readiness fails,
        # liveness holds.
        assert health[0] == 200
        assert json.loads(health[2])["result"]["status"] == "draining"
        assert ready[0] == 503
        assert live[0] == 200

    def test_drain_lifecycle_metrics(self, metrics_registry):
        async def _run():
            server = CharacterizationServer(ServeConfig(linger_s=0.001))
            await server.exchange("POST", "/v1/characterize", _BODY)
            await server.shutdown(drain_timeout_s=1.0)

        asyncio.run(_run())
        drain = metrics_registry.counter(
            "repro_serve_drain_total", labelnames=("event",)
        )
        assert drain.value(event="started") == 1
        assert drain.value(event="flushed") == 1
        assert drain.value(event="completed") == 1
        assert drain.value(event="timeout") == 0

    def test_shutdown_is_idempotent(self, metrics_registry):
        async def _run():
            server = CharacterizationServer(ServeConfig(linger_s=0.001))
            assert await server.shutdown(drain_timeout_s=1.0) is True
            assert await server.shutdown(drain_timeout_s=1.0) is True

        asyncio.run(_run())
        drain = metrics_registry.counter(
            "repro_serve_drain_total", labelnames=("event",)
        )
        assert drain.value(event="started") == 1  # begin_drain once


@pytest.mark.slow
class TestSubprocessSignals:
    """The real contract: a signalled `repro-hc serve` exits 0 cleanly."""

    #: Nearly decomposable, so Sinkhorn needs ~75k iterations to reach
    #: tolerance: the kernel of one request runs long enough to still be
    #: computing when the signal lands.
    SLOW = [[1.0, 1e-9], [1.0, 1.0]]

    @staticmethod
    def _kernel_s(matrix) -> float:
        from repro.batch import standardize_batched

        t0 = time.perf_counter()
        standardize_batched(np.array([matrix]), policy="quarantine")
        return time.perf_counter() - t0

    @staticmethod
    def _spawn() -> tuple[subprocess.Popen, str, int]:
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--drain-timeout", "10",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        assert process.stdout is not None
        banner = process.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)/", banner)
        assert match, f"no address in banner {banner!r}"
        return process, match.group(1), int(match.group(2))

    @staticmethod
    def _post_in_thread(
        host: str, port: int, body: bytes, out: dict
    ) -> threading.Thread:
        def _work() -> None:
            try:
                out["response"] = asyncio.run(
                    http_exchange(
                        host, port, "POST", "/v1/standardize", body,
                        timeout_s=30.0,
                    )
                )
            except Exception as exc:  # pragma: no cover - failure detail
                out["error"] = exc

        thread = threading.Thread(target=_work, daemon=True)
        thread.start()
        return thread

    @staticmethod
    def _active_exchanges(host: str, port: int) -> int:
        _, _, body = asyncio.run(
            http_exchange(host, port, "GET", "/healthz", b"", timeout_s=5.0)
        )
        return json.loads(body)["result"]["active_exchanges"]

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
    def test_signal_drains_and_exits_zero(self, signum):
        kernel_s = self._kernel_s(self.SLOW)
        assert kernel_s > 0.2, f"kernel too quick to hold ({kernel_s:.3f}s)"
        process, host, port = self._spawn()
        try:
            out: dict = {}
            body = json.dumps({"matrix": self.SLOW}).encode("utf-8")
            posted = time.perf_counter()
            thread = self._post_in_thread(host, port, body, out)
            # The probe counts itself, so 2 means the POST is in flight.
            while self._active_exchanges(host, port) < 2:
                assert time.perf_counter() - posted < 10.0
                time.sleep(0.01)
            signal_delay = time.perf_counter() - posted
            process.send_signal(signum)
            assert signal_delay < kernel_s, (
                f"signal after {signal_delay:.3f}s; kernel takes {kernel_s:.3f}s"
            )
            stdout, _ = process.communicate(timeout=30)
            thread.join(timeout=30)
            assert "error" not in out, out.get("error")
            status, _, answer = out["response"]
            assert status == 200
            assert json.loads(answer)["result"]["converged"] is True
            assert process.returncode == 0
            assert "draining" in stdout
            assert "drain complete" in stdout
            # The socket is really gone.
            with pytest.raises(OSError):
                asyncio.run(
                    http_exchange(
                        host, port, "GET", "/healthz", b"", timeout_s=5.0
                    )
                )
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup
                process.kill()
                process.communicate(timeout=10)
