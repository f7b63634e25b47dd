"""Exact resubmissions: answered from a digest of the body bytes.

The result cache indexes each cached request's body digest to its
canonical key, so a byte-identical body skips decode, parse and key
hashing.  These tests hold the index to the cache's own behaviour: the
same bytes and source labels, one cache event per request, the same
canonical key for bodies that differ only in formatting.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.serve import CharacterizationServer, ServeConfig
from repro.serve import server as server_module
from repro.serve.cache import body_digest, canonical_options

from .conftest import cache_events


def _body(matrix, **options) -> bytes:
    return json.dumps({"matrix": np.asarray(matrix).tolist(), **options}).encode()


def _bodies(n: int, seed: int = 31) -> list[bytes]:
    rng = np.random.default_rng(seed)
    return [_body(m) for m in rng.uniform(0.5, 10.0, (n, 4, 4))]


class Counting:
    """Counts the calls of one ``repro.serve.server`` module attribute."""

    def __init__(self, monkeypatch, name: str) -> None:
        self.calls = 0
        wrapped = getattr(server_module, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return wrapped(*args, **kwargs)

        monkeypatch.setattr(server_module, name, counted)


def _serve(config, steps):
    """Run ``steps(server, post)`` on a fresh server; ``post`` sends one
    body and returns ``(status, answer)``."""

    async def run():
        server = CharacterizationServer(config)

        async def post(body, endpoint="characterize"):
            status, _ct, answer, _h = await server.exchange(
                "POST", f"/v1/{endpoint}", body
            )
            return status, answer

        try:
            return await steps(server, post)
        finally:
            await server.stop()

    return asyncio.run(run())


def _sources(registry, endpoint="characterize") -> dict:
    latency = registry.get("repro_serve_request_seconds")
    return {
        source: latency.snapshot(endpoint=endpoint, source=source)["count"]
        for source in ("cache-memory", "cache-disk", "cold", "batched")
    }


class TestExactResubmission:
    def test_answered_without_decode_or_parse(self, monkeypatch, metrics_registry):
        body = _bodies(1)[0]

        async def steps(server, post):
            first = await post(body)
            decodes = Counting(monkeypatch, "decode_json")
            parses = Counting(monkeypatch, "parse_request")
            keys = Counting(monkeypatch, "matrix_cache_key")
            again = [await post(body) for _ in range(3)]
            return first, again, (decodes.calls, parses.calls, keys.calls)

        first, again, calls = _serve(ServeConfig(), steps)
        assert first[0] == 200
        assert again == [first] * 3
        assert calls == (0, 0, 0)
        assert cache_events(metrics_registry, "miss") == 1
        assert cache_events(metrics_registry, "hit-memory") == 3
        assert _sources(metrics_registry)["cache-memory"] == 3

    def test_every_endpoint_is_indexed_apart(self, metrics_registry):
        body = _bodies(1)[0]

        async def steps(server, post):
            for endpoint in ("characterize", "standardize", "recommend-heuristic"):
                await post(body, endpoint)
            answers = {
                endpoint: (await post(body, endpoint))[1]
                for endpoint in ("characterize", "standardize", "recommend-heuristic")
            }
            return answers, server.cache.stats()["exact_entries"]

        answers, indexed = _serve(ServeConfig(), steps)
        assert indexed == 3
        assert len(set(answers.values())) == 3
        for endpoint, answer in answers.items():
            assert json.loads(answer)["endpoint"] == endpoint
        assert body_digest("characterize", body) != body_digest("standardize", body)

    @pytest.mark.parametrize(
        "variant",
        [
            b'{"matrix": [[1, 2], [3, 4.5]] }',  # one byte more
            b'{"matrix": [[1.0, 2], [3, 4.5]]}',  # 1 written as 1.0
            b'{"matrix":[[1,2],[3,4.5]]}',  # no spaces
        ],
    )
    def test_a_different_body_parses_and_hits_the_canonical_key(
        self, monkeypatch, metrics_registry, variant
    ):
        original = b'{"matrix": [[1, 2], [3, 4.5]]}'

        async def steps(server, post):
            first = await post(original)
            parses = Counting(monkeypatch, "parse_request")
            second = await post(variant)
            return first, second, parses.calls

        first, second, parses = _serve(ServeConfig(), steps)
        assert parses == 1
        assert second == first
        assert cache_events(metrics_registry, "miss") == 1
        assert cache_events(metrics_registry, "hit-memory") == 1

    def test_evicted_key_recomputes_with_one_miss(self, monkeypatch, metrics_registry):
        body = _bodies(1)[0]

        async def steps(server, post):
            first = await post(body)
            # Push the answer out of the one-entry LRU; its digest stays
            # in the index.
            server.cache.put("0" * 64, b'{"other": true}\n')
            assert server.cache.indexed(body_digest("characterize", body))
            misses = server.cache.misses
            decodes = Counting(monkeypatch, "decode_json")
            again = await post(body)
            return first, again, server.cache.misses - misses, decodes.calls

        first, again, misses, decodes = _serve(ServeConfig(cache_entries=1), steps)
        assert again == first
        assert misses == 1
        assert decodes == 1
        assert cache_events(metrics_registry, "miss") == 2
        assert _sources(metrics_registry)["cold"] == 2

    def test_spill_tier_hit_is_labelled_cache_disk(
        self, monkeypatch, metrics_registry, tmp_path
    ):
        body = _bodies(1)[0]

        async def steps(server, post):
            first = await post(body)
            server.cache.put("0" * 64, b'{"other": true}\n')  # spills it
            decodes = Counting(monkeypatch, "decode_json")
            again = await post(body)
            return first, again, decodes.calls

        config = ServeConfig(cache_entries=1, cache_dir=str(tmp_path))
        first, again, decodes = _serve(config, steps)
        assert again == first
        assert decodes == 0
        assert cache_events(metrics_registry, "hit-disk") == 1
        assert _sources(metrics_registry)["cache-disk"] == 1


class TestWhatIsIndexed:
    @pytest.mark.parametrize(
        "options", [{"deadline_ms": 60_000}, {"debug_timings": True}]
    )
    def test_deadline_and_debug_timings_bodies_always_parse(
        self, monkeypatch, metrics_registry, options
    ):
        body = _body(np.random.default_rng(5).uniform(0.5, 10.0, (4, 4)), **options)

        async def steps(server, post):
            parses = Counting(monkeypatch, "parse_request")
            answers = [await post(body) for _ in range(3)]
            return answers, parses.calls, server.cache.stats()["exact_entries"]

        answers, parses, indexed = _serve(ServeConfig(), steps)
        assert [status for status, _ in answers] == [200] * 3
        assert parses == 3
        assert indexed == 0
        assert cache_events(metrics_registry, "hit-memory") == 2

    def test_a_server_default_deadline_turns_the_index_off(
        self, monkeypatch, metrics_registry
    ):
        body = _bodies(1)[0]

        async def steps(server, post):
            parses = Counting(monkeypatch, "parse_request")
            for _ in range(2):
                await post(body)
            return parses.calls, server.cache.stats()["exact_entries"]

        parses, indexed = _serve(ServeConfig(default_deadline_ms=60_000), steps)
        assert (parses, indexed) == (2, 0)

    def test_a_fault_is_not_indexed(self, metrics_registry):
        body = _body([[1.0, float("nan")], [2.0, 3.0]])

        async def steps(server, post):
            answers = [await post(body) for _ in range(2)]
            return answers, server.cache.stats()["exact_entries"]

        answers, indexed = _serve(ServeConfig(), steps)
        assert [status for status, _ in answers] == [422, 422]
        assert indexed == 0

    def test_the_index_holds_at_most_max_entries(self, metrics_registry):
        bodies = _bodies(7)

        async def steps(server, post):
            sizes = []
            for body in bodies + bodies:
                await post(body)
                sizes.append(server.cache.stats()["exact_entries"])
            return sizes

        sizes = _serve(ServeConfig(cache_entries=3), steps)
        assert max(sizes) == 3
        assert sizes[:3] == [1, 2, 3]

    def test_draining_sheds_an_indexed_body(self, metrics_registry):
        body = _bodies(1)[0]

        async def steps(server, post):
            await post(body)
            server.drain_state.begin_drain()
            return await post(body)

        status, answer = _serve(ServeConfig(), steps)
        assert status == 503
        assert json.loads(answer)["error"]["category"] == "draining"


class TestCanonicalOptions:
    def test_exact_on_type(self):
        values = [1, 1.0, True, 0.0, -0.0, 1, True, 1.0, -0.0]
        for value in values:
            options = {"tol": value, "policy": "quarantine"}
            expected = json.dumps(
                options, sort_keys=True, separators=(",", ":"), allow_nan=True
            )
            assert canonical_options(options) == expected
        texts = {canonical_options({"tol": value}) for value in values}
        assert texts == {
            '{"tol":1}', '{"tol":1.0}', '{"tol":true}',
            '{"tol":0.0}', '{"tol":-0.0}',
        }

    def test_names_exact_on_type(self):
        assert canonical_options({"1": 0}) == '{"1":0}'
        assert canonical_options({1: 0}) == '{"1":0}'
        assert canonical_options({True: 0}) == '{"true":0}'
        assert canonical_options({1.0: 0}) == '{"1.0":0}'

    def test_non_scalars_are_serialized_each_time(self):
        assert canonical_options({"x": (1,)}) == '{"x":[1]}'
        assert canonical_options({"x": (1.0,)}) == '{"x":[1.0]}'
        assert canonical_options({"x": {"b": 1, "a": 2}}) == '{"x":{"a":2,"b":1}}'
        assert canonical_options(None) == canonical_options({}) == "{}"
