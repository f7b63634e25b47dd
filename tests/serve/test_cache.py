"""ResultCache LRU semantics, disk spill and cache-event metrics."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.serve import ResultCache, matrix_cache_key

from .conftest import cache_events


class TestLru:
    def test_roundtrip(self):
        cache = ResultCache(max_entries=4)
        cache.put("k", b"body")
        assert cache.get("k") == b"body"
        assert len(cache) == 1

    def test_miss_returns_none(self):
        cache = ResultCache(max_entries=4)
        assert cache.get("absent") is None
        assert cache.misses == 1

    def test_eviction_drops_least_recently_used(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", b"1")
        cache.put("b", b"2")
        assert cache.get("a") == b"1"  # refresh a's recency
        cache.put("c", b"3")  # evicts b, the LRU tail
        assert cache.get("b") is None
        assert cache.get("a") == b"1"
        assert cache.get("c") == b"3"
        assert cache.evictions == 1

    def test_put_refreshes_existing_key(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", b"1")
        cache.put("b", b"2")
        cache.put("a", b"1*")  # refresh, not insert: nothing evicted
        assert cache.evictions == 0
        assert cache.get("a") == b"1*"

    def test_rejects_non_bytes(self):
        cache = ResultCache(max_entries=2)
        with pytest.raises(TypeError):
            cache.put("a", {"not": "bytes"})

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)

    def test_thread_safety_smoke(self):
        cache = ResultCache(max_entries=16)

        def worker(tag: int) -> None:
            for i in range(200):
                key = f"k{(tag * 7 + i) % 32}"
                cache.put(key, str(i).encode())
                cache.get(key)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) <= 16


class TestDiskSpill:
    def test_evicted_entry_survives_on_disk(self, tmp_path):
        # Values must parse as JSON: promotes run the plausibility
        # screen that keeps corrupt spills from being served.
        cache = ResultCache(max_entries=1, spill_dir=tmp_path)
        cache.put("aa", b'"first"')
        cache.put("bb", b'"second"')  # evicts aa -> disk
        assert (tmp_path / "aa.json").read_bytes() == b'"first"'
        assert cache.get("aa") == b'"first"'  # disk hit
        assert cache.hits_disk == 1
        # The disk hit promoted aa back into memory (evicting bb).
        assert cache.get("aa") == b'"first"'
        assert cache.hits_memory == 1

    def test_spill_dir_is_created(self, tmp_path):
        target = tmp_path / "nested" / "spill"
        ResultCache(max_entries=1, spill_dir=target)
        assert target.is_dir()

    def test_stats_shape(self, tmp_path):
        cache = ResultCache(max_entries=2, spill_dir=tmp_path)
        cache.put("a", b"1")
        cache.get("a")
        cache.get("zz")
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["max_entries"] == 2
        assert stats["hits_memory"] == 1
        assert stats["misses"] == 1
        assert stats["spill_dir"] == str(tmp_path)
        assert stats["spill_errors"] == 0
        assert stats["spill_degraded"] is False


class TestSpillDegradation:
    """Disk I/O failures degrade to memory-only; they never fail a get.

    Permission tricks don't work under root, so the unusable-directory
    cases use a regular *file* on the spill path — mkdir/write then
    fail with NotADirectoryError, a plain OSError subclass.
    """

    def test_uncreatable_dir_degrades_at_construction(self, tmp_path):
        blocker = tmp_path / "blocker.txt"
        blocker.write_text("not a directory")
        with pytest.warns(RuntimeWarning, match="memory-only"):
            cache = ResultCache(
                max_entries=1, spill_dir=blocker / "spill"
            )
        assert cache.spill_degraded
        assert cache.spill_dir is None
        # Still a perfectly good memory cache.
        cache.put("a", b"1")
        cache.put("b", b"2")  # evicts a; no spill attempted
        assert cache.get("b") == b"2"
        assert cache.get("a") is None
        assert cache.stats()["spill_errors"] == 1

    def test_write_failure_degrades_once(self, tmp_path):
        cache = ResultCache(max_entries=1, spill_dir=tmp_path / "ok")
        blocker = tmp_path / "blocker.txt"
        blocker.write_text("not a directory")
        cache.spill_dir = blocker / "spill"  # dir vanishes from under us
        with pytest.warns(RuntimeWarning, match="spill disabled"):
            cache.put("a", b"1")
            cache.put("b", b"2")  # eviction tries to spill a -> OSError
        assert cache.spill_degraded
        assert cache.spill_dir is None
        # Further evictions stay silent (no second warning, no error).
        cache.put("c", b"3")
        assert cache.get("c") == b"3"
        assert cache.stats()["spill_errors"] == 1

    def test_corrupt_spill_is_dropped_not_served(
        self, metrics_registry, tmp_path
    ):
        cache = ResultCache(max_entries=1, spill_dir=tmp_path)
        cache.put("aa", b'"good"')
        cache.put("bb", b'"other"')  # evicts aa -> disk
        (tmp_path / "aa.json").write_bytes(b'{"trunc')  # simulate damage
        assert cache.get("aa") is None  # miss, not corrupt bytes
        assert not (tmp_path / "aa.json").exists()  # dropped
        assert not cache.spill_degraded  # the directory still works
        assert cache.stats()["spill_errors"] == 1
        assert cache_events(metrics_registry, "spill_error") == 1
        # A later eviction spills fine.
        cache.put("cc", b'"more"')
        assert cache.get("bb") == b'"other"'


class TestCacheMetrics:
    def test_events_reach_the_registry(self, metrics_registry, tmp_path):
        cache = ResultCache(max_entries=1, spill_dir=tmp_path)
        cache.get("absent")  # miss
        cache.put("aa", b"1")  # store
        cache.put("bb", b"2")  # store + spill of aa
        cache.get("bb")  # hit-memory
        cache.get("aa")  # hit-disk (promotes, spilling bb)
        assert cache_events(metrics_registry, "miss") == 1
        assert cache_events(metrics_registry, "store") >= 2
        assert cache_events(metrics_registry, "spill") >= 1
        assert cache_events(metrics_registry, "hit-memory") == 1
        assert cache_events(metrics_registry, "hit-disk") == 1

    def test_disabled_metrics_cost_nothing(self):
        # Outside collecting_metrics the gate short-circuits: the cache
        # still works and the default registry stays untouched.
        cache = ResultCache(max_entries=2)
        cache.put("a", b"1")
        assert cache.get("a") == b"1"


class TestKeyBasics:
    def test_known_digest(self):
        # The reference digest other tests (and the cross-process
        # stability check) anchor on.
        matrix = np.arange(1.0, 7.0).reshape(2, 3)
        key = matrix_cache_key(
            matrix, endpoint="characterize", options={"tol": 1e-08}
        )
        assert key == (
            "d41b643dbb48b1eef266e798071cd0958f5d2c39f68040597b1fc76616ff5c63"
        )

    def test_endpoint_and_options_partition_the_keyspace(self):
        matrix = np.ones((2, 2))
        plain = matrix_cache_key(matrix)
        assert matrix_cache_key(matrix, endpoint="standardize") != plain
        assert matrix_cache_key(matrix, options={"tol": 1e-6}) != plain

    def test_distinct_backends_distinct_keys(self):
        # parse_request folds the normalized "backend" option, which
        # may only be "numpy", into the request's cache identity, so
        # cache keys keep their bytes; a different value keys apart.
        from repro.serve.protocol import parse_request

        payload = {"matrix": [[1.0, 2.0], [3.0, 4.0]]}
        keys = set()
        for backend in ("numpy", None):
            body = dict(payload)
            if backend is not None:
                body["backend"] = backend
            request = parse_request("characterize", body)
            keys.add(
                matrix_cache_key(
                    request.matrix,
                    endpoint="characterize",
                    options=request.options,
                )
            )
        # Omitted backend normalizes to "numpy": same identity.
        assert len(keys) == 1
        other = matrix_cache_key(
            np.asarray(payload["matrix"]),
            endpoint="characterize",
            options={
                "tol": 1e-08,
                "policy": "quarantine",
                "tma_fallback": "limit",
                "backend": "custom",
            },
        )
        assert other not in keys

    def test_transpose_changes_the_key(self):
        matrix = np.arange(6.0).reshape(2, 3) + 1.0
        assert matrix_cache_key(matrix) != matrix_cache_key(matrix.T)

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            matrix_cache_key(np.ones(4))
