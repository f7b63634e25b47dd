"""Content-addressed result cache for the characterization service.

What-if and sensitivity studies resubmit *the same* ETC matrix over and
over (perturbed neighbours of a base environment, repeated scrapes of a
dashboard), so the service memoizes finished responses behind a
content-addressed key: the canonical bytes of the matrix plus the
canonical JSON of the request options, hashed with SHA-256.

Canonicalization (:func:`canonical_matrix_bytes`) makes the key a
function of the matrix *values*, not of the accidental representation:

* any dtype is cast to ``float64`` first, so ``float32`` and ``int``
  inputs that denote the same numbers share a key;
* Fortran-ordered / strided views are copied to C order, so the memory
  layout never leaks into the digest;
* the shape is folded in explicitly, so a ``(2, 3)`` and a ``(3, 2)``
  matrix with the same flat bytes stay distinct.

The digest is SHA-256 over those bytes — **never** Python ``hash()``,
whose per-process randomization (PYTHONHASHSEED) would make keys
useless across processes or restarts.  Any single-element perturbation
changes the float64 bit pattern and therefore the key.

:class:`ResultCache` is a thread-safe LRU over the finished response
*bytes* (so cache hits are bit-identical to the response the first
caller received), with an optional disk spill directory: entries
evicted from memory are written to ``<spill_dir>/<key>.json`` and
promoted back on the next miss.
"""

from __future__ import annotations

import hashlib
import json
import threading
import warnings
from collections import OrderedDict
from pathlib import Path

import numpy as np

from ..obs import metrics as _metrics

__all__ = [
    "CACHE_KEY_VERSION",
    "canonical_matrix_bytes",
    "canonical_options",
    "matrix_cache_key",
    "ResultCache",
]

#: Folded into every digest so a future change to the canonical form
#: (dtype, layout, option encoding) invalidates old disk spills instead
#: of silently colliding with them.  Version 2: the ``backend`` request
#: option joined the normalized option set, so every key changed.
CACHE_KEY_VERSION = "repro-serve-key/2"


def canonical_matrix_bytes(matrix) -> bytes:
    """The value-canonical byte string of a 2-D matrix.

    Examples
    --------
    >>> import numpy as np
    >>> a = np.array([[1, 2], [3, 4]], dtype=np.float32)
    >>> b = np.asfortranarray(a.astype(np.float64))
    >>> canonical_matrix_bytes(a) == canonical_matrix_bytes(b)
    True
    """
    arr = np.ascontiguousarray(np.asarray(matrix, dtype=np.float64))
    if arr.ndim != 2:
        raise ValueError(
            f"cache keys are defined for 2-D matrices, got ndim={arr.ndim}"
        )
    header = f"{arr.shape[0]}x{arr.shape[1]};".encode("ascii")
    return header + arr.tobytes(order="C")


def canonical_options(options: dict | None) -> str:
    """Canonical JSON of the request options (sorted keys, compact).

    Insertion order never matters:

    >>> canonical_options({"tol": 1e-8, "zeros": "limit"}) == \\
    ...     canonical_options({"zeros": "limit", "tol": 1e-8})
    True
    """
    return json.dumps(
        options or {}, sort_keys=True, separators=(",", ":"), allow_nan=True
    )


def matrix_cache_key(matrix, *, endpoint: str = "", options=None) -> str:
    """SHA-256 hex key of (endpoint, canonical matrix, canonical options).

    Stable across processes and Python versions (no ``hash()``
    anywhere), invariant under dtype/memory-order changes, and distinct
    under any value perturbation.
    """
    digest = hashlib.sha256()
    digest.update(CACHE_KEY_VERSION.encode("ascii"))
    digest.update(b"\x00")
    digest.update(endpoint.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(canonical_options(options).encode("utf-8"))
    digest.update(b"\x00")
    digest.update(canonical_matrix_bytes(matrix))
    return digest.hexdigest()


def _plausible_response(value: bytes) -> bool:
    """True when spilled bytes still parse as one JSON document.

    Every value the service caches is a complete JSON response body, so
    a spill file that no longer parses (truncated write, disk damage)
    is provably corrupt and must not be promoted.
    """
    try:
        json.loads(value.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return False
    return True


class ResultCache:
    """Thread-safe LRU of response bytes with optional disk spill.

    Parameters
    ----------
    max_entries : int
        In-memory LRU capacity (>= 1).
    spill_dir : path-like, optional
        When given, entries evicted from memory are persisted as
        ``<spill_dir>/<key>.json`` and read back (and re-promoted into
        memory) on the next lookup, so a bounce of the process keeps
        the long tail warm.

    Disk I/O never reaches a request.  An unwritable or uncreatable
    spill directory degrades the cache to memory-only with a one-time
    :class:`RuntimeWarning` and a
    ``repro_serve_cache_events_total{event="spill_error"}`` count; a
    corrupt or truncated spill file found on promote is deleted and
    treated as a miss (its result is simply recomputed) instead of
    being served to the client.

    Examples
    --------
    >>> cache = ResultCache(max_entries=2)
    >>> cache.put("k1", b"one"); cache.put("k2", b"two")
    >>> cache.get("k1")
    b'one'
    >>> cache.put("k3", b"three")  # evicts k2 (k1 was just touched)
    >>> cache.get("k2") is None
    True
    """

    def __init__(self, max_entries: int = 1024, spill_dir=None) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._entries: OrderedDict[str, bytes] = OrderedDict()
        self._lock = threading.Lock()
        self.hits_memory = 0
        self.hits_disk = 0
        self.misses = 0
        self.evictions = 0
        self.spill_errors = 0
        self.spill_degraded = False
        if self.spill_dir is not None:
            try:
                self.spill_dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                self._degrade_spill(f"cannot create {self.spill_dir}: {exc}")

    def _degrade_spill(self, why: str) -> None:
        """Fall back to memory-only LRU; warn once, count the event."""
        self.spill_errors += 1
        _metrics.record(("repro_serve_cache_events_total", ("spill_error",), 1.0))
        if not self.spill_degraded:
            self.spill_degraded = True
            self.spill_dir = None
            warnings.warn(
                "result-cache disk spill disabled (degrading to "
                f"memory-only LRU): {why}",
                RuntimeWarning,
                stacklevel=3,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _spill_path(self, key: str) -> Path:
        # Keys are hex digests, so the filename needs no escaping.
        return self.spill_dir / f"{key}.json"

    def get(self, key: str) -> bytes | None:
        """The cached bytes for ``key``, or None.

        Memory hits refresh LRU recency; disk hits are promoted back
        into memory (possibly evicting the current LRU tail).
        """
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.hits_memory += 1
                _metrics.record(
                    ("repro_serve_cache_events_total", ("hit-memory",), 1.0)
                )
                return value
        if self.spill_dir is not None:
            path = self._spill_path(key)
            try:
                value = path.read_bytes()
            except FileNotFoundError:
                value = None  # plain miss: this key never spilled
            except OSError as exc:
                value = None
                self._degrade_spill(f"cannot read {path}: {exc}")
            if value is not None and not _plausible_response(value):
                # Corrupt / truncated spill (partial write, disk
                # damage): never serve it — drop the file and
                # recompute.  The spill path itself stays enabled.
                self.spill_errors += 1
                _metrics.record(
                    ("repro_serve_cache_events_total", ("spill_error",), 1.0)
                )
                try:
                    path.unlink()
                except OSError:
                    pass
                value = None
            if value is not None:
                with self._lock:
                    self.hits_disk += 1
                self._store(key, value)
                _metrics.record(("repro_serve_cache_events_total", ("hit-disk",), 1.0))
                return value
        with self._lock:
            self.misses += 1
        _metrics.record(("repro_serve_cache_events_total", ("miss",), 1.0))
        return None

    def put(self, key: str, value: bytes) -> None:
        """Insert (or refresh) ``key``, evicting the LRU tail if full."""
        if not isinstance(value, bytes):
            raise TypeError(
                f"ResultCache stores response bytes, got {type(value)}"
            )
        self._store(key, value)

    def _store(self, key: str, value: bytes) -> None:
        spilled: tuple[str, bytes] | None = None
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            if len(self._entries) > self.max_entries:
                old_key, old_value = self._entries.popitem(last=False)
                self.evictions += 1
                if self.spill_dir is not None:
                    spilled = (old_key, old_value)
        _metrics.record(("repro_serve_cache_events_total", ("store",), 1.0))
        spill_dir = self.spill_dir
        if spilled is not None and spill_dir is not None:
            _metrics.record(("repro_serve_cache_events_total", ("spill",), 1.0))
            path = spill_dir / f"{spilled[0]}.json"
            try:
                path.write_bytes(spilled[1])
            except OSError as exc:
                # Spill is best-effort (the result can be recomputed),
                # but a write failure means the directory is unusable:
                # degrade to memory-only instead of failing every
                # future eviction the same way.
                self._degrade_spill(f"cannot write {path}: {exc}")

    def stats(self) -> dict:
        """JSON-safe counter snapshot (hits, misses, evictions, size)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits_memory": self.hits_memory,
                "hits_disk": self.hits_disk,
                "misses": self.misses,
                "evictions": self.evictions,
                "spill_dir": str(self.spill_dir) if self.spill_dir else None,
                "spill_errors": self.spill_errors,
                "spill_degraded": self.spill_degraded,
            }
