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

An exact resubmission need not be decoded to find its key: the cache
also indexes :func:`body_digest` (BLAKE2b-128 of the endpoint and the
request body bytes) to the canonical key, so a byte-identical body is
answered by :meth:`ResultCache.get_exact` with no decode, parse or key
hashing.  The canonical key stays the cache's identity; the index only
finds it sooner.
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
    "body_digest",
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


#: Option sets already serialized by :func:`canonical_options`, keyed
#: exactly on type (see :func:`_options_identity`), so a hit returns the
#: very string ``json.dumps`` would and sharing it across the process
#: changes no result.  Cleared when full.
_OPTIONS_MEMO: dict[tuple, str] = {}
_OPTIONS_MEMO_MAX = 256
_SCALARS = frozenset((str, int, bool, type(None)))


def _options_identity(options: dict) -> tuple | None:
    """A memo key equal only for option dicts ``json.dumps`` writes alike.

    ``1``, ``1.0`` and ``True`` compare equal but serialize differently,
    so every value carries its type, and a float its ``hex()`` (which
    also tells ``-0.0`` from ``0.0``).  None (no memo) for a non-string
    name or a value that is not a JSON scalar.
    """
    identity = []
    for name, value in options.items():
        kind = type(value)
        if type(name) is not str:
            return None
        if kind is float:
            value = value.hex()
        elif kind not in _SCALARS:
            return None
        identity.append((name, kind, value))
    return tuple(identity)


def canonical_options(options: dict | None) -> str:
    """Canonical JSON of the request options (sorted keys, compact).

    Serialized once per distinct option set and memoized after.
    Insertion order never matters:

    >>> canonical_options({"tol": 1e-8, "zeros": "limit"}) == \\
    ...     canonical_options({"zeros": "limit", "tol": 1e-8})
    True
    """
    identity = _options_identity(options) if options else None
    text = _OPTIONS_MEMO.get(identity)
    if text is None:
        text = json.dumps(
            options or {}, sort_keys=True, separators=(",", ":"), allow_nan=True
        )
        if identity is not None:
            if len(_OPTIONS_MEMO) >= _OPTIONS_MEMO_MAX:
                _OPTIONS_MEMO.clear()
            _OPTIONS_MEMO[identity] = text
    return text


def matrix_cache_key(matrix, *, endpoint: str = "", options=None) -> str:
    """SHA-256 hex key of (endpoint, canonical matrix, canonical options).

    Stable across processes and Python versions (no ``hash()``
    anywhere), invariant under dtype/memory-order changes, and distinct
    under any value perturbation.  ``options`` is a dict, or its
    :func:`canonical_options` string (a request's
    ``ServeRequest.canonical_options``), which gives the same key.
    """
    if not isinstance(options, str):
        options = canonical_options(options)
    digest = hashlib.sha256()
    digest.update(CACHE_KEY_VERSION.encode("ascii"))
    digest.update(b"\x00")
    digest.update(endpoint.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(options.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(canonical_matrix_bytes(matrix))
    return digest.hexdigest()


def body_digest(endpoint: str, body: bytes) -> bytes:
    """BLAKE2b-128 digest of (endpoint, raw request body bytes).

    The key of :class:`ResultCache`'s exact-resubmission index: equal
    only for byte-identical bodies sent to the same endpoint.
    """
    digest = hashlib.blake2b(endpoint.encode("utf-8"), digest_size=16)
    digest.update(b"\x00")
    digest.update(body)
    return digest.digest()


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

    Hits, misses and stores are counted in :attr:`events`, a
    :class:`repro.obs.metrics.Tally` the owner drains into its own
    ``record`` call; unlike the LRU, it is for one thread.

    The exact-resubmission index (:meth:`index_exact` /
    :meth:`get_exact`) maps a :func:`body_digest` to its canonical key.
    It never holds a body, holds at most ``max_entries`` digests (the
    oldest is dropped first), and, like :attr:`events`, is for the
    owner's thread only.

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
        #: Hits, misses and stores, counted for the owner's next record
        #: call (the server's is each request's exit); spill events are
        #: recorded as they happen.  Fed on the owner's thread only.
        self.events = _metrics.Tally()
        self._exact: dict[bytes, str] = {}
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
        value = self._find(key)
        if value is None:
            with self._lock:
                self.misses += 1
            self.events.add("repro_serve_cache_events_total", ("miss",))
        return value

    def index_exact(self, digest: bytes, key: str) -> None:
        """Index a request body's :func:`body_digest` under its ``key``."""
        exact = self._exact
        exact[digest] = key
        if len(exact) > self.max_entries:
            del exact[next(iter(exact))]

    def indexed(self, digest: bytes) -> bool:
        """True when ``digest`` is in the exact-resubmission index."""
        return digest in self._exact

    def get_exact(self, digest: bytes) -> bytes | None:
        """The cached bytes of the key ``digest`` is indexed under, or None.

        A hit counts as :meth:`get`'s does.  A key no longer cached drops
        its index entry and counts nothing: the caller then looks the key
        up in full, and that lookup counts the request's one miss.
        """
        key = self._exact.get(digest)
        if key is None:
            return None
        value = self._find(key)
        if value is None:
            del self._exact[digest]
        return value

    def _find(self, key: str) -> bytes | None:
        """:meth:`get` without counting a miss."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.hits_memory += 1
                self.events.add("repro_serve_cache_events_total", ("hit-memory",))
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
                self.events.add("repro_serve_cache_events_total", ("hit-disk",))
                return value
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
        self.events.add("repro_serve_cache_events_total", ("store",))
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
                "exact_entries": len(self._exact),
                "hits_memory": self.hits_memory,
                "hits_disk": self.hits_disk,
                "misses": self.misses,
                "evictions": self.evictions,
                "spill_dir": str(self.spill_dir) if self.spill_dir else None,
                "spill_errors": self.spill_errors,
                "spill_degraded": self.spill_degraded,
            }
