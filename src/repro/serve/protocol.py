"""Request/response schemas of the characterization service.

JSON over HTTP, one document per request.  Three POST endpoints:

``/v1/characterize``
    ``{"matrix": [[...]], "tol"?, "tma_fallback"?, "policy"?,
    "backend"?}`` → the paper measures of one environment.
``/v1/standardize``
    ``{"matrix": [[...]], "tol"?, "max_iterations"?, "policy"?,
    "backend"?}`` → the Sinkhorn standard form of one environment.
``/v1/recommend-heuristic``
    ``{"matrix": [[...]], "tol"?, "policy"?, "backend"?}`` → the
    measure-driven mapping-heuristic recommendation.

``backend`` selects the registered kernel backend
(:mod:`repro.backends`) running the request; it defaults to
``"numpy"`` and is part of the cache identity, so the same matrix
served by two backends occupies two cache entries.

Every endpoint additionally accepts ``deadline_ms`` — the caller's
end-to-end latency budget in milliseconds.  A request that can no
longer meet its deadline is shed with a structured ``503`` before it
burns a kernel slot; see :mod:`repro.serve.resilience` and
``docs/SERVING.md``.  The deadline is *not* part of the cache or
coalescing identity (it changes whether work runs, never its result).

Every endpoint also accepts ``debug_timings`` (boolean): when true the
success response gains a ``debug`` section with the request's trace id
and a per-stage latency breakdown.  Like the deadline, it is excluded
from the cache and coalescing identity — the canonical result bytes
stay bit-identical and the debug section is attached per response.

Every response carries ``"schema": "repro-serve/1"``.  Success bodies
hold the endpoint name and a ``"result"`` object; failures hold an
``"error"`` object with a stable fault ``category`` — protocol-level
categories ``bad-request`` / ``not-found`` / ``internal``, or one of
the :data:`repro.robust.FAULT_CATEGORIES` slugs when the request was
quarantined by the robust pipeline.

Responses are rendered with :func:`encode_json` (sorted keys, compact
separators), so two requests that produce the same result document
produce **bit-identical** bodies — the property the coalescer and the
content-addressed cache rely on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .._validation import INT64_MAX
from .cache import canonical_options

__all__ = [
    "SCHEMA",
    "ENDPOINTS",
    "ProtocolError",
    "ServeRequest",
    "parse_request",
    "encode_json",
    "decode_json",
    "error_body",
    "result_body",
    "json_safe",
]

SCHEMA = "repro-serve/1"

#: Endpoint slug → allowed option names beyond ``matrix``.
ENDPOINTS = {
    "characterize": (
        "tol", "tma_fallback", "policy", "backend", "deadline_ms",
        "debug_timings",
    ),
    "standardize": (
        "tol", "max_iterations", "policy", "backend", "deadline_ms",
        "debug_timings",
    ),
    "recommend-heuristic": (
        "tol", "policy", "backend", "deadline_ms", "debug_timings",
    ),
}

_POLICIES = ("quarantine", "repair")
_TMA_FALLBACKS = ("limit", "column", "raise")


class ProtocolError(ValueError):
    """A malformed request; ``status`` is the HTTP code to answer with."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class ServeRequest:
    """One validated service request.

    ``matrix`` is the float64 C-contiguous environment; ``options`` are
    the normalized kernel options (defaults filled in), which also form
    part of the request's cache identity.  ``deadline_ms`` is the
    caller's latency budget — deliberately *not* part of ``options``:
    two requests for the same matrix under different deadlines must
    share a cache entry and a coalescing group, because the deadline
    changes *whether* the work runs, never its result.
    ``debug_timings`` follows the same rule: it asks for a per-request
    latency breakdown in the response body, which changes what is
    *reported*, never what is computed — so it stays out of the cache
    and coalescing identity and the debug section is attached after the
    canonical (cacheable) body is produced.

    ``canonical_options`` is :func:`repro.serve.cache.canonical_options`
    of ``options``, serialized once when the request is built; the cache
    key and the coalescing group read it.
    """

    endpoint: str
    matrix: np.ndarray = field(repr=False)
    options: dict
    deadline_ms: float | None = None
    debug_timings: bool = False
    canonical_options: str = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "canonical_options", canonical_options(self.options)
        )

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape  # type: ignore[return-value]


#: JSON types numpy would read as numbers (``"1.5"`` as 1.5, ``true``
#: as 1.0), which a matrix entry must not be.
_NOT_NUMBERS = {str: "string", bool: "boolean"}


def _as_float(value) -> float:
    """``float`` of a JSON number; an integer past the float64 range
    reads as the signed infinity instead of raising OverflowError."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _parse_matrix(payload: dict) -> np.ndarray:
    if "matrix" not in payload:
        raise ProtocolError("request body needs a 'matrix' field")
    rows = payload["matrix"]
    if isinstance(rows, list):
        # Rows that are not lists are left to the shape check below.
        entries = chain.from_iterable(row for row in rows if isinstance(row, list))
        kinds = set(map(type, entries))
        wrong = [name for kind, name in _NOT_NUMBERS.items() if kind in kinds]
        if wrong:
            raise ProtocolError(
                "'matrix' entries must be JSON numbers, got "
                f"{' and '.join(wrong)} entries"
            )
    try:
        matrix = np.asarray(rows, dtype=np.float64)
    except OverflowError as exc:
        raise ProtocolError(
            f"'matrix' has an entry past the float64 range: {exc}"
        ) from exc
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"'matrix' is not numeric: {exc}") from exc
    if matrix.ndim != 2 or 0 in matrix.shape:
        raise ProtocolError(
            "'matrix' must be a non-empty 2-D array of ETC values, got "
            f"shape {matrix.shape}"
        )
    return np.ascontiguousarray(matrix)


def parse_request(endpoint: str, payload) -> ServeRequest:
    """Validate one request document into a :class:`ServeRequest`.

    Raises :class:`ProtocolError` on unknown endpoints, missing or
    non-numeric matrices, unknown option names and out-of-range option
    values.  Matrix *values* are not screened here — corrupt data (NaN,
    zero lines, ...) flows to the robust pipeline, which quarantines it
    with a precise taxonomy category instead of a generic 400.
    """
    if endpoint not in ENDPOINTS:
        raise ProtocolError(f"unknown endpoint {endpoint!r}", status=404)
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"request body must be a JSON object, got {type(payload).__name__}"
        )
    allowed = ENDPOINTS[endpoint]
    unknown = sorted(set(payload) - set(allowed) - {"matrix"})
    if unknown:
        raise ProtocolError(
            f"unknown option(s) {unknown} for endpoint {endpoint!r}; "
            f"allowed: {sorted(allowed)}"
        )
    matrix = _parse_matrix(payload)

    options: dict = {}
    tol = payload.get("tol", 1e-8)
    if not isinstance(tol, (int, float)) or not 0 < _as_float(tol) < 1:
        raise ProtocolError(f"'tol' must be a float in (0, 1), got {tol!r}")
    options["tol"] = float(tol)

    policy = payload.get("policy", "quarantine")
    if policy not in _POLICIES:
        raise ProtocolError(
            f"'policy' must be one of {list(_POLICIES)}, got {policy!r}"
        )
    options["policy"] = policy

    from ..backends import list_backends

    backend = payload.get("backend", "numpy")
    if backend not in list_backends():
        raise ProtocolError(
            f"'backend' must be one of {list(list_backends())}, "
            f"got {backend!r}"
        )
    options["backend"] = backend

    if endpoint == "characterize":
        fallback = payload.get("tma_fallback", "limit")
        if fallback not in _TMA_FALLBACKS:
            raise ProtocolError(
                f"'tma_fallback' must be one of {list(_TMA_FALLBACKS)}, "
                f"got {fallback!r}"
            )
        options["tma_fallback"] = fallback
    if endpoint == "standardize":
        max_iterations = payload.get("max_iterations", 100_000)
        if (
            not isinstance(max_iterations, int)
            or isinstance(max_iterations, bool)
            or not 1 <= max_iterations <= INT64_MAX
        ):
            raise ProtocolError(
                f"'max_iterations' must be an integer in [1, {INT64_MAX}], "
                f"got {max_iterations!r}"
            )
        options["max_iterations"] = max_iterations

    deadline_ms = payload.get("deadline_ms")
    if deadline_ms is not None:
        if (
            isinstance(deadline_ms, bool)
            or not isinstance(deadline_ms, (int, float))
            or not math.isfinite(_as_float(deadline_ms))
            or deadline_ms <= 0
        ):
            raise ProtocolError(
                "'deadline_ms' must be a positive finite number of "
                f"milliseconds, got {deadline_ms!r}"
            )
        deadline_ms = float(deadline_ms)

    debug_timings = payload.get("debug_timings", False)
    if not isinstance(debug_timings, bool):
        raise ProtocolError(
            f"'debug_timings' must be a boolean, got {debug_timings!r}"
        )
    return ServeRequest(
        endpoint=endpoint,
        matrix=matrix,
        options=options,
        deadline_ms=deadline_ms,
        debug_timings=debug_timings,
    )


def json_safe(value):
    """Recursively convert numpy scalars/arrays and NaN for JSON.

    NaN / ±inf become ``None`` (strict-JSON clients choke on the bare
    ``NaN`` token Python's encoder would otherwise emit).  Integer, bool
    and all-finite float arrays are rendered whole by ``tolist()``; only
    an array holding NaN/±inf (or objects) is walked element by element.
    """
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        kind = value.dtype.kind
        if kind in "iub" or (kind == "f" and np.isfinite(value).all()):
            return value.tolist()
        return json_safe(value.tolist())
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else None
    return value


def encode_json(document: dict) -> bytes:
    """Deterministic JSON bytes (sorted keys, compact separators)."""
    return (
        json.dumps(
            json_safe(document),
            sort_keys=True,
            separators=(",", ":"),
            allow_nan=False,
        )
        + "\n"
    ).encode("utf-8")


def decode_json(body: bytes):
    """Parse a request body; raises :class:`ProtocolError` on bad JSON."""
    try:
        return json.loads(body.decode("utf-8"))
    # ValueError covers bad UTF-8, bad JSON and an integer literal past
    # the interpreter's digit limit.
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"request body is not valid JSON: {exc}") from exc


def result_body(endpoint: str, result: dict) -> bytes:
    """The canonical success body for one endpoint result."""
    return encode_json(
        {"schema": SCHEMA, "endpoint": endpoint, "result": result}
    )


def error_body(
    endpoint: str | None,
    category: str,
    message: str,
    *,
    retry_after_s: float | None = None,
) -> bytes:
    """The canonical error body (stable ``category`` + human message).

    Shed responses (503) carry ``retry_after_s`` in the error object —
    the same back-off hint as the ``Retry-After`` header, but with
    sub-second resolution for clients that parse the body.
    """
    error: dict = {"category": category, "message": message}
    if retry_after_s is not None:
        error["retry_after_s"] = round(float(retry_after_s), 3)
    document = {"schema": SCHEMA, "error": error}
    if endpoint is not None:
        document["endpoint"] = endpoint
    return encode_json(document)
