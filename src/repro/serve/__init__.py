"""The characterization service (``repro-hc serve``).

An asyncio JSON-over-HTTP front end for the library's batched
characterization kernels:

* :mod:`repro.serve.protocol` — request/response schema, validation;
* :mod:`repro.serve.cache` — content-addressed result cache (canonical
  matrix bytes → SHA-256 key, in-memory LRU with optional disk spill);
* :mod:`repro.serve.coalesce` — micro-batching queue that stacks
  concurrent same-shape requests into one (N, T, M) kernel call;
* :mod:`repro.serve.resilience` — overload behavior: admission
  control with bounded queueing, AIMD capacity estimation, deadline
  shedding and the graceful-drain state machine;
* :mod:`repro.serve.server` — the HTTP server, request router and
  serving glue (singleflight, quarantine, metrics);
* :mod:`repro.serve.loadgen` — seedable trace generation and replay
  for tests and chaos drills.
"""

from .cache import (
    CACHE_KEY_VERSION,
    ResultCache,
    canonical_matrix_bytes,
    canonical_options,
    matrix_cache_key,
)
from .coalesce import CoalesceResult, Coalescer, ServeFault
from .loadgen import (
    TRACE_SCHEMA,
    ReplayReport,
    RequestOutcome,
    TraceRequest,
    estimate_capacity,
    generate_trace,
    load_trace,
    overload_drill,
    percentile,
    replay_trace,
    save_trace,
)
from .protocol import (
    ENDPOINTS,
    SCHEMA,
    ProtocolError,
    ServeRequest,
    decode_json,
    encode_json,
    error_body,
    json_safe,
    parse_request,
    result_body,
)
from .resilience import (
    AdmissionController,
    CapacityEstimator,
    DeadlineExceeded,
    DrainState,
    ShedError,
)
from .server import (
    CharacterizationServer,
    ServeConfig,
    ServerThread,
)

__all__ = [
    "AdmissionController",
    "CACHE_KEY_VERSION",
    "CapacityEstimator",
    "CharacterizationServer",
    "CoalesceResult",
    "Coalescer",
    "DeadlineExceeded",
    "DrainState",
    "ENDPOINTS",
    "ProtocolError",
    "ReplayReport",
    "RequestOutcome",
    "ResultCache",
    "SCHEMA",
    "ServeConfig",
    "ServeFault",
    "ServeRequest",
    "ServerThread",
    "ShedError",
    "TRACE_SCHEMA",
    "TraceRequest",
    "canonical_matrix_bytes",
    "canonical_options",
    "decode_json",
    "encode_json",
    "error_body",
    "estimate_capacity",
    "generate_trace",
    "json_safe",
    "load_trace",
    "matrix_cache_key",
    "overload_drill",
    "parse_request",
    "percentile",
    "replay_trace",
    "result_body",
    "save_trace",
]
