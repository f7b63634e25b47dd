"""repro.shard — out-of-core sharded ensemble execution.

The characterization atlas only becomes interesting at scales the
in-memory pipeline cannot hold: a million ``(8, 8)`` ETC matrices is
512 MB of raw float64 before the batched kernels make their working
copies.  This package streams such ensembles from disk with flat
memory:

* :mod:`repro.shard.store` — the on-disk stack format: raw C-order
  binary + JSON manifest, memory-mapped reads, a streaming writer
  (:func:`repro.generate.random_ecs_store` emits straight to it);
* :mod:`repro.shard.planner` — chunked execution plans under a
  peak-memory budget;
* :mod:`repro.shard.merge` — order-independent, associative merging of
  per-shard results (measures, quarantine reports);
* :mod:`repro.shard.engine` — :func:`characterize_store`, the
  streaming/scheduling driver with speculative straggler mitigation.

The headline invariant, pinned by ``tests/shard/``: a sharded run is
**bit-identical** to the in-memory
:func:`repro.batch.characterize_ensemble` on the same members, for any
chunking and robust policy.  See
``docs/SHARDING.md``.
"""

from .engine import characterize_store
from .merge import merge_characterizations, merge_reports, shift_report
from .planner import (
    DEFAULT_CHUNK_SIZE,
    WORKING_SET_FACTOR,
    Shard,
    ShardPlan,
    plan_shards,
)
from .store import (
    DATA_NAME,
    MANIFEST_NAME,
    STORE_SCHEMA,
    StackStore,
    StackStoreWriter,
    create_store,
    open_store,
    write_store,
)

__all__ = [
    "STORE_SCHEMA",
    "MANIFEST_NAME",
    "DATA_NAME",
    "StackStore",
    "StackStoreWriter",
    "create_store",
    "open_store",
    "write_store",
    "WORKING_SET_FACTOR",
    "DEFAULT_CHUNK_SIZE",
    "Shard",
    "ShardPlan",
    "plan_shards",
    "merge_characterizations",
    "merge_reports",
    "shift_report",
    "characterize_store",
]
