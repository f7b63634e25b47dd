"""Chunked execution planning under a peak-memory budget.

A store pass holds, at its peak, one chunk in flight plus everything the
pass has accumulated.  :func:`plan_shards` models that peak from named
parts, each fitted to ``tracemalloc`` peaks of
:func:`~repro.shard.characterize_store` (docs/SHARDING.md, "The
planner"):

* per member of the chunk, :data:`WORKING_SET_FACTOR` matrix-sized
  float64 copies (the chunk read and the kernels' working copies) and
  :data:`LINE_VECTORS` line-sized ones (scales, sums, deviations);
* per shard, :data:`SHARD_BYTES` for its finished result object;
* per pass, :data:`PASS_BYTES` plus :data:`RESULT_BYTES` per member of
  the ensemble (the finished result columns and their merged copy).

Given a budget it picks the largest chunk whose modeled peak fits, then
tiles the ensemble into consecutive ``[start, stop)`` shards.  The
property harness in ``tests/shard/test_planner.py`` pins the two planner
invariants:

* the shards partition ``range(n_members)`` — every member is covered
  exactly once, in order, for any (N, chunk, budget);
* ``estimated_peak_bytes <= memory_budget_bytes`` whenever some chunk
  fits; otherwise the plan takes the chunk of least modeled peak (the
  planning floor: with a cost per shard, not one member).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..exceptions import MatrixValueError

__all__ = [
    "WORKING_SET_FACTOR",
    "LINE_VECTORS",
    "SHARD_BYTES",
    "PASS_BYTES",
    "RESULT_BYTES",
    "DEFAULT_CHUNK_SIZE",
    "Shard",
    "ShardPlan",
    "plan_shards",
]

#: Matrix-sized float64 copies of each chunk member held at the peak
#: (``T * M * 8`` bytes each).
WORKING_SET_FACTOR = 3.0

#: Line-sized float64 vectors per chunk member (``(T + M) * 8`` bytes
#: each): scaling vectors, line sums and deviations.
LINE_VECTORS = 5

#: Bytes per shard: the finished part a pass keeps until the merge.
SHARD_BYTES = 1408

#: Bytes per pass, whatever its size or chunking.
PASS_BYTES = 16 * 1024

#: Bytes per ensemble member for its result columns (about 34: three
#: float64 measures, int64 iterations, two bools), held twice while the
#: parts are merged.
RESULT_BYTES = 72

#: Chunk size when neither a budget nor an explicit chunk is given:
#: large enough to amortize per-chunk Python overhead, small enough
#: that an (8, 8) ensemble's chunk working set is ~18 MB by the model.
DEFAULT_CHUNK_SIZE = 8192


def _member_bytes(n_tasks: int, n_machines: int) -> int:
    """Modeled bytes one chunk member adds to the peak."""
    return int(WORKING_SET_FACTOR * n_tasks * n_machines * 8) + (
        LINE_VECTORS * (n_tasks + n_machines) * 8
    )


def _modeled_peak(n_members: int, n_tasks: int, n_machines: int, chunk: int) -> int:
    """Modeled peak bytes of one pass in ``chunk``-member shards."""
    return (
        PASS_BYTES
        + RESULT_BYTES * n_members
        + SHARD_BYTES * -(-n_members // chunk)
        + chunk * _member_bytes(n_tasks, n_machines)
    )


def _fit_chunk(n_members: int, n_tasks: int, n_machines: int, budget: int) -> int:
    """The largest chunk whose modeled peak fits ``budget``; if none
    fits, the chunk of least modeled peak.

    Chunks giving the same shard count form a range ``[low, high]``
    whose peaks rise with the chunk.  The ranges are walked from one
    shard upward, so the first one with room holds the largest chunk
    that fits.  A range whose shard bytes alone reach the least peak
    seen ends the walk: it and every later one are dearer.
    """
    fixed = PASS_BYTES + RESULT_BYTES * n_members
    per_member = _member_bytes(n_tasks, n_machines)
    least_peak, least_chunk = math.inf, 1
    high = n_members
    while high:
        shards = -(-n_members // high)
        if fixed + SHARD_BYTES * shards >= least_peak:
            break
        low = -(-n_members // shards)
        room = (budget - fixed - SHARD_BYTES * shards) // per_member
        if room >= low:
            return min(high, room)
        peak = _modeled_peak(n_members, n_tasks, n_machines, low)
        if peak < least_peak:
            least_peak, least_chunk = peak, low
        high = low - 1
    return least_chunk


@dataclass(frozen=True)
class Shard:
    """One contiguous slice of the ensemble: members ``[start, stop)``."""

    index: int
    start: int
    stop: int

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.stop:
            raise MatrixValueError(
                f"shard [{self.start}, {self.stop}) is empty or negative"
            )

    @property
    def n_members(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class ShardPlan:
    """A chunked execution plan over one ``(N, T, M)`` ensemble.

    Attributes
    ----------
    n_members, n_tasks, n_machines : int
        Ensemble geometry the plan covers.
    chunk_size : int
        Members per full shard (the last shard may be smaller).
    memory_budget_bytes : int or None
        The budget the chunk size was derived from (None when the
        caller fixed ``chunk_size`` directly or took the default).
    shards : tuple of Shard
        Consecutive, non-overlapping, exactly covering the ensemble.
    """

    n_members: int
    n_tasks: int
    n_machines: int
    chunk_size: int
    memory_budget_bytes: int | None
    shards: tuple[Shard, ...]

    def __len__(self) -> int:
        return len(self.shards)

    @property
    def member_nbytes(self) -> int:
        """Heap bytes of one float64 member in flight."""
        return self.n_tasks * self.n_machines * 8

    @property
    def estimated_peak_bytes(self) -> int:
        """Modeled peak heap of one pass under this plan (module
        docstring): chunk working set, shard parts and result columns."""
        return _modeled_peak(
            self.n_members, self.n_tasks, self.n_machines, self.chunk_size
        )

    def summary(self) -> str:
        """One-line operator digest."""
        budget = (
            f"{self.memory_budget_bytes / 2**20:.3g} MB budget"
            if self.memory_budget_bytes is not None
            else "no budget"
        )
        return (
            f"{len(self.shards)} shard(s) x {self.chunk_size} member(s) "
            f"over {self.n_members} ({budget}, est. peak "
            f"{self.estimated_peak_bytes / 2**20:.3g} MB)"
        )


def plan_shards(
    n_members: int,
    n_tasks: int,
    n_machines: int,
    *,
    memory_budget_bytes: int | None = None,
    chunk_size: int | None = None,
) -> ShardPlan:
    """Tile an ensemble into consecutive shards under a memory budget.

    Parameters
    ----------
    n_members, n_tasks, n_machines : int
        Ensemble geometry.
    memory_budget_bytes : int, optional
        Peak heap budget of the pass.  The chunk size is the largest
        count whose modeled peak (module docstring) fits; when none
        fits, the chunk of least modeled peak, reported best-effort by
        :attr:`ShardPlan.estimated_peak_bytes`.
    chunk_size : int, optional
        Fix the chunk size directly (mutually exclusive with the
        budget).

    Examples
    --------
    >>> plan = plan_shards(10, 8, 8, chunk_size=4)
    >>> [(s.start, s.stop) for s in plan.shards]
    [(0, 4), (4, 8), (8, 10)]
    >>> budget = 128 * 2**20
    >>> plan = plan_shards(10**6, 8, 8, memory_budget_bytes=budget)
    >>> wider = plan_shards(10**6, 8, 8, chunk_size=plan.chunk_size + 1)
    >>> plan.estimated_peak_bytes <= budget < wider.estimated_peak_bytes
    True
    """
    for name, value in (
        ("n_members", n_members),
        ("n_tasks", n_tasks),
        ("n_machines", n_machines),
    ):
        if not isinstance(value, (int, np.integer)) or isinstance(
            value, bool
        ) or value < 1:
            raise MatrixValueError(
                f"{name} must be a positive int, got {value!r}"
            )
    n_members = int(n_members)

    if chunk_size is not None and memory_budget_bytes is not None:
        raise MatrixValueError(
            "pass either memory_budget_bytes or chunk_size, not both "
            "(an explicit chunk overrides any budget derivation)"
        )
    if chunk_size is not None:
        if not isinstance(chunk_size, (int, np.integer)) or isinstance(
            chunk_size, bool
        ) or chunk_size < 1:
            raise MatrixValueError(
                f"chunk_size must be a positive int, got {chunk_size!r}"
            )
        chunk = int(chunk_size)
    elif memory_budget_bytes is not None:
        if not isinstance(
            memory_budget_bytes, (int, np.integer)
        ) or isinstance(memory_budget_bytes, bool) or memory_budget_bytes < 1:
            raise MatrixValueError(
                f"memory_budget_bytes must be a positive int, got "
                f"{memory_budget_bytes!r}"
            )
        chunk = _fit_chunk(
            n_members, int(n_tasks), int(n_machines), int(memory_budget_bytes)
        )
    else:
        chunk = DEFAULT_CHUNK_SIZE
    chunk = min(chunk, n_members)

    shards = tuple(
        Shard(index=i, start=start, stop=min(start + chunk, n_members))
        for i, start in enumerate(range(0, n_members, chunk))
    )
    return ShardPlan(
        n_members=n_members,
        n_tasks=int(n_tasks),
        n_machines=int(n_machines),
        chunk_size=chunk,
        memory_budget_bytes=(
            int(memory_budget_bytes) if memory_budget_bytes is not None else None
        ),
        shards=shards,
    )
