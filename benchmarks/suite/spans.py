"""Per-layer spans recorded from outside the program.

The benchmark may not edit ``src/``, so it times each layer by wrapping
the layer's entry points where callers look them up at call time: a
module attribute (``"repro.serve.server:parse_request"``), a class
attribute (``"repro.serve.cache:ResultCache.get"``) or a method of the
default kernel backend (``"backend:sinkhorn_core"``).  :data:`HOOKS` is
the only place that names them.  A target that a later refactor renames
or merges is reported as ``absent`` and simply not timed.

Spans stay in memory while the workload runs.  A synchronous call gives
one *busy* piece.  A coroutine gives one busy piece per step it runs on
the event loop, plus one *wait* interval from its first step to its
return.  :meth:`Tracer.attribute` then hands every instant of the traced
wall time to one layer:

* a thread running inside a span: the innermost span's layer (threads
  busy at the same instant share it equally);
* no thread busy, a coroutine waiting: the deepest waiting coroutine's
  layer (a request lingering in the coalescer is coalescer time);
* otherwise: ``unattributed``.
"""

from __future__ import annotations

import functools
import heapq
import importlib
import inspect
import itertools
import json
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

#: The program's layers, named after its modules.
LAYERS = (
    "serve.server",
    "serve.protocol",
    "serve.cache",
    "serve.coalesce",
    "serve.resilience",
    "scheduling",
    "batch",
    "backends",
    "normalize",
    "measures",
    "shard.store",
    "shard.engine",
    "shard.merge",
)

UNATTRIBUTED = "unattributed"

#: (layer, target) for every wrapped entry point.  A function reachable
#: under two names (a package re-export and the module that defines it)
#: is listed under each name its callers use.
HOOKS = (
    ("serve.server", "repro.serve.server:CharacterizationServer.exchange"),
    ("serve.server", "repro.serve.server:CharacterizationServer.handle_request"),
    ("serve.protocol", "repro.serve.server:decode_json"),
    ("serve.protocol", "repro.serve.server:parse_request"),
    ("serve.protocol", "repro.serve.server:result_body"),
    ("serve.cache", "repro.serve.server:matrix_cache_key"),
    ("serve.cache", "repro.serve.cache:ResultCache.get"),
    ("serve.cache", "repro.serve.cache:ResultCache.put"),
    ("serve.coalesce", "repro.serve.coalesce:Coalescer.submit"),
    ("serve.resilience", "repro.serve.resilience:AdmissionController.admit"),
    ("serve.resilience", "repro.serve.resilience:AdmissionController.release"),
    ("serve.resilience", "repro.serve.resilience:AdmissionController.observe"),
    ("scheduling", "repro.scheduling.selection:recommend_from_measures"),
    ("batch", "repro.batch:characterize_ensemble"),
    ("batch", "repro.batch.ensemble:characterize_ensemble"),
    ("batch", "repro.batch:standardize_batched"),
    ("batch", "repro.batch.sinkhorn:standardize_batched"),
    ("batch", "repro.batch.sinkhorn:sinkhorn_knopp_batched"),
    ("batch", "repro.batch.measures:average_adjacent_ratio_batched"),
    ("batch", "repro.robust.ensemble:RobustEnsembleCharacterization.member_payload"),
    ("backends", "backend:fused_standard_measures"),
    ("backends", "backend:sinkhorn_core"),
    ("backends", "backend:sinkhorn_core_batched"),
    ("backends", "backend:svd_values"),
    ("backends", "backend:svd_values_batched"),
    ("normalize", "repro.measures.report:standardize"),
    ("normalize", "repro.normalize.standard_form:sinkhorn_knopp"),
    ("measures", "repro:characterize"),
    ("measures", "repro.measures.report:characterize"),
    ("shard.store", "repro.shard.store:StackStore.read"),
    ("shard.engine", "repro.shard:characterize_store"),
    ("shard.merge", "repro.shard.engine:merge_characterizations"),
)


def _resolve(target: str):
    """``(owner, attribute)`` a target names; raises LookupError."""
    where, _, path = target.partition(":")
    if where == "backend":
        from repro.backends import resolve_backend

        owner, attr = resolve_backend(), path
    else:
        try:
            owner = importlib.import_module(where)
        except ImportError as exc:
            raise LookupError(f"module {where} not importable ({exc})") from None
        *outer, attr = path.split(".")
        for part in outer:
            if not hasattr(owner, part):
                raise LookupError(f"{where} has no {part}")
            owner = getattr(owner, part)
    if not callable(getattr(owner, attr, None)):
        raise LookupError(f"{target} is not a callable attribute")
    if isinstance(vars(owner).get(attr), (staticmethod, classmethod)):
        raise LookupError(f"{target} is a static or class method")
    return owner, attr


class _Steps:
    """Awaitable running one coroutine step by step, timing every step."""

    __slots__ = ("coro", "tracer", "layer", "name")

    def __init__(self, coro, tracer, layer, name):
        self.coro, self.tracer, self.layer, self.name = coro, tracer, layer, name

    def __await__(self):
        tracer, coro = self.tracer, self.coro
        call = next(tracer.ids)
        depth = len(tracer.stack())
        start = None
        value, error = None, None
        try:
            while True:
                stack = tracer.stack()
                parent = stack[-1] if stack else -1
                step = next(tracer.ids)
                stack.append(step)
                t0 = perf_counter()
                if start is None:
                    start = t0
                try:
                    if error is None:
                        yielded = coro.send(value)
                    else:
                        yielded = coro.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    stack.pop()
                    tracer.pieces.append(
                        (step, parent, call, self.layer, self.name,
                         threading.get_ident(), t0, perf_counter())
                    )
                try:
                    value, error = (yield yielded), None
                except GeneratorExit:
                    coro.close()
                    raise
                except BaseException as exc:  # forwarded into the coroutine
                    value, error = None, exc
        finally:
            if start is not None:
                tracer.waits.append(
                    (call, depth, self.layer, self.name, start, perf_counter())
                )


class Tracer:
    """Wraps :data:`HOOKS` on :meth:`install` and keeps spans in memory.

    Install before a traced operation and uninstall after it, recording
    the operation's wall interval with :meth:`window`; only time inside
    windows is attributed.
    """

    def __init__(self, hooks=HOOKS):
        self.ids = itertools.count()
        self._local = threading.local()
        #: (id, parent, owner call, layer, name, thread, start, end)
        self.pieces: list[tuple] = []
        #: (call, depth, layer, name, start, end) of awaited coroutines
        self.waits: list[tuple] = []
        self.windows: list[tuple[float, float]] = []
        self.status: dict[str, str] = {}
        self._patches = []
        for layer, target in hooks:
            try:
                owner, attr = _resolve(target)
            except LookupError as exc:
                self.status[target] = f"absent ({exc})"
                continue
            own = vars(owner).get(attr)
            wrapped = self._wrap(getattr(owner, attr), layer, attr)
            self._patches.append((owner, attr, own, wrapped))
            self.status[target] = "wrapped"

    @property
    def absent(self) -> list[str]:
        return [t for t, s in self.status.items() if s != "wrapped"]

    def stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, fn, layer, name):
        tracer = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                return await _Steps(fn(*args, **kwargs), tracer, layer, name)

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack()
            parent = stack[-1] if stack else -1
            sid = next(tracer.ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                tracer.pieces.append(
                    (sid, parent, sid, layer, name, threading.get_ident(),
                     t0, perf_counter())
                )

        return wrapper

    def install(self) -> None:
        for owner, attr, _own, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, own, _wrapped in self._patches:
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def window(self, start: float, end: float) -> None:
        self.windows.append((start, end))

    # -- analysis --------------------------------------------------------

    def _calls(self, name: str) -> list[tuple[float, float]]:
        """(start, end) of every call of ``name``."""
        calls = [(start, end) for _c, _d, _l, n, start, end in self.waits if n == name]
        calls += [
            (start, end)
            for sid, _p, owner, _l, n, _t, start, end in self.pieces
            if n == name and owner == sid
        ]
        return calls

    def durations(self, name: str, within: str | None = None) -> list[float]:
        """Inclusive durations of every call of ``name`` (only those
        inside a call of ``within``, when given)."""
        calls = self._calls(name)
        if within is not None:
            outer = self._calls(within)
            calls = [(s, e) for s, e in calls if any(a <= s and e <= b for a, b in outer)]
        return [end - start for start, end in calls]

    def self_times(self, name: str) -> list[float]:
        """Self time of every call of ``name`` (its busy time minus the
        busy time of the spans it called)."""
        children: dict[int, float] = defaultdict(float)
        for _sid, parent, _o, _l, _n, _t, start, end in self.pieces:
            children[parent] += end - start
        per_call: dict[int, float] = defaultdict(float)
        for sid, _p, owner, _l, n, _t, start, end in self.pieces:
            if n == name:
                per_call[owner] += (end - start) - children.get(sid, 0.0)
        return list(per_call.values())

    def attribute(self) -> tuple[dict[str, float], float]:
        """(seconds per layer incl. ``unattributed``, traced wall seconds)."""
        events = []
        for start, end in self.windows:
            events.append((start, 0, None))
            events.append((end, 1, None))
        for piece in self.pieces:
            events.append((piece[6], 2, piece))
            events.append((piece[7], 3, piece))
        for wait in self.waits:
            events.append((wait[4], 4, wait))
            events.append((wait[5], 5, wait))
        events.sort(key=lambda e: (e[0], e[1]))
        seconds: dict[str, float] = defaultdict(float)
        busy: dict[int, list] = defaultdict(list)
        n_busy = 0
        waiting: list = []  # heap of (-depth, -start, call, layer)
        live_waits: set[int] = set()
        open_windows = 0
        total = 0.0
        prev = None
        for t, kind, item in events:
            if prev is not None and open_windows and t > prev:
                dt = t - prev
                total += dt
                if n_busy:
                    labels = [s[-1][1] for s in busy.values() if s]
                    for label in labels:
                        seconds[label] += dt / len(labels)
                else:
                    while waiting and waiting[0][2] not in live_waits:
                        heapq.heappop(waiting)
                    seconds[waiting[0][3] if waiting else UNATTRIBUTED] += dt
            prev = t
            if kind == 0:
                open_windows += 1
            elif kind == 1:
                open_windows -= 1
            elif kind == 2:
                stack = busy[item[5]]
                n_busy += not stack
                stack.append((item[0], item[3]))
            elif kind == 3:
                stack = busy[item[5]]
                for i in range(len(stack) - 1, -1, -1):
                    if stack[i][0] == item[0]:
                        del stack[i]
                        break
                n_busy -= not stack
            elif kind == 4:
                live_waits.add(item[0])
                heapq.heappush(waiting, (-item[1], -item[4], item[0], item[2]))
            else:
                live_waits.discard(item[0])
        return dict(seconds), total

    def write_jsonl(self, path: Path) -> None:
        """Every span and window as one JSON record per line."""
        with open(path, "w", encoding="utf-8") as out:
            for start, end in self.windows:
                out.write(json.dumps({"kind": "op", "start": start, "end": end}) + "\n")
            for sid, parent, owner, layer, name, thread, start, end in self.pieces:
                out.write(json.dumps({
                    "kind": "busy", "id": sid, "parent": parent, "call": owner,
                    "layer": layer, "name": name, "thread": thread,
                    "start": start, "end": end,
                }) + "\n")
            for call, depth, layer, name, start, end in self.waits:
                out.write(json.dumps({
                    "kind": "wait", "id": call, "depth": depth, "layer": layer,
                    "name": name, "start": start, "end": end,
                }) + "\n")
