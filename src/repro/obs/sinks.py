"""Pluggable destinations for :mod:`repro.obs` event records.

A sink is anything with ``emit(record: dict)`` and ``close()`` — the
:class:`Sink` protocol below.  Three stdlib-only implementations ship
with the library:

* :class:`MemorySink` — append records to an in-process list (the
  default for tests and interactive use; the recorder's own event list
  usually suffices, this exists for sink-API symmetry and fan-out).
* :class:`JsonlSink` — one JSON object per line, append-mode file.
  The file is opened lazily on the first record so constructing the
  sink never touches the filesystem.  Every line is flushed as it is
  written: a process killed mid-run (SIGTERM under drain) loses at most
  the record being written, never completed ones.
* :class:`RotatingJsonlSink` — a JsonlSink with size-based rotation
  (``path`` → ``path.1`` → ``path.2`` ...), used for the serving slow-
  request log so an unattended server cannot fill a disk.
* :class:`LoggingSink` — bridge into :mod:`logging`; each span record
  becomes one ``DEBUG`` message on the ``repro.obs`` logger, so
  existing logging configuration picks up traces with no extra wiring.

Records are plain dicts (see :meth:`repro.obs.events.SpanEvent.to_record`)
and are already JSON-safe when they reach a sink.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from typing import Protocol, runtime_checkable

__all__ = ["Sink", "MemorySink", "JsonlSink", "RotatingJsonlSink", "LoggingSink"]


@runtime_checkable
class Sink(Protocol):
    """Anything that can receive event records."""

    def emit(self, record: dict) -> None: ...

    def close(self) -> None: ...


class MemorySink:
    """Collect records in an in-process list (``sink.records``)."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def emit(self, record: dict) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return len(self.records)


class JsonlSink:
    """Write one JSON object per line to ``path`` (append mode).

    The file handle is opened on the first :meth:`emit` and closed by
    :meth:`close` (which :func:`repro.obs.recording` calls on exit).
    Each record is one unbuffered write of one line, so a SIGTERM'd
    process never loses spans that already completed — at worst the
    final line is truncated, which ``trace query`` tolerates.  Threads
    may share one sink, and processes may append to one file: the
    handle is ``O_APPEND``, so lines never interleave.
    """

    def __init__(self, path) -> None:
        self.path = path
        self._handle = None
        self._lock = threading.Lock()

    def emit(self, record: dict) -> None:
        line = (json.dumps(record) + "\n").encode("utf-8")
        with self._lock:
            if self._handle is None:
                self._handle = open(self.path, "ab", buffering=0)
            self._handle.write(line)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class RotatingJsonlSink:
    """A :class:`JsonlSink` with size-based rotation.

    When appending a record would push the current file past
    ``max_bytes``, the file is rotated: ``path.{backups}`` is dropped,
    ``path.N`` → ``path.N+1``, ``path`` → ``path.1`` and a fresh file is
    started.  With ``backups=0`` the file is simply truncated.
    """

    def __init__(self, path, *, max_bytes: int = 1_000_000, backups: int = 3) -> None:
        self.path = str(path)
        self.max_bytes = int(max_bytes)
        self.backups = int(backups)
        self._handle = None

    def _open(self):
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def _rotate(self) -> None:
        self.close()
        if self.backups <= 0:
            if os.path.exists(self.path):
                os.remove(self.path)
            return
        oldest = f"{self.path}.{self.backups}"
        if os.path.exists(oldest):
            os.remove(oldest)
        for index in range(self.backups - 1, 0, -1):
            source = f"{self.path}.{index}"
            if os.path.exists(source):
                os.replace(source, f"{self.path}.{index + 1}")
        if os.path.exists(self.path):
            os.replace(self.path, f"{self.path}.1")

    def emit(self, record: dict) -> None:
        line = json.dumps(record) + "\n"
        handle = self._open()
        if self.max_bytes > 0 and handle.tell() + len(line) > self.max_bytes:
            self._rotate()
            handle = self._open()
        handle.write(line)
        handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class LoggingSink:
    """Forward records to a :mod:`logging` logger.

    Spans log at DEBUG as ``span sinkhorn.scalar wall=1.23ms cpu=1.10ms``
    followed by depth and attributes.  Pass a ``logger`` to override the
    default ``repro.obs`` logger (e.g. to attach handlers in a service).
    """

    def __init__(self, logger: logging.Logger | None = None) -> None:
        self.logger = logger or logging.getLogger("repro.obs")

    def emit(self, record: dict) -> None:
        self.logger.debug(
            "span %s wall=%.3fms cpu=%.3fms depth=%d meta=%s",
            record["name"],
            record["wall_s"] * 1e3,
            record["cpu_s"] * 1e3,
            record["depth"],
            record.get("meta", {}),
        )

    def close(self) -> None:
        pass
