"""On-disk ``(N, T, M)`` stack stores: raw binary data + JSON manifest.

A :class:`StackStore` is a directory holding one ensemble stack too
large to materialize in RAM:

* ``manifest.json`` — schema tag, member count, slice shape, dtype;
* ``stack.bin`` — the raw C-order member data, one ``(T, M)`` slice
  after another.

The layout is deliberately primitive: the data file is exactly what
``numpy.memmap`` wants, so readers pay zero parsing cost and the OS
page cache (not the Python heap) holds whatever is warm.  Writers
stream — :class:`StackStoreWriter` appends chunks of any size and
records the final member count only at :meth:`~StackStoreWriter.close`,
so a generator can emit a million members without ever knowing the
total up front (:func:`repro.generate.random_ecs_store` does exactly
that).

Readers get two granularities:

* :meth:`StackStore.memmap` — the whole stack as a read-only
  ``numpy.memmap`` (flat memory; pages come and go with access);
* :meth:`StackStore.read` — one ``[start, stop)`` chunk as an owned,
  C-contiguous ``float64`` array, the unit the shard execution engine
  (:mod:`repro.shard.engine`) streams through the batched kernels.
"""

from __future__ import annotations

import contextlib
import copy
import json
from pathlib import Path

import numpy as np

from ..exceptions import MatrixShapeError, MatrixValueError

__all__ = [
    "STORE_SCHEMA",
    "MANIFEST_NAME",
    "DATA_NAME",
    "StackStore",
    "StackStoreWriter",
    "create_store",
    "open_store",
    "write_store",
]

#: Manifest schema tag; bump on any incompatible layout change.
STORE_SCHEMA = "repro-stack/1"

MANIFEST_NAME = "manifest.json"
DATA_NAME = "stack.bin"

#: dtypes a store may declare.  float64 is the pipeline's native type;
#: float32 halves the disk footprint for atlas-scale sweeps (members
#: are upcast to float64 by :meth:`StackStore.read`).
SUPPORTED_DTYPES = ("float64", "float32")


def _check_dims(n_tasks: int, n_machines: int) -> tuple[int, int]:
    for name, value in (("n_tasks", n_tasks), ("n_machines", n_machines)):
        if not isinstance(value, (int, np.integer)) or isinstance(
            value, bool
        ) or value < 1:
            raise MatrixValueError(
                f"{name} must be a positive int, got {value!r}"
            )
    return int(n_tasks), int(n_machines)


class StackStoreWriter:
    """Streaming writer for one :class:`StackStore` directory.

    Append ``(T, M)`` members or ``(k, T, M)`` chunks in any mix; the
    manifest is written on :meth:`close` (or context-manager exit), at
    which point the store becomes readable.  A crashed writer leaves no
    manifest behind, so half-written stores are never openable.

    Examples
    --------
    >>> import numpy as np, tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "demo")
    >>> with create_store(path, n_tasks=2, n_machines=3) as writer:
    ...     writer.append(np.ones((2, 3)))
    ...     writer.append(np.full((4, 2, 3), 2.0))
    1
    5
    >>> len(open_store(path))
    5
    """

    def __init__(
        self, path, *, n_tasks: int, n_machines: int, dtype: str = "float64"
    ) -> None:
        if dtype not in SUPPORTED_DTYPES:
            raise MatrixValueError(
                f"store dtype must be one of {SUPPORTED_DTYPES}, got "
                f"{dtype!r}"
            )
        self.n_tasks, self.n_machines = _check_dims(n_tasks, n_machines)
        self.path = Path(path)
        self.dtype = np.dtype(dtype)
        self.n_members = 0
        self._closed = False
        self.path.mkdir(parents=True, exist_ok=True)
        if (self.path / MANIFEST_NAME).exists():
            raise MatrixValueError(
                f"{self.path} already holds a stack store; writers never "
                "overwrite (remove the directory to rebuild)"
            )
        self._fh = open(self.path / DATA_NAME, "wb")

    def append(self, members) -> int:
        """Append one ``(T, M)`` member or a ``(k, T, M)`` chunk.

        Returns the member count written so far.  Data is converted to
        the store dtype and written C-order; values are *not* screened —
        a store may legitimately hold corrupt members that the robust
        pipeline will quarantine when it streams them.  Complex members
        are rejected: the conversion would drop their imaginary parts.
        """
        if self._closed:
            raise MatrixValueError("cannot append to a closed store writer")
        arr = np.asarray(members)
        if np.iscomplexobj(arr):
            raise MatrixValueError("members must be real-valued")
        arr = np.ascontiguousarray(arr, dtype=self.dtype)
        if arr.ndim == 2:
            arr = arr[None, :, :]
        if arr.ndim != 3 or arr.shape[1:] != (self.n_tasks, self.n_machines):
            raise MatrixShapeError(
                f"appended members must be (T, M) or (k, T, M) with "
                f"T={self.n_tasks}, M={self.n_machines}; got shape "
                f"{np.shape(members)}"
            )
        arr.tofile(self._fh)
        self.n_members += arr.shape[0]
        return self.n_members

    def close(self) -> "StackStore":
        """Flush the data file, write the manifest, return the store."""
        if self._closed:
            return StackStore(self.path)
        self._fh.close()
        self._closed = True
        if self.n_members == 0:
            raise MatrixShapeError(
                "cannot finalize an empty stack store (no members appended)"
            )
        manifest = {
            "schema": STORE_SCHEMA,
            "n_members": self.n_members,
            "n_tasks": self.n_tasks,
            "n_machines": self.n_machines,
            "dtype": self.dtype.name,
            "data_file": DATA_NAME,
        }
        (self.path / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return StackStore(self.path)

    def __enter__(self) -> "StackStoreWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            # Abort: close the data handle but write no manifest, so
            # the half-written store can never be opened.
            self._fh.close()
            self._closed = True
            return
        self.close()


class StackStore:
    """A readable on-disk ``(N, T, M)`` stack (see the module docstring).

    Attributes
    ----------
    path : pathlib.Path
        The store directory.
    n_members, n_tasks, n_machines : int
        Stack dimensions (``shape == (n_members, n_tasks, n_machines)``).
    dtype : numpy.dtype
        On-disk element type (members are served as float64 either way).
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._map = None
        manifest_path = self.path / MANIFEST_NAME
        if not manifest_path.is_file():
            raise MatrixValueError(
                f"{self.path} is not a stack store (no {MANIFEST_NAME}); "
                "create one with repro.shard.create_store or "
                "repro.generate.random_ecs_store"
            )
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise MatrixValueError(
                f"{manifest_path}: manifest is not valid JSON ({exc})"
            ) from exc
        if manifest.get("schema") != STORE_SCHEMA:
            raise MatrixValueError(
                f"{manifest_path}: unsupported store schema "
                f"{manifest.get('schema')!r}; expected {STORE_SCHEMA!r}"
            )
        try:
            self.n_members = int(manifest["n_members"])
            self.n_tasks = int(manifest["n_tasks"])
            self.n_machines = int(manifest["n_machines"])
            dtype_name = manifest["dtype"]
            data_file = manifest.get("data_file", DATA_NAME)
        except (KeyError, TypeError, ValueError) as exc:
            raise MatrixValueError(
                f"{manifest_path}: malformed manifest ({exc!r})"
            ) from exc
        if dtype_name not in SUPPORTED_DTYPES:
            raise MatrixValueError(
                f"{manifest_path}: unsupported store dtype {dtype_name!r}"
            )
        if min(self.n_members, self.n_tasks, self.n_machines) < 1:
            raise MatrixValueError(
                f"{manifest_path}: dimensions must be positive, got "
                f"({self.n_members}, {self.n_tasks}, {self.n_machines})"
            )
        self.dtype = np.dtype(dtype_name)
        self.data_path = self.path / data_file
        if not self.data_path.is_file():
            raise MatrixValueError(
                f"{self.path}: manifest names missing data file "
                f"{data_file!r}"
            )
        expected = self.n_members * self.member_nbytes
        actual = self.data_path.stat().st_size
        if actual != expected:
            raise MatrixValueError(
                f"{self.data_path}: data file holds {actual} bytes but the "
                f"manifest declares {self.n_members} members x "
                f"{self.member_nbytes} bytes = {expected} (truncated or "
                "corrupt store)"
            )

    # -- geometry ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n_members, self.n_tasks, self.n_machines)

    @property
    def member_nbytes(self) -> int:
        """On-disk bytes of one ``(T, M)`` member."""
        return self.n_tasks * self.n_machines * self.dtype.itemsize

    @property
    def nbytes(self) -> int:
        """Total on-disk data size."""
        return self.n_members * self.member_nbytes

    def __len__(self) -> int:
        return self.n_members

    def __repr__(self) -> str:
        return (
            f"StackStore({str(self.path)!r}, shape={self.shape}, "
            f"dtype={self.dtype.name})"
        )

    # -- reading -------------------------------------------------------

    def memmap(self) -> np.memmap:
        """The whole stack as a read-only memory map (native dtype)."""
        return np.memmap(
            self.data_path, dtype=self.dtype, mode="r", shape=self.shape
        )

    @contextlib.contextmanager
    def _pass_map(self):
        """A copy of this store whose :meth:`read` calls share one memory
        map, dropped when the block ends.  ``self`` is left as it is, so
        its later reads (and another thread's) map the file afresh and
        see the file as it is then."""
        view = copy.copy(self)
        view._map = self.memmap()
        try:
            yield view
        finally:
            view._map = None

    def read(self, start: int, stop: int) -> np.ndarray:
        """Members ``[start, stop)`` as an owned C-contiguous float64 array.

        This is the chunk-read primitive the shard engine budgets
        around: exactly ``(stop - start) * T * M * 8`` bytes of heap
        are allocated, independent of the store size.
        """
        if not 0 <= start < stop <= self.n_members:
            raise MatrixShapeError(
                f"chunk [{start}, {stop}) is out of bounds for a store of "
                f"{self.n_members} members"
            )
        mm = self.memmap() if self._map is None else self._map
        return np.array(mm[start:stop], dtype=np.float64, order="C")

    def __getitem__(self, index: int) -> np.ndarray:
        """One member as an owned float64 ``(T, M)`` array."""
        if not isinstance(index, (int, np.integer)):
            raise MatrixValueError(
                f"store indices are single member ints (use read(start, "
                f"stop) for chunks), got {index!r}"
            )
        if index < 0:
            index += self.n_members
        return self.read(index, index + 1)[0]


def create_store(
    path, *, n_tasks: int, n_machines: int, dtype: str = "float64"
) -> StackStoreWriter:
    """Open a streaming :class:`StackStoreWriter` at ``path``."""
    return StackStoreWriter(
        path, n_tasks=n_tasks, n_machines=n_machines, dtype=dtype
    )


def open_store(path) -> StackStore:
    """Open an existing store (validates manifest and data size)."""
    return StackStore(path)


def write_store(path, stack, *, dtype: str = "float64") -> StackStore:
    """Write an in-memory ``(N, T, M)`` stack as a store in one call.

    Convenience for tests and small conversions; large ensembles should
    stream through :func:`create_store` instead.

    Examples
    --------
    >>> import numpy as np, tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "demo")
    >>> write_store(path, np.ones((3, 2, 2))).shape
    (3, 2, 2)
    """
    arr = np.asarray(stack)
    if arr.ndim != 3:
        raise MatrixShapeError(
            f"write_store needs an (N, T, M) stack, got shape {arr.shape}"
        )
    with create_store(
        path, n_tasks=arr.shape[1], n_machines=arr.shape[2], dtype=dtype
    ) as writer:
        writer.append(arr)
    return StackStore(path)
