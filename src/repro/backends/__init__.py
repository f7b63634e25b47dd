"""Pluggable kernel backends (``docs/BACKENDS.md``).

One registry fronts interchangeable implementations of the library's
hot loops — batched Sinkhorn, singular values, and the fused
normalize-and-measure pass.  Every kernel entry point
(:func:`repro.normalize.sinkhorn_knopp`, :func:`repro.standardize`,
the batched variants, :func:`repro.characterize` /
:func:`repro.batch.characterize_ensemble`, the robust pipeline, the
CLI ``--backend`` flag and the serve request option) accepts the same
``backend=`` argument and resolves it here.

Built-in backends:

* ``"numpy"`` — the pure-numpy reference (always registered; the
  differential harness defines correctness against it);
* ``"numba"`` — JIT-compiled loops, registered only when numba is
  importable.

>>> from repro.backends import list_backends
>>> "numpy" in list_backends()
True
"""

from __future__ import annotations

import importlib.util

from .base import KernelBackend, KernelBackendBase
from .numpy_backend import NumpyBackend
from .registry import (
    BACKEND_ENV_VAR,
    get_backend,
    list_backends,
    register_backend,
    resolve_backend,
)

__all__ = [
    "BACKEND_ENV_VAR",
    "KernelBackend",
    "KernelBackendBase",
    "NumpyBackend",
    "get_backend",
    "list_backends",
    "register_backend",
    "resolve_backend",
]

register_backend("numpy", NumpyBackend(), replace=True)

if importlib.util.find_spec("numba") is not None:  # pragma: no cover
    try:
        from .numba_backend import NumbaBackend  # noqa: F401
    except ImportError:
        pass
    else:
        __all__.append("NumbaBackend")
        register_backend("numba", NumbaBackend(), replace=True)
