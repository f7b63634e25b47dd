"""Pluggable kernel backends (``docs/BACKENDS.md``).

One registry fronts interchangeable implementations of the library's
hot loops — batched Sinkhorn, singular values, and the fused
normalize-and-measure pass.  Every kernel entry point
(:func:`repro.normalize.sinkhorn_knopp`, :func:`repro.standardize`,
the batched variants, :func:`repro.characterize` /
:func:`repro.batch.characterize_ensemble`, the robust pipeline, the
CLI ``--backend`` flag and the serve request option) accepts the same
``backend=`` argument and resolves it here.

The one built-in backend is ``"numpy"``, the pure-numpy reference that
the conformance table (``tests/test_conformance.py``) checks every path
against; a custom backend registers beside it.

>>> from repro.backends import list_backends
>>> "numpy" in list_backends()
True
"""

from __future__ import annotations

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
