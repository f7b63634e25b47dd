"""The kernel-backend registry (env/kwarg selection).

Backends register under a short name; every kernel entry point accepts
``backend=`` as either a registered name or a
:class:`~repro.backends.KernelBackend` instance.  When the kwarg is
omitted the ``REPRO_BACKEND`` environment variable picks the default,
falling back to the pure-numpy reference backend.

Selection is resolved *per call* — two calls in the same process can
use different backends, and the serve layer threads the request's
``backend`` option straight through, so distinct backends never alias
in the result cache (the option is part of the cache key).
"""

from __future__ import annotations

import os

from .._validation import check_choice
from ..exceptions import MatrixValueError
from .base import KernelBackend, KernelBackendBase

__all__ = [
    "BACKEND_ENV_VAR",
    "register_backend",
    "get_backend",
    "list_backends",
    "resolve_backend",
]

#: Environment variable naming the default backend for calls that do
#: not pass ``backend=`` explicitly.
BACKEND_ENV_VAR = "REPRO_BACKEND"

_REGISTRY: dict[str, KernelBackend] = {}


def register_backend(
    name: str, backend: KernelBackend, *, replace: bool = False
) -> None:
    """Register ``backend`` under ``name``.

    Re-registering an existing name is rejected unless ``replace=True``
    (so a typo cannot silently shadow the reference backend).
    """
    if not isinstance(name, str) or not name:
        raise MatrixValueError(
            f"backend name must be a non-empty string, got {name!r}"
        )
    if not isinstance(backend, KernelBackend):
        raise MatrixValueError(
            f"backend {name!r} does not implement the KernelBackend "
            f"protocol (got {type(backend).__name__})"
        )
    if name in _REGISTRY and not replace:
        raise MatrixValueError(
            f"backend {name!r} is already registered; pass replace=True "
            "to override it"
        )
    _REGISTRY[name] = backend


def list_backends() -> tuple[str, ...]:
    """Names of every registered backend, sorted."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: str) -> KernelBackend:
    """The backend registered under ``name``.

    Unknown names raise :class:`~repro.exceptions.MatrixValueError`
    listing the registered backends (the shared ``check_choice``
    message every mode-selecting kwarg uses).
    """
    check_choice(name, name="backend", choices=list_backends())
    return _REGISTRY[name]


def resolve_backend(backend=None) -> KernelBackend:
    """Resolve the ``backend=`` kwarg every kernel entry point accepts.

    ``None`` consults :data:`BACKEND_ENV_VAR` and falls back to
    ``"numpy"``; a string is looked up in the registry; a
    :class:`KernelBackend` instance is used as-is (unregistered ad-hoc
    backends are allowed at the library level — only the serve layer
    insists on registered names, because the name is the cache key).
    """
    if backend is None:
        backend = os.environ.get(BACKEND_ENV_VAR) or "numpy"
    if isinstance(backend, str):
        return get_backend(backend)
    # Nominal checks first: the runtime Protocol check walks every
    # protocol member, ten times the cost.  A registered instance passed
    # it at registration, and the base class supplies every member but
    # the core.
    if (
        any(backend is known for known in _REGISTRY.values())
        or (
            isinstance(backend, KernelBackendBase)
            and hasattr(backend, "sinkhorn_core_batched")
        )
        or isinstance(backend, KernelBackend)
    ):
        return backend
    raise MatrixValueError(
        "backend must be a registered backend name or a KernelBackend "
        f"instance, got {backend!r}"
    )
