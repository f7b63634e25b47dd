"""The unified result-object protocol for scaling/normalization outcomes.

Three result classes report the outcome of an alternating-scaling run:

* :class:`~repro.normalize.NormalizationResult` — one matrix, one
  Sinkhorn run (``sinkhorn_knopp`` / ``scale_to_margins``);
* :class:`~repro.normalize.StandardFormResult` — one matrix with the
  Theorem-2 targets (``standardize``), wrapping a NormalizationResult;
* :class:`~repro.batch.BatchNormalizationResult` — an ``(N, T, M)``
  stack (``sinkhorn_knopp_batched`` / ``standardize_batched``), with
  per-slice diagnostic arrays.

Every run goes through one Sinkhorn core, which sees a single matrix
as a stack of one, so every run first produces a
``BatchNormalizationResult``; the single-matrix entry points return
its ``.slice(0)``.  ``NormalizationResult`` stays the public
per-matrix type.

Historically they drifted apart (``matrices`` vs ``matrix``,
``residual_histories`` vs ``residual_history``); all three now expose
the same seven core fields, captured by the :class:`ScalingOutcome`
protocol:

=====================  ====================================================
field                  meaning
=====================  ====================================================
``matrix``             the scaled matrix (or the whole scaled stack)
``row_scale``          diagonal of ``D1`` ((T,) vector or (N, T) array)
``col_scale``          diagonal of ``D2`` ((M,) vector or (N, M) array)
``iterations``         full column+row iterations run (int or (N,) array)
``converged``          tolerance reached (bool or (N,) bool array)
``residual``           final max row/column-sum error (float or (N,) array)
``residual_history``   residual after each iteration, entry 0 = the input
=====================  ====================================================

The scaling vectors are what make **warm starts** possible: any
ScalingOutcome can be passed as ``warm_start=`` to a later Sinkhorn
run on a perturbed copy of the same environment, which re-applies
``D1``/``D2`` before iterating (see ``docs/BACKENDS.md``).

Code written against these seven names works on any of the three
results.  The pre-protocol batch spellings (``matrices``,
``residual_histories``) went through a DeprecationWarning cycle and
have been **removed**; accessing them raises :class:`AttributeError`
naming the replacement field.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

__all__ = ["ScalingOutcome"]


@runtime_checkable
class ScalingOutcome(Protocol):
    """Structural protocol every scaling result satisfies.

    ``isinstance(result, ScalingOutcome)`` checks that the seven core
    fields are present (it is a :func:`typing.runtime_checkable`
    protocol); the field *types* are scalars for single-matrix results
    and per-slice arrays for batch results.

    Examples
    --------
    >>> from repro.normalize import ScalingOutcome, sinkhorn_knopp
    >>> result = sinkhorn_knopp([[1.0, 2.0], [3.0, 4.0]])
    >>> isinstance(result, ScalingOutcome)
    True
    """

    @property
    def matrix(self) -> Any: ...

    @property
    def row_scale(self) -> Any: ...

    @property
    def col_scale(self) -> Any: ...

    @property
    def iterations(self) -> Any: ...

    @property
    def converged(self) -> Any: ...

    @property
    def residual(self) -> Any: ...

    @property
    def residual_history(self) -> Any: ...


def _removed_alias(old: str, new: str) -> property:
    """A property that raises for a field name removed after its
    deprecation cycle, pointing at the ScalingOutcome replacement.

    A plain missing attribute would raise too, but with no hint; this
    keeps the rename discoverable for code migrating from the
    pre-protocol spellings."""

    def getter(self):
        raise AttributeError(
            f"{type(self).__name__}.{old} was removed; use .{new} "
            "(the ScalingOutcome field name)"
        )

    getter.__name__ = old
    getter.__doc__ = f"Removed: use :attr:`{new}`."
    return property(getter)
