"""Fault-tolerant ensemble characterization (quarantine, repair, chaos).

A production characterization service meets ensemble members that are
corrupt (NaN/inf profiling data), structurally hopeless (Section-VI
zero patterns), numerically stubborn (non-convergent Sinkhorn) or
simply slow (straggling workers).  This package makes every such
failure a *per-member* event instead of a whole-call crash:

* :mod:`~repro.robust.taxonomy` — the stable fault vocabulary
  (:data:`FAULT_CATEGORIES`), the stack-wide pre-screen
  (:func:`classify_stack`), per-member :class:`MemberFault` records
  and the :class:`QuarantineReport` the robust policies attach to a
  result's ``report``;
* :mod:`~repro.robust.budget` — wall-clock deadlines, per-member
  worker timeouts and repair-attempt budgets (:class:`Budget`);
* :mod:`~repro.robust.repair` — the retry-with-repair ladder
  (:func:`repair_member`, :func:`repaired_matrix`);
* :mod:`~repro.robust.chaos` — seedable fault injection
  (:class:`FaultPlan`) for drills and the chaos test suite.

The policies themselves are a step of the one ensemble pipeline: the
``policy=`` knob of :func:`repro.batch.characterize_ensemble` and
:func:`repro.batch.standardize_batched`.
"""

from .budget import DEFAULT_BUDGET, Budget, Deadline
from .chaos import FAULT_KINDS, KIND_CATEGORY, FaultPlan, FaultSpec
from .repair import MemberRecovery, repair_member, repaired_matrix
from .taxonomy import (
    FAULT_CATEGORIES,
    UNREPAIRABLE_CATEGORIES,
    MemberFault,
    QuarantineReport,
    classify_exception,
    classify_matrix,
    classify_stack,
)

__all__ = [
    "Budget",
    "Deadline",
    "DEFAULT_BUDGET",
    "FAULT_CATEGORIES",
    "FAULT_KINDS",
    "KIND_CATEGORY",
    "UNREPAIRABLE_CATEGORIES",
    "FaultPlan",
    "FaultSpec",
    "MemberFault",
    "MemberRecovery",
    "QuarantineReport",
    "classify_exception",
    "classify_matrix",
    "classify_stack",
    "repair_member",
    "repaired_matrix",
]
