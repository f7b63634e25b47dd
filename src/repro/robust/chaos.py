"""Seedable fault injection for ensemble-pipeline drills.

Chaos engineering for the characterization service: a
:class:`FaultPlan` deterministically corrupts chosen members of an
``(N, T, M)`` ensemble — NaN entries, zeroed rows/columns, decomposable
zero patterns (paper eq. 10), forced Sinkhorn non-convergence — and can
stall the worker processing a member to simulate a straggler.  The
same plan drives both the chaos test suite (``tests/robust/``) and the
operator drill flag ``repro-hc characterize --inject-faults``.

Every fault kind maps to the :mod:`repro.robust.taxonomy` category the
pipeline is expected to report, so a drill can assert the quarantine
report against the plan's ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import GenerationError, MatrixValueError

__all__ = ["FAULT_KINDS", "KIND_CATEGORY", "FaultSpec", "FaultPlan"]

#: Injectable fault kinds.
FAULT_KINDS = (
    "nan",
    "zero-row",
    "zero-col",
    "decomposable",
    "non-convergent",
    "stall",
)

#: Taxonomy category each kind is expected to produce.  ``decomposable``
#: only quarantines under ``tma_fallback="raise"`` (the limit/column
#: fallbacks characterize such members legitimately); ``stall`` only
#: under a per-member timeout.
KIND_CATEGORY = {
    "nan": "nan",
    "zero-row": "empty-line",
    "zero-col": "empty-line",
    "decomposable": "decomposable",
    "non-convergent": "non-convergent",
    "stall": "timeout",
}

#: Corner value that forces Sinkhorn past any practical iteration
#: budget: the convergence rate is ``(1 - 2/sqrt(severity))**2`` per
#: iteration, so 1e14 needs ~1e7 iterations to reach 1e-8.
DEFAULT_SEVERITY = 1e14

#: Default injected straggler stall, in seconds.
DEFAULT_STALL_S = 1.0


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: a kind applied to one ensemble member.

    ``severity`` parameterizes ``non-convergent`` (the corner dynamic
    range; smaller values converge eventually, so a drill can choose
    between "slow but repairable" and "hopeless").  ``stall_s`` is the
    injected sleep for ``stall``.
    """

    kind: str
    member: int
    severity: float = DEFAULT_SEVERITY
    stall_s: float = DEFAULT_STALL_S

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise MatrixValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.member < 0:
            raise MatrixValueError(
                f"fault member index must be >= 0, got {self.member}"
            )

    @property
    def category(self) -> str:
        """The taxonomy category this fault should produce."""
        return KIND_CATEGORY[self.kind]


def _parse_spec(spec: str) -> dict[str, int]:
    """Parse ``"nan=2,stall=1"`` into ``{"nan": 2, "stall": 1}``."""
    counts: dict[str, int] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        kind, _, count = part.partition("=")
        kind = kind.strip()
        if kind not in FAULT_KINDS:
            raise MatrixValueError(
                f"unknown fault kind {kind!r} in spec {spec!r}; expected "
                f"one of {FAULT_KINDS}"
            )
        try:
            n = int(count.strip()) if count.strip() else 1
        except ValueError:
            raise MatrixValueError(
                f"fault count for {kind!r} must be an int, got {count!r}"
            ) from None
        if n < 1:
            raise MatrixValueError(
                f"fault count for {kind!r} must be >= 1, got {n}"
            )
        counts[kind] = counts.get(kind, 0) + n
    if not counts:
        raise MatrixValueError(f"empty fault spec {spec!r}")
    return counts


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of faults to inject into one ensemble run.

    Build one with :meth:`random` (seeded member assignment) or from
    explicit :class:`FaultSpec` records.  Data faults are applied by
    :meth:`apply` / :meth:`apply_member`; the ensemble pipeline reads
    ``stall`` faults through :meth:`stall_seconds` (a worker sleep under
    the robust policies, one up-front sleep under ``policy="raise"``).

    Examples
    --------
    >>> plan = FaultPlan.random(8, faults="nan=1,zero-row=1", seed=0)
    >>> sorted(f.kind for f in plan.faults)
    ['nan', 'zero-row']
    >>> plan == FaultPlan.random(8, faults="nan=1,zero-row=1", seed=0)
    True
    """

    faults: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        members = [f.member for f in self.faults]
        if len(set(members)) != len(members):
            raise MatrixValueError(
                "fault plan assigns multiple faults to one member; use "
                "distinct members so quarantine categories stay "
                f"unambiguous (got members {sorted(members)})"
            )

    @classmethod
    def random(
        cls,
        n_members: int,
        *,
        faults: str | dict[str, int],
        seed=0,
        severity: float = DEFAULT_SEVERITY,
        stall_s: float = DEFAULT_STALL_S,
    ) -> "FaultPlan":
        """Assign the requested fault counts to random distinct members.

        ``faults`` is either a ``{kind: count}`` mapping or a compact
        spec string like ``"nan=2,stall=1"`` (the CLI format).  The
        member assignment is a seeded permutation, so the same seed
        always drills the same members.
        """
        counts = _parse_spec(faults) if isinstance(faults, str) else dict(faults)
        for kind in counts:
            if kind not in FAULT_KINDS:
                raise MatrixValueError(
                    f"unknown fault kind {kind!r}; expected one of "
                    f"{FAULT_KINDS}"
                )
        total = sum(counts.values())
        if total > n_members:
            raise MatrixValueError(
                f"cannot inject {total} faults into {n_members} members"
            )
        rng = np.random.default_rng(seed)
        chosen = rng.permutation(n_members)[:total]
        specs = []
        pos = 0
        for kind in sorted(counts):
            for _ in range(counts[kind]):
                specs.append(
                    FaultSpec(
                        kind=kind,
                        member=int(chosen[pos]),
                        severity=severity,
                        stall_s=stall_s,
                    )
                )
                pos += 1
        return cls(faults=tuple(specs))

    @property
    def members(self) -> tuple[int, ...]:
        """All targeted member indices, ascending."""
        return tuple(sorted(f.member for f in self.faults))

    @property
    def stalled(self) -> tuple[int, ...]:
        """Members targeted by ``stall`` faults, ascending."""
        return tuple(
            sorted(f.member for f in self.faults if f.kind == "stall")
        )

    def spec_for(self, index: int) -> FaultSpec | None:
        """The fault targeting member ``index``, or None."""
        for f in self.faults:
            if f.member == index:
                return f
        return None

    def stall_seconds(self, index: int) -> float:
        """Injected worker stall for member ``index`` (0.0 = none)."""
        spec = self.spec_for(index)
        return spec.stall_s if spec is not None and spec.kind == "stall" else 0.0

    def expected_categories(self) -> dict[int, str]:
        """Ground truth: member index → taxonomy category."""
        return {f.member: f.category for f in self.faults}

    def apply_member(self, index: int, matrix) -> np.ndarray:
        """A (possibly corrupted) copy of member ``index``'s matrix."""
        arr = np.array(matrix, dtype=np.float64, copy=True)
        spec = self.spec_for(index)
        if spec is None or spec.kind == "stall":
            return arr
        if arr.ndim != 2:
            raise MatrixValueError(
                f"data faults need a 2-D member, got shape {arr.shape}"
            )
        n_rows, n_cols = arr.shape
        if spec.kind == "nan":
            arr[0, 0] = np.nan
        elif spec.kind == "zero-row":
            arr[index % n_rows, :] = 0.0
        elif spec.kind == "zero-col":
            arr[:, index % n_cols] = 0.0
        elif spec.kind == "non-convergent":
            arr[:, :] = 1.0
            arr[-1, -1] = spec.severity
        elif spec.kind == "decomposable":
            arr = self._decomposable_member(arr)
        return arr

    @staticmethod
    def _decomposable_member(arr: np.ndarray) -> np.ndarray:
        """Corrupt a slice into a feasible-but-decomposable pattern.

        Recipe (square slices only): make every entry positive, then
        zero row 0 except its diagonal entry.  Equal margins then force
        the rest of column 0 to zero — those entries become the
        Marshall–Olkin blocking set, so the pattern has support but not
        total support and no standard form exists (paper Section VI).
        """
        n_rows, n_cols = arr.shape
        if n_rows != n_cols or n_rows < 2:
            raise GenerationError(
                "decomposable faults need a square slice with T = M >= 2 "
                f"(got {n_rows}x{n_cols}); pick another fault kind for "
                "this ensemble shape"
            )
        out = np.where(arr > 0, arr, 1.0)
        out[0, 1:] = 0.0
        from ..structure import normalizability_report

        report = normalizability_report(out)
        if not report.feasible or not report.blocking_edges:
            raise GenerationError(
                "decomposable fault construction failed to produce a "
                "feasible-but-blocked pattern (internal invariant)"
            )
        return out

    def apply(self, stack) -> np.ndarray:
        """A corrupted copy of an ``(N, T, M)`` stack.

        Only data faults touch the stack; ``stall`` members pass
        through unchanged (their fault manifests in the worker).
        """
        arr = np.array(stack, dtype=np.float64, copy=True)
        if arr.ndim != 3:
            raise MatrixValueError(
                f"fault plans apply to (N, T, M) stacks, got shape "
                f"{arr.shape}"
            )
        _check_members(self, arr.shape[0])
        return _inject(self, arr)

    def summary(self) -> str:
        """One line per injected fault, member order."""
        if not self.faults:
            return "fault plan: empty"
        lines = ["fault plan:"]
        for f in sorted(self.faults, key=lambda s: s.member):
            extra = ""
            if f.kind == "non-convergent":
                extra = f" (severity={f.severity:g})"
            elif f.kind == "stall":
                extra = f" (stall={f.stall_s:g}s)"
            lines.append(
                f"  member {f.member}: {f.kind} -> expect "
                f"{f.category}{extra}"
            )
        return "\n".join(lines)


def _check_members(plan, n: int) -> None:
    """Reject a plan (None passes) naming a member past the end of an
    ``n``-member ensemble."""
    for spec in plan.faults if plan is not None else ():
        if spec.member >= n:
            raise MatrixValueError(
                f"fault targets member {spec.member} but the ensemble has "
                f"only {n} members"
            )


def _inject(plan, members, offset: int = 0):
    """``members`` (a stack, or a list of coerced members), which holds
    members ``[offset, offset + len(members))`` of the run, with
    ``plan``'s data faults (None: none) applied in place at run
    indices."""
    for spec in plan.faults if plan is not None else ():
        i = spec.member - offset
        if spec.kind == "stall" or not 0 <= i < len(members):
            continue
        if isinstance(members[i], np.ndarray) and members[i].ndim == 2:
            members[i] = plan.apply_member(spec.member, members[i])
    return members
