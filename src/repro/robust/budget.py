"""Wall-clock and retry budgets for graceful degradation.

A production characterization service must bound *every* failure mode
in time: a non-convergent Sinkhorn slice must stop at its deadline
instead of burning the full iteration budget, a straggling worker must
be abandoned at its timeout, and the repair ladder must stop escalating
after a fixed number of attempts.  :class:`Budget` bundles those knobs;
:class:`Deadline` is the started clock the kernels check against.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from ..exceptions import MatrixValueError

__all__ = ["Budget", "Deadline", "DEFAULT_BUDGET"]


class Deadline:
    """A started wall-clock deadline (monotonic; ``None`` = unbounded).

    Examples
    --------
    >>> d = Deadline(None)
    >>> d.expired(), d.remaining() is None
    (False, True)
    >>> Deadline(0.0).expired()
    True
    """

    __slots__ = ("_end",)

    def __init__(self, seconds: float | None) -> None:
        if seconds is not None and seconds < 0:
            raise MatrixValueError(
                f"deadline seconds must be >= 0 or None, got {seconds!r}"
            )
        self._end = None if seconds is None else time.monotonic() + seconds

    def remaining(self) -> float | None:
        """Seconds left (never negative), or None when unbounded."""
        if self._end is None:
            return None
        return max(0.0, self._end - time.monotonic())

    def expired(self) -> bool:
        return self._end is not None and time.monotonic() >= self._end

    def clamp(self, seconds: float | None) -> float | None:
        """The tighter of ``seconds`` and this deadline's remainder."""
        left = self.remaining()
        if left is None:
            return seconds
        if seconds is None:
            return left
        return min(seconds, left)


@dataclass(frozen=True)
class Budget:
    """Degradation budgets for one robust ensemble run.

    Attributes
    ----------
    deadline_s : float or None
        Wall-clock budget for the whole call.  The batched Sinkhorn
        kernel checks it every iteration and freezes still-active
        slices as non-converged when it expires; the repair ladder
        stops escalating once it is spent.
    member_timeout_s : float or None
        Per-task wall-clock budget of the process-pool scheduler: one
        member on the scalar fallback path, one shard in a pooled
        ``characterize_store`` run.  The clock starts when a worker
        takes the task, not while it is queued.  Must be positive
        and finite.
        Requires a process pool — the robust pipeline raises ``n_jobs``
        to 2 when a timeout is set on a serial run, because an
        in-process worker cannot be preempted.
    max_attempts : int
        Repair-ladder retries per quarantined member.
    tol_backoff : float
        Exponential residual-tolerance relaxation per attempt: attempt
        ``k`` retries a non-convergent member at ``tol * backoff**k``.
    iteration_growth : float
        Iteration-budget growth per attempt (attempt ``k`` runs
        ``max_iterations * growth**k`` Sinkhorn iterations).

    Examples
    --------
    >>> Budget(max_attempts=2).attempt_tolerances(1e-8)
    [1e-07, 1e-06]
    """

    deadline_s: float | None = None
    member_timeout_s: float | None = None
    max_attempts: int = 3
    tol_backoff: float = 10.0
    iteration_growth: float = 4.0

    def __post_init__(self) -> None:
        if self.deadline_s is not None and (
            not isinstance(self.deadline_s, (int, float)) or self.deadline_s < 0
        ):
            raise MatrixValueError(
                f"deadline_s must be a non-negative number or None, got "
                f"{self.deadline_s!r}"
            )
        # A zero or NaN timeout would time out (or speculate) every task;
        # an infinite one is no timeout at all.
        timeout = self.member_timeout_s
        if timeout is not None and (
            not isinstance(timeout, (int, float)) or not 0 < timeout < math.inf
        ):
            raise MatrixValueError(
                f"member_timeout_s must be a positive finite number or None, "
                f"got {timeout!r}"
            )
        if not isinstance(self.max_attempts, int) or self.max_attempts < 1:
            raise MatrixValueError(
                f"max_attempts must be a positive int, got "
                f"{self.max_attempts!r}"
            )
        if self.tol_backoff < 1.0:
            raise MatrixValueError(
                f"tol_backoff must be >= 1, got {self.tol_backoff!r}"
            )
        if self.iteration_growth < 1.0:
            raise MatrixValueError(
                f"iteration_growth must be >= 1, got "
                f"{self.iteration_growth!r}"
            )

    def start(self) -> Deadline:
        """Start the overall wall clock."""
        return Deadline(self.deadline_s)

    def attempt_tolerances(self, tol: float) -> list[float]:
        """The relaxed tolerance of each repair attempt, in order."""
        return [
            tol * self.tol_backoff**k
            for k in range(1, self.max_attempts + 1)
        ]

    def attempt_iterations(self, max_iterations: int) -> list[int]:
        """The iteration budget of each repair attempt, in order."""
        return [
            max(1, int(max_iterations * self.iteration_growth**k))
            for k in range(1, self.max_attempts + 1)
        ]


#: The default budgets: unbounded wall clock, three repair attempts.
DEFAULT_BUDGET = Budget()
