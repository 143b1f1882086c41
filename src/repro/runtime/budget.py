"""Resource budgets and deadlines for the reliability engines.

The paper's central tension — exact reliability is FP^#P-hard (Theorem
4.2) while existential queries admit an FPTRAS (Theorem 5.4) — means a
production system must be able to *stop*: refuse a hopeless exact run,
abandon a computation that blew its wall-clock allowance, and degrade to
a randomized estimator.  This module supplies the stopping machinery:

* :class:`Deadline` — a wall-clock cut-off from an injectable monotonic
  clock, raising :class:`~repro.util.errors.BudgetExceeded` on expiry;
* :class:`Budget` — a deadline plus caps on worlds enumerated, clauses
  grounded, and samples drawn, consumed at **cooperative checkpoints**;
  :meth:`Budget.child` makes the budget of one attempt (a fair-share
  slice of the fallback walk, a racer, a serve worker's try), with its
  own deadline, :class:`CancelToken` and scheduler hook, and
  :meth:`Budget.close` charges what it consumed back to its parent;
* a module-level *active budget*, mirroring the :mod:`repro.obs`
  recorder pattern: engines call :func:`checkpoint` inside their hot
  loops, which is a near-no-op under the default (uncapped) budget, and
  callers scope a real budget with :func:`apply`.

Engines never hold budget references; they always consult the active
one, so a budget installed around any entry point — the fallback
executor, the CLI, or a plain library call — reaches every cooperative
loop underneath it.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from repro.util.errors import BudgetExceeded, ResourceError

#: Default cap on the *atom count* of a world enumeration: direct calls
#: to the Theorem 4.2 engine refuse more than ``2 ** DEFAULT_MAX_ATOMS``
#: worlds unless a budget explicitly allows them (see
#: :func:`repro.runtime.preflight.preflight_worlds`).
DEFAULT_MAX_ATOMS = 20

Clock = Callable[[], float]


class Deadline:
    """A wall-clock cut-off: ``seconds`` from the moment it is started.

    The clock is injectable (any zero-argument callable returning
    monotonically nondecreasing seconds), so tests can drive deadlines
    deterministically without sleeping.  A deadline starts lazily on
    the first :meth:`remaining` / :meth:`expired` / :meth:`check` call,
    or eagerly via :meth:`start`.
    """

    __slots__ = ("seconds", "_clock", "_started")

    def __init__(self, seconds: float, clock: Clock = time.monotonic):
        if not seconds > 0:
            raise ResourceError(f"deadline must be positive, got {seconds!r}")
        self.seconds = float(seconds)
        self._clock = clock
        self._started: Optional[float] = None

    def start(self) -> "Deadline":
        """Start (or restart) the countdown; returns ``self``."""
        self._started = self._clock()
        return self

    def elapsed(self) -> float:
        """Seconds since the deadline started (starts it if needed)."""
        if self._started is None:
            self.start()
        return self._clock() - self._started

    def remaining(self) -> float:
        """Seconds left before expiry; negative once expired."""
        return self.seconds - self.elapsed()

    def expired(self) -> bool:
        return self.remaining() < 0

    def check(self) -> None:
        """Raise :class:`BudgetExceeded` if the deadline has passed."""
        elapsed = self.elapsed()
        if elapsed > self.seconds:
            raise BudgetExceeded(
                f"deadline of {self.seconds:g}s exceeded "
                f"after {elapsed:.3f}s"
            )

    def __repr__(self) -> str:
        state = "unstarted" if self._started is None else f"{self.remaining():.3f}s left"
        return f"Deadline({self.seconds:g}s, {state})"


class CancelToken:
    """A cross-thread cancellation flag checked at budget checkpoints.

    The racing executor hands every speculative engine attempt a token;
    cancelling it makes the racer's next cooperative checkpoint raise
    :class:`BudgetExceeded`, so losers unwind through exactly the same
    path as a blown deadline — no new control flow inside the engines.
    """

    __slots__ = ("_event", "reason")

    def __init__(self):
        self._event = threading.Event()
        self.reason = ""

    def cancel(self, reason: str = "") -> None:
        """Set the flag (idempotent); the first reason given sticks."""
        if reason and not self.reason:
            self.reason = reason
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def check(self) -> None:
        """Raise :class:`BudgetExceeded` if the token was cancelled."""
        if self._event.is_set():
            raise BudgetExceeded(
                self.reason or "attempt cancelled by the racing executor"
            )


def _in_order(calls) -> Optional[Callable[[], None]]:
    """One callable making ``calls`` in order (``None`` when empty).

    Nested pairs rather than a loop: checkpoints make these calls once
    per unit of work, and a child rarely has more than two.
    """
    calls = tuple(calls)
    if len(calls) <= 1:
        return calls[0] if calls else None
    first, rest = calls[0], _in_order(calls[1:])

    def run() -> None:
        first()
        rest()

    return run


def _check_cap(name: str, value: Optional[int]) -> Optional[int]:
    if value is None:
        return None
    value = int(value)
    if value <= 0:
        raise ResourceError(f"{name} must be positive, got {value}")
    return value


class Budget:
    """Resource limits consumed cooperatively by the engines.

    Parameters (all optional; ``None`` disables the corresponding cap):

    ``deadline``
        wall-clock seconds for everything run under this budget;
    ``max_worlds``
        total worlds the exact enumeration engines may evaluate;
    ``max_ground_clauses``
        total clauses Theorem 5.4's grounding may instantiate;
    ``max_samples``
        total samples the randomized estimators may draw;
    ``max_atoms``
        preflight cap on the atom count of a world enumeration
        (``2 ** max_atoms`` predicted worlds); defaults to
        :data:`DEFAULT_MAX_ATOMS` so that even budget-less direct calls
        fail fast on hopeless enumerations.  Pass ``None`` to disable.

    Engines report work through :meth:`consume` (usually via the
    module-level :func:`checkpoint`); crossing any cap raises
    :class:`BudgetExceeded`.  Counters accumulate across engines run
    under the same budget — a fallback chain shares one allowance.
    Budgets are single-use in spirit: call :meth:`reset` to reuse one.

    One attempt — a fair-share slice of the walk, a racer, a serve
    worker's try — runs under a :meth:`child`, which :meth:`close`
    charges back to this budget.
    """

    __slots__ = (
        "deadline_seconds",
        "max_worlds",
        "max_ground_clauses",
        "max_samples",
        "max_atoms",
        "_clock",
        "_deadline",
        "_deadlines",
        "worlds",
        "ground_clauses",
        "samples",
        "_limited",
        "_calls",
        "_guard",
        "_parent",
        "_base",
    )

    def __init__(
        self,
        deadline: Optional[float] = None,
        max_worlds: Optional[int] = None,
        max_ground_clauses: Optional[int] = None,
        max_samples: Optional[int] = None,
        max_atoms: Optional[int] = DEFAULT_MAX_ATOMS,
        clock: Clock = time.monotonic,
    ):
        if deadline is not None and not deadline > 0:
            raise ResourceError(f"deadline must be positive, got {deadline!r}")
        self.deadline_seconds = deadline
        self.max_worlds = _check_cap("max_worlds", max_worlds)
        self.max_ground_clauses = _check_cap(
            "max_ground_clauses", max_ground_clauses
        )
        self.max_samples = _check_cap("max_samples", max_samples)
        self.max_atoms = _check_cap("max_atoms", max_atoms)
        self._clock = clock
        # This budget's own deadline, and every deadline its checkpoints
        # enforce: its ancestors' (outermost first), then its own.
        self._deadline: Optional[Deadline] = (
            Deadline(deadline, clock) if deadline is not None else None
        )
        self._deadlines = (self._deadline,) if deadline is not None else ()
        self.worlds = 0
        self.ground_clauses = 0
        self.samples = 0
        # Checkpoints are a no-op unless some *running* cap is set
        # (max_atoms is preflight-only and does not slow the hot loops).
        self._limited = (
            self._deadline is not None
            or self.max_worlds is not None
            or self.max_ground_clauses is not None
            or self.max_samples is not None
        )
        # A child's scheduler hook and cancel-token check, and what its
        # checkpoints run before the caps: those, then its ancestors'
        # deadlines.  Its own deadline is checked after the caps, so a
        # budget made by the constructor keeps the short path.
        self._calls: tuple = ()
        self._guard: Optional[Callable[[], None]] = None
        self._parent: Optional[Budget] = None
        self._base = (0, 0, 0)

    # ------------------------------------------------------------------ #

    def child(
        self,
        seconds: Optional[float] = None,
        token: Optional[CancelToken] = None,
        reserved_samples: int = 0,
        hook: Optional[Callable[[], None]] = None,
    ) -> "Budget":
        """A budget for one attempt, charged back to this one on :meth:`close`.

        The child starts from a copy of this budget's caps and ledgers,
        so its caps bound this budget's *total* consumption; its sample
        ledger additionally starts ``reserved_samples`` in (the draws
        forecast for racers launched before it).  Its checkpoints run
        ``hook`` first — the virtual-clock scheduler's yield point —
        then check ``token``, every ancestor's deadline, the caps, and
        its own ``seconds`` deadline.  Given neither ``hook`` nor
        ``token``, the child inherits its parent's.
        The ledgers are the child's own until :meth:`close`, so
        concurrent children never share a counter.
        """
        kid = Budget(
            seconds, self.max_worlds, self.max_ground_clauses,
            self.max_samples, self.max_atoms, self._clock,
        )
        if seconds is None:
            kid.deadline_seconds = self.deadline_seconds
        kid._deadlines = self._deadlines + kid._deadlines
        kid._limited = True  # always counts: close() charges the parent
        if hook is None and token is None:
            kid._calls = self._calls
        else:
            kid._calls = tuple(
                call
                for call in (hook, None if token is None else token.check)
                if call is not None
            )
        kid._guard = _in_order(
            kid._calls + tuple(deadline.check for deadline in self._deadlines)
        )
        kid._parent = self
        kid.worlds = self.worlds
        kid.ground_clauses = self.ground_clauses
        kid.samples = self.samples + max(0, int(reserved_samples))
        kid._base = (kid.worlds, kid.ground_clauses, kid.samples)
        return kid

    def close(self) -> None:
        """Charge a child's consumption to its parent, once.

        The one place an attempt's work is added to its request's
        ledgers: no enforcement (the attempt is over), and never into
        :data:`DEFAULT_BUDGET`, which every thread shares.  A no-op on
        a budget made by the constructor.
        """
        parent, self._parent = self._parent, None
        if parent is None or parent is DEFAULT_BUDGET:
            return
        worlds, clauses, samples = self._base
        parent.worlds += self.worlds - worlds
        parent.ground_clauses += self.ground_clauses - clauses
        parent.samples += self.samples - samples

    def start(self) -> "Budget":
        """Start this budget's own deadline countdown (no-op without one)."""
        if self._deadline is not None:
            self._deadline.start()
        return self

    def reset(self) -> "Budget":
        """Rewind the consumption counters and restart the deadline."""
        self.worlds, self.ground_clauses, self.samples = self._base
        return self.start()

    @property
    def deadline(self) -> Optional[Deadline]:
        """The innermost live :class:`Deadline`, or ``None``."""
        return self._deadlines[-1] if self._deadlines else None

    def remaining_time(self) -> Optional[float]:
        """Seconds left on the tightest deadline (``None`` when unconstrained)."""
        if not self._deadlines:
            return None
        return min(deadline.remaining() for deadline in self._deadlines)

    def world_limit(self) -> Optional[int]:
        """The effective preflight cap on predicted world counts.

        ``max_worlds`` when set, else ``2 ** max_atoms``, else ``None``.
        """
        if self.max_worlds is not None:
            return self.max_worlds
        if self.max_atoms is not None:
            return 1 << self.max_atoms
        return None

    def remaining_samples(self) -> Optional[int]:
        """Samples left under ``max_samples`` (``None`` when uncapped)."""
        if self.max_samples is None:
            return None
        return max(0, self.max_samples - self.samples)

    # ------------------------------------------------------------------ #

    def consume(self, worlds: int = 0, samples: int = 0, clauses: int = 0) -> None:
        """Record work done and enforce every cap (cooperative checkpoint).

        Engines call this once per unit of work (world evaluated, sample
        drawn, clause grounded) or with ``0/0/0`` for a pure deadline
        check.  Raises :class:`BudgetExceeded` when any cap is crossed.
        """
        if not self._limited:
            return
        if self._guard is not None:
            self._guard()
        if worlds:
            self.worlds += worlds
            if self.max_worlds is not None and self.worlds > self.max_worlds:
                raise BudgetExceeded(
                    f"world budget exhausted: {self.worlds} worlds "
                    f"evaluated, cap is {self.max_worlds}"
                )
        if samples:
            self.samples += samples
            if self.max_samples is not None and self.samples > self.max_samples:
                raise BudgetExceeded(
                    f"sample budget exhausted: {self.samples} samples "
                    f"drawn, cap is {self.max_samples}"
                )
        if clauses:
            self.ground_clauses += clauses
            if (
                self.max_ground_clauses is not None
                and self.ground_clauses > self.max_ground_clauses
            ):
                raise BudgetExceeded(
                    f"grounding budget exhausted: {self.ground_clauses} "
                    f"clauses instantiated, cap is {self.max_ground_clauses}"
                )
        if self._deadline is not None:
            self._deadline.check()

    def __repr__(self) -> str:
        caps = []
        if self.deadline_seconds is not None:
            caps.append(f"deadline={self.deadline_seconds:g}s")
        for name in ("max_worlds", "max_ground_clauses", "max_samples", "max_atoms"):
            value = getattr(self, name)
            if value is not None:
                caps.append(f"{name}={value}")
        return f"Budget({', '.join(caps) or 'uncapped'})"


#: The budget in force when none is applied: no running caps, only the
#: default preflight atom guard.  Checkpoints under it are no-ops.
DEFAULT_BUDGET = Budget()


class _ActiveBudget(threading.local):
    """Thread-local active budget.

    Thread-local (not a bare module global) so concurrent racing
    attempts each see their own child budget: an engine running
    in one racer thread must never charge — or be cancelled by — a
    sibling's budget.  Fresh threads start at :data:`DEFAULT_BUDGET`,
    so single-threaded behaviour is unchanged.
    """

    def __init__(self):
        self.budget: Budget = DEFAULT_BUDGET


_active = _ActiveBudget()


def active_budget() -> Budget:
    """The currently active budget (:data:`DEFAULT_BUDGET` by default)."""
    return _active.budget


def set_budget(budget: Optional[Budget]) -> Budget:
    """Install ``budget`` as active; returns the previous one.

    ``None`` restores :data:`DEFAULT_BUDGET`.  The active budget is
    **per thread** (see :class:`_ActiveBudget`).  Prefer :func:`apply`
    — it restores the previous budget automatically.
    """
    previous = _active.budget
    _active.budget = budget if budget is not None else DEFAULT_BUDGET
    return previous


@contextmanager
def apply(budget: Optional[Budget]) -> Iterator[Budget]:
    """Scope-install a budget: active (and started) inside the block.

    ::

        with runtime.apply(Budget(deadline=5.0, max_atoms=22)):
            value = reliability(db, query)   # checkpoints enforce it
    """
    if budget is not None:
        budget.start()
    previous = set_budget(budget)
    try:
        yield active_budget()
    finally:
        set_budget(previous)


def checkpoint(worlds: int = 0, samples: int = 0, clauses: int = 0) -> None:
    """Cooperative checkpoint: charge work to the active budget.

    Engines call this inside their loops; under the default budget it
    returns immediately.  Raises :class:`BudgetExceeded` when a cap of
    the active budget is crossed.
    """
    _active.budget.consume(worlds=worlds, samples=samples, clauses=clauses)
