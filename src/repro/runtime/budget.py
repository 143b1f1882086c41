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
    """

    __slots__ = (
        "deadline_seconds",
        "max_worlds",
        "max_ground_clauses",
        "max_samples",
        "max_atoms",
        "_clock",
        "_deadline",
        "worlds",
        "ground_clauses",
        "samples",
        "_limited",
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
        self._deadline: Optional[Deadline] = (
            Deadline(deadline, clock) if deadline is not None else None
        )
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

    # ------------------------------------------------------------------ #

    def start(self) -> "Budget":
        """Start the deadline countdown (no-op without a deadline)."""
        if self._deadline is not None:
            self._deadline.start()
        return self

    def reset(self) -> "Budget":
        """Zero the consumption counters and restart the deadline."""
        self.worlds = 0
        self.ground_clauses = 0
        self.samples = 0
        return self.start()

    @property
    def deadline(self) -> Optional[Deadline]:
        """The live :class:`Deadline`, or ``None``."""
        return self._deadline

    def remaining_time(self) -> Optional[float]:
        """Seconds left on the deadline (``None`` when unconstrained)."""
        if self._deadline is None:
            return None
        return self._deadline.remaining()

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

    def sliced(self, seconds: float) -> "SlicedBudget":
        """A per-attempt view of this budget with a tighter deadline.

        Work consumed through the slice is charged to this (parent)
        budget — counters and the parent deadline stay shared — but the
        slice additionally expires after ``seconds``.  The fallback
        executor uses this for fair-share time slicing: one stalled
        engine can then burn only its share of the wall clock, not the
        whole allowance.
        """
        return SlicedBudget(self, seconds)

    # ------------------------------------------------------------------ #

    def consume(self, worlds: int = 0, samples: int = 0, clauses: int = 0) -> None:
        """Record work done and enforce every cap (cooperative checkpoint).

        Engines call this once per unit of work (world evaluated, sample
        drawn, clause grounded) or with ``0/0/0`` for a pure deadline
        check.  Raises :class:`BudgetExceeded` when any cap is crossed.
        """
        if not self._limited:
            return
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


class SlicedBudget:
    """A parent budget plus a per-slice deadline (see :meth:`Budget.sliced`).

    Duck-types the :class:`Budget` surface the engines and preflights
    consult: :meth:`consume` charges the parent *and* checks the slice
    deadline; caps and limits delegate to the parent.
    """

    __slots__ = ("parent", "slice_deadline")

    def __init__(self, parent: "Budget", seconds: float):
        self.parent = parent
        self.slice_deadline = Deadline(seconds, parent._clock)

    def start(self) -> "SlicedBudget":
        self.slice_deadline.start()
        return self

    @property
    def _clock(self) -> Clock:
        return self.parent._clock

    def sliced(self, seconds: float) -> "SlicedBudget":
        """Slices nest: the child charges this slice's parent chain."""
        return SlicedBudget(self, seconds)

    @property
    def deadline_seconds(self) -> float:
        return self.slice_deadline.seconds

    @property
    def deadline(self) -> Deadline:
        return self.slice_deadline

    @property
    def max_worlds(self) -> Optional[int]:
        return self.parent.max_worlds

    @property
    def max_ground_clauses(self) -> Optional[int]:
        return self.parent.max_ground_clauses

    @property
    def max_samples(self) -> Optional[int]:
        return self.parent.max_samples

    @property
    def max_atoms(self) -> Optional[int]:
        return self.parent.max_atoms

    def world_limit(self) -> Optional[int]:
        return self.parent.world_limit()

    def remaining_samples(self) -> Optional[int]:
        return self.parent.remaining_samples()

    def remaining_time(self) -> float:
        remaining = self.slice_deadline.remaining()
        parent_remaining = self.parent.remaining_time()
        if parent_remaining is not None:
            remaining = min(remaining, parent_remaining)
        return remaining

    def consume(self, worlds: int = 0, samples: int = 0, clauses: int = 0) -> None:
        self.parent.consume(worlds=worlds, samples=samples, clauses=clauses)
        self.slice_deadline.check()

    def __repr__(self) -> str:
        return (
            f"SlicedBudget({self.slice_deadline.seconds:g}s of {self.parent!r})"
        )


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


class RacerBudget:
    """A per-racer view of a shared budget for speculative racing.

    Like :class:`SlicedBudget` this duck-types the :class:`Budget`
    surface the engines and preflights consult, but it is built for
    *concurrent* attempts:

    * consumption ledgers (``worlds``/``samples``/``ground_clauses``)
      are **private** — concurrent racers never mutate shared counters,
      so cap checks cannot depend on thread interleaving;
    * ``sample_headroom`` pre-partitions the parent's ``max_samples``:
      racer *i* sees ``cap - sum(predicted needs of earlier racers)``,
      each need read from the engine's forecast
      (:meth:`repro.runtime.plan.Plan.forecast`);
    * ``token`` is a :class:`CancelToken` checked on every
      :meth:`consume` — the cross-thread cancel flag;
    * ``on_checkpoint`` is an optional hook run first on every
      :meth:`consume` — the deterministic virtual-clock scheduler uses
      it as its lock-step yield point.

    The parent's *deadline* stays shared (wall clock is one resource no
    partition can split); an optional per-racer slice deadline bounds
    the racer's own wall-clock share.
    """

    __slots__ = (
        "parent",
        "token",
        "slice_deadline",
        "sample_headroom",
        "worlds",
        "ground_clauses",
        "samples",
        "_hook",
    )

    def __init__(
        self,
        parent: "Budget",
        token: CancelToken,
        slice_seconds: Optional[float] = None,
        sample_headroom: Optional[int] = None,
        on_checkpoint: Optional[Callable[[], None]] = None,
    ):
        self.parent = parent
        self.token = token
        self.slice_deadline = (
            Deadline(slice_seconds, parent._clock)
            if slice_seconds is not None
            else None
        )
        if sample_headroom is not None:
            sample_headroom = max(0, int(sample_headroom))
        self.sample_headroom = sample_headroom
        self.worlds = 0
        self.ground_clauses = 0
        self.samples = 0
        self._hook = on_checkpoint

    def start(self) -> "RacerBudget":
        if self.slice_deadline is not None:
            self.slice_deadline.start()
        return self

    @property
    def _clock(self) -> Clock:
        return self.parent._clock

    def sliced(self, seconds: float) -> "SlicedBudget":
        return SlicedBudget(self, seconds)

    @property
    def deadline(self) -> Optional[Deadline]:
        if self.slice_deadline is not None:
            return self.slice_deadline
        return self.parent.deadline

    @property
    def max_worlds(self) -> Optional[int]:
        return self.parent.max_worlds

    @property
    def max_ground_clauses(self) -> Optional[int]:
        return self.parent.max_ground_clauses

    @property
    def max_samples(self) -> Optional[int]:
        if self.sample_headroom is not None:
            return self.sample_headroom
        return self.parent.max_samples

    @property
    def max_atoms(self) -> Optional[int]:
        return self.parent.max_atoms

    def world_limit(self) -> Optional[int]:
        return self.parent.world_limit()

    def remaining_samples(self) -> Optional[int]:
        cap = self.max_samples
        if cap is None:
            return None
        return max(0, cap - self.samples)

    def remaining_time(self) -> Optional[float]:
        remaining = self.parent.remaining_time()
        if self.slice_deadline is not None:
            slice_left = self.slice_deadline.remaining()
            remaining = (
                slice_left if remaining is None else min(remaining, slice_left)
            )
        return remaining

    def consume(self, worlds: int = 0, samples: int = 0, clauses: int = 0) -> None:
        if self._hook is not None:
            self._hook()
        self.token.check()
        if worlds:
            self.worlds += worlds
            cap = self.max_worlds
            if cap is not None and self.worlds > cap:
                raise BudgetExceeded(
                    f"world budget exhausted: {self.worlds} worlds "
                    f"evaluated, cap is {cap}"
                )
        if samples:
            self.samples += samples
            cap = self.max_samples
            if cap is not None and self.samples > cap:
                raise BudgetExceeded(
                    f"sample budget exhausted: {self.samples} samples "
                    f"drawn, cap is {cap}"
                )
        if clauses:
            self.ground_clauses += clauses
            cap = self.max_ground_clauses
            if cap is not None and self.ground_clauses > cap:
                raise BudgetExceeded(
                    f"grounding budget exhausted: {self.ground_clauses} "
                    f"clauses instantiated, cap is {cap}"
                )
        parent_deadline = self.parent.deadline
        if parent_deadline is not None:
            parent_deadline.check()
        if self.slice_deadline is not None:
            self.slice_deadline.check()

    def __repr__(self) -> str:
        bits = []
        if self.slice_deadline is not None:
            bits.append(f"slice={self.slice_deadline.seconds:g}s")
        if self.sample_headroom is not None:
            bits.append(f"headroom={self.sample_headroom}")
        if self.token.cancelled:
            bits.append("cancelled")
        return f"RacerBudget({', '.join(bits) or 'unsliced'} of {self.parent!r})"


#: The budget in force when none is applied: no running caps, only the
#: default preflight atom guard.  Checkpoints under it are no-ops.
DEFAULT_BUDGET = Budget()


class _ActiveBudget(threading.local):
    """Thread-local active budget.

    Thread-local (not a bare module global) so concurrent racing
    attempts each see their own :class:`RacerBudget`: an engine running
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
