"""Deterministic fault injection for the resilient runtime.

Chaos testing for the fallback executor: :func:`inject` wraps engine
entry points in the :data:`repro.runtime.executor.ENGINES` registry so
that a chosen engine times out, slows down, or throws — proving that
every degradation path actually fires, with assertions on the
``runtime.*`` counters in :mod:`repro.obs`.

Fault types:

* :class:`TimeoutFault` — the engine raises
  :class:`~repro.util.errors.BudgetExceeded` immediately, as if a
  deadline expired inside it;
* :class:`SlowdownFault` — the engine stalls for ``seconds`` before
  running (and hits a budget checkpoint right after the stall), so a
  run under a tight :class:`~repro.runtime.budget.Deadline` degrades
  exactly as a genuinely slow engine would;
* :class:`ExceptionFault` — the engine raises a chosen exception
  (default :class:`~repro.util.errors.QueryError`, the fragment-
  mismatch path).

Firing is deterministic: each fault fires with ``probability`` (default
1.0) decided by a generator derived through
:func:`repro.util.rng.as_rng`, so partial-failure scenarios replay
bit-identically from a seed.  For *scripted schedules* — an engine that
fails on its first two calls and then heals, the shape circuit-breaker
and retry tests need — wrap any fault in a :class:`ScheduledFault`,
which fires on chosen 0-based call indices and passes every other call
through untouched.

Usage::

    from repro.runtime import faults

    with faults.inject({"exact": faults.TimeoutFault()}):
        result = run_with_fallback(db, query)   # exact never answers
    assert result.engine != "exact"
"""

from __future__ import annotations

import itertools
import math
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Union

from repro import obs
from repro.runtime.budget import checkpoint
from repro.util.errors import (
    BudgetExceeded,
    ProbabilityError,
    QueryError,
    ResourceError,
)
from repro.util.rng import Seed, as_rng

RngLike = Union[random.Random, Seed]

__all__ = [
    "Fault",
    "TimeoutFault",
    "SlowdownFault",
    "ExceptionFault",
    "ScheduledFault",
    "inject",
    "VirtualScheduler",
]


@dataclass(frozen=True)
class Fault:
    """Base fault: fires with ``probability`` on each engine call."""

    probability: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ProbabilityError(
                f"fault probability {self.probability} outside [0, 1]"
            )

    def fires(self, rng: random.Random) -> bool:
        """Decide whether this call is faulty (deterministic from ``rng``)."""
        return self.probability >= 1.0 or rng.random() < self.probability

    def apply(self, engine: str, real: Callable, *args, **kwargs):
        """Run the faulty behaviour (subclass responsibility)."""
        raise NotImplementedError


@dataclass(frozen=True)
class TimeoutFault(Fault):
    """The engine 'times out': raises :class:`BudgetExceeded` at entry."""

    def apply(self, engine: str, real: Callable, *args, **kwargs):
        raise BudgetExceeded(f"injected timeout in engine {engine!r}")


@dataclass(frozen=True)
class SlowdownFault(Fault):
    """The engine stalls ``seconds`` before doing its real work.

    Immediately after the stall a budget :func:`checkpoint` runs, so a
    deadline that expired during the stall fires even for engines whose
    own first checkpoint would come late.  Without a deadline the
    engine simply runs slow and still answers — which is exactly the
    distinction tests want to probe.
    """

    seconds: float = 0.05

    def __post_init__(self):
        super().__post_init__()
        if self.seconds < 0:
            raise ResourceError(
                f"slowdown seconds must be >= 0, got {self.seconds}"
            )

    def apply(self, engine: str, real: Callable, *args, **kwargs):
        from repro.runtime.racing import race_sleep

        # race_sleep is time.sleep outside a race; under the racing
        # executor it cooperates with cancellation, and under the
        # virtual-clock scheduler it advances virtual time instead of
        # sleeping, so scripted interleavings replay instantly.
        race_sleep(self.seconds)
        checkpoint()
        return real(*args, **kwargs)


def _default_error() -> Exception:
    return QueryError("injected engine failure")


@dataclass(frozen=True)
class ExceptionFault(Fault):
    """The engine raises ``error`` at entry (default: a QueryError)."""

    error: Exception = field(default_factory=_default_error)

    def apply(self, engine: str, real: Callable, *args, **kwargs):
        raise self.error


@dataclass(frozen=True)
class ScheduledFault(Fault):
    """Fire an inner ``fault`` only on scheduled 0-based call indices.

    ``at`` is any iterable of call indices (normalised to a frozenset):
    the wrapped engine's first call is index 0, and only calls whose
    index is listed misbehave — every other call runs the real engine.
    The call counter is per ``ScheduledFault`` *instance*, so inject a
    fresh instance per engine; under the virtual-clock scheduler the
    call order (and therefore which logical operation hits the fault)
    replays bit-for-bit.

    This is the scripted-transient-fault primitive the serve layer's
    retry and circuit-breaker tests are built on: ``ScheduledFault(
    fault=TimeoutFault(), at=(0, 1))`` times out twice and then heals.
    """

    fault: Fault = field(default_factory=TimeoutFault)
    at: frozenset = frozenset()

    def __post_init__(self):
        super().__post_init__()
        if not isinstance(self.fault, Fault):
            raise ResourceError(
                f"inner fault must be a Fault, got {type(self.fault).__name__}"
            )
        indices = frozenset(int(i) for i in self.at)
        if any(i < 0 for i in indices):
            raise ResourceError(f"call indices must be >= 0, got {sorted(indices)}")
        object.__setattr__(self, "at", indices)
        # itertools.count advances atomically under the GIL, so real
        # threaded servers and the lock-step virtual clock agree on the
        # per-call indices.
        object.__setattr__(self, "_calls", itertools.count())

    def fires(self, rng: random.Random) -> bool:
        return next(self._calls) in self.at

    def apply(self, engine: str, real: Callable, *args, **kwargs):
        return self.fault.apply(engine, real, *args, **kwargs)


def _wrapped(
    engine: str, fault: Fault, real: Callable, rng: random.Random
) -> Callable:
    def engine_with_fault(*args, **kwargs):
        if not fault.fires(rng):
            return real(*args, **kwargs)
        obs.inc("runtime.faults_injected")
        obs.event(
            "runtime.fault", engine=engine, fault=type(fault).__name__
        )
        return fault.apply(engine, real, *args, **kwargs)

    engine_with_fault.__wrapped__ = real
    return engine_with_fault


@contextmanager
def inject(
    faults: Mapping[str, Fault], rng: RngLike = 0
) -> Iterator[Dict[str, Fault]]:
    """Wrap engine entry points with faults for the duration of a block.

    ``faults`` maps engine names (keys of
    :data:`repro.runtime.executor.ENGINES`) to :class:`Fault`
    instances.  The registry entries are swapped for fault-wrapped
    versions and restored on exit, even on error.  ``rng`` seeds the
    (deterministic) firing decisions for sub-1.0 probabilities.
    """
    from repro.runtime import executor

    unknown = sorted(set(faults) - set(executor.ENGINES))
    if unknown:
        raise ResourceError(
            f"cannot inject into unknown engines {unknown}; "
            f"available: {sorted(executor.ENGINES)}"
        )
    for name, fault in faults.items():
        if not isinstance(fault, Fault):
            raise ResourceError(
                f"fault for engine {name!r} must be a Fault, "
                f"got {type(fault).__name__}"
            )
    generator = as_rng(rng)
    originals = {name: executor.ENGINES[name] for name in faults}
    try:
        for name, fault in faults.items():
            executor.ENGINES[name] = _wrapped(
                name, fault, originals[name], generator
            )
        yield dict(faults)
    finally:
        executor.ENGINES.update(originals)


# ---------------------------------------------------------------------- #
# the deterministic virtual-clock scheduler
# ---------------------------------------------------------------------- #


class _VirtualEntity:
    __slots__ = ("index", "name", "resume", "vtime", "finished", "thread")

    def __init__(self, index: int, name: str, vtime: float):
        self.index = index
        self.name = name
        self.resume = threading.Event()
        self.vtime = vtime
        self.finished = False
        self.thread: Optional[threading.Thread] = None


class VirtualScheduler:
    """A deterministic lock-step scheduler with a virtual clock.

    Racing is nondeterministic on the wall clock; this scheduler tames
    it for tests.  Racer threads still exist, but **exactly one runs at
    a time**: every cooperative budget checkpoint (and every
    ``SlowdownFault`` stall, routed through
    :func:`repro.runtime.racing.race_sleep`) parks the racer and hands
    control back to the driver, which always grants the next turn to
    the runnable entity with the smallest ``(virtual time, spawn
    order)``.  Virtual time advances only by scripted amounts — a
    per-engine ``tick`` per checkpoint plus the ``seconds`` of any
    ``SlowdownFault`` — so the same fault script and seed replay the
    same interleaving, winner, value, and counters bit-for-bit.

    Use it as the race scheduler and, for deadline tests, as the budget
    clock::

        scheduler = faults.VirtualScheduler(ticks={"karp_luby": 0.01})
        budget = Budget(deadline=2.0, clock=scheduler.now)
        with racing.use_scheduler(scheduler):
            result = run_with_fallback(db, query, race=True, budget=budget)

    ``ticks`` maps engine names to virtual seconds per checkpoint
    (default ``default_tick``, itself defaulting to 0: time then moves
    only through scripted slowdowns).

    The racing executor and the :class:`repro.serve.Server` driver both
    speak this scheduler's driver protocol (``now`` / ``spawn`` /
    ``wait`` / ``pop_completions`` / ``drain`` / ``poke``): a scripted
    fault schedule plus a seed replays a whole multi-query serving run
    — admission decisions, retries, breaker transitions, and per-query
    answers — bit for bit (see tests/serve/test_replay.py).
    """

    is_virtual = True

    def __init__(
        self,
        ticks: Optional[Mapping[str, float]] = None,
        default_tick: float = 0.0,
    ):
        self._ticks = dict(ticks or {})
        self._default_tick = float(default_tick)
        self._entities: List[_VirtualEntity] = []
        self._lock = threading.Lock()
        self._wake_driver = threading.Event()
        self._completions: List[int] = []
        self._pending: List[int] = []
        self._driver_time = 0.0
        self._local = threading.local()

    # -- clock ---------------------------------------------------------- #

    def now(self) -> float:
        """Virtual seconds: the calling racer's time, or the driver's."""
        entity = getattr(self._local, "entity", None)
        if entity is not None:
            return entity.vtime
        return self._driver_time

    def poke(self) -> None:
        """Driver wake-up hook: a no-op on the virtual clock.

        Virtual-mode submissions come from the driver thread itself
        (scripted workloads), so there is never a blocked driver to
        wake; the real :class:`~repro.runtime.racing.ThreadScheduler`
        implements this with a condition notify.
        """

    # -- racer side ----------------------------------------------------- #

    def _yield_turn(self, entity: _VirtualEntity) -> None:
        entity.resume.clear()
        self._wake_driver.set()
        entity.resume.wait()

    def checkpoint(self) -> None:
        """Budget-checkpoint hook: advance the racer's tick and park."""
        entity = getattr(self._local, "entity", None)
        if entity is None:
            return
        entity.vtime += self._ticks.get(entity.name, self._default_tick)
        self._yield_turn(entity)

    def sleep(self, seconds: float) -> None:
        """A scripted stall: virtual seconds pass, nothing really sleeps."""
        entity = getattr(self._local, "entity", None)
        if entity is None:
            return
        entity.vtime += seconds
        self._yield_turn(entity)

    # -- driver side ---------------------------------------------------- #

    def spawn(self, label: str, fn: Callable[[], None]) -> int:
        entity = _VirtualEntity(len(self._entities), label, self._driver_time)
        self._entities.append(entity)

        def body():
            self._local.entity = entity
            entity.resume.wait()  # first turn is granted by the driver
            try:
                fn()
            finally:
                entity.finished = True
                with self._lock:
                    self._pending.append(entity.index)
                self._wake_driver.set()

        entity.thread = threading.Thread(
            target=body, name=f"repro-vracer-{entity.index}-{label}", daemon=True
        )
        entity.thread.start()
        return entity.index

    def _grant(self, entity: _VirtualEntity) -> None:
        """Run one lock-step turn: resume the entity, wait for its yield."""
        self._wake_driver.clear()
        entity.resume.set()
        self._wake_driver.wait()

    def _collect_pending(self) -> None:
        with self._lock:
            done, self._pending = self._pending, []
        for index in done:
            # A finished entity's thread only returns after queueing
            # itself: joining here means none outlives its delivery.
            self._entities[index].thread.join()
        self._completions.extend(done)

    def wait(self, timeout: Optional[float] = None) -> None:
        """Advance virtual time until a completion or ``timeout`` passes.

        Lock-step: grants turns to the runnable entity with the least
        ``(vtime, index)`` key.  A queued completion is *delivered*
        (driver time advances to its finish time) only once no runnable
        entity could still produce an earlier event — so the driver
        observes completions in virtual-time order, never in thread
        order.  A completion whose finish time lies past the timeout
        target stays queued: the driver gets its turn (a launch, say)
        at the target first, exactly as it would on a real clock.
        """
        target = math.inf if timeout is None else self._driver_time + timeout
        while True:
            self._collect_pending()
            queued = [self._entities[i] for i in self._completions]
            runnable = [e for e in self._entities if not e.finished]
            tc = min(((e.vtime, e.index) for e in queued), default=None)
            tr = min(((e.vtime, e.index) for e in runnable), default=None)
            if tc is not None and (tr is None or tc <= tr) and tc[0] <= target:
                self._driver_time = max(self._driver_time, tc[0])
                return
            if tr is None or tr[0] > target:
                if target is not math.inf:
                    self._driver_time = max(self._driver_time, target)
                return
            self._grant(self._entities[tr[1]])

    def pop_completions(self, include_future: bool = False) -> List[int]:
        """Completions whose finish time is due, in ``(vtime, index)`` order.

        A completion at a virtual time past the driver's clock is held
        back until :meth:`wait` advances to it (``include_future=True``
        overrides — used after :meth:`drain`).
        """
        self._collect_pending()
        if include_future:
            ready = sorted(
                self._completions,
                key=lambda i: (self._entities[i].vtime, i),
            )
            self._completions = []
            return ready
        ready = sorted(
            (i for i in self._completions
             if self._entities[i].vtime <= self._driver_time),
            key=lambda i: (self._entities[i].vtime, i),
        )
        held = set(ready)
        self._completions = [i for i in self._completions if i not in held]
        return ready

    def drain(self, entities) -> int:
        """Step every given entity to completion (fully deterministic).

        The driver clock does not advance: losers finish in their own
        virtual time, the race's elapsed time stays the winner's.
        Returns 0 — the virtual scheduler never abandons a thread.
        """
        remaining = [
            self._entities[i] for i in entities
            if i is not None and not self._entities[i].finished
        ]
        while True:
            runnable = [e for e in remaining if not e.finished]
            if not runnable:
                break
            self._grant(min(runnable, key=lambda e: (e.vtime, e.index)))
        return 0
