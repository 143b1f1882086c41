"""Speculative engine racing for the fallback executor.

The sequential executor walks its chain one engine at a time: a slow
Karp–Luby attempt burns its whole fair-share slice before Monte Carlo
even starts, though Corollary 5.5 gives both the same additive
guarantee on reliability.  Racing hedges instead: once the current
engine has consumed an ``overlap`` fraction of its fair-share slice,
the next engine in the chain launches *concurrently* (a thread plus the
existing cooperative checkpoints), and the race returns the first
answer whose guarantee tier is at least as strong as every contender
still running — an exact engine can preempt a sampler's answer, never
the reverse.

Mechanics, all built from existing runtime machinery:

* each racer runs under a :class:`~repro.runtime.budget.RacerBudget`
  (private consumption ledgers, a pre-partitioned sample headroom, an
  optional fair-share slice deadline) installed thread-locally, so
  concurrent attempts cannot interfere through the budget;
* cancellation is a :class:`~repro.runtime.budget.CancelToken` checked
  at every checkpoint — losers unwind through the ``BudgetExceeded``
  path the engines already have;
* sample headroom is reserved in chain order from each engine's
  forecast (:meth:`repro.runtime.plan.Plan.forecast`);
* the scheduler is pluggable: :class:`ThreadScheduler` races real
  threads on the wall clock, while the deterministic virtual-clock
  :class:`~repro.runtime.faults.VirtualScheduler` replays any scripted
  fault interleaving bit-for-bit (see docs/ROBUSTNESS.md).  ``analyze
  --race`` forecasts by running this same driver on a virtual clock
  with stub engines that take their predicted seconds.

Winner selection: when a racer finishes ``ok`` at tier rank ``r``,
every contender at rank ``>= r`` is cancelled (it could at best tie)
and all unlaunched engines are dropped; if no strictly stronger
contender is still running the answer wins immediately, otherwise it is
*held* — a stronger ``ok`` later preempts it, and when the last
strictly stronger contender fails, the held answer wins.  If every
racer fails, :class:`~repro.util.errors.FallbackExhausted` carries the
full attempt log, exactly like the sequential walk.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence

from repro import obs
from repro.runtime import executor as _executor
from repro.runtime.budget import Budget, CancelToken, RacerBudget, apply
from repro.util.errors import (
    BudgetExceeded,
    CostRefused,
    FallbackExhausted,
    QueryError,
)

__all__ = [
    "DEFAULT_OVERLAP",
    "NOMINAL_SHARE_SECONDS",
    "ThreadScheduler",
    "use_scheduler",
    "current_scheduler",
    "racer_scope",
    "race_sleep",
    "run_race",
]

#: Fraction of an engine's fair-share slice consumed before the next
#: engine launches speculatively (``--race`` with no value).
DEFAULT_OVERLAP = 0.5

#: Fair-share stand-in when the budget has no deadline: the stagger
#: between launches is ``overlap * NOMINAL_SHARE_SECONDS``.
NOMINAL_SHARE_SECONDS = 1.0

#: Real-mode grace period for joining cancelled losers before
#: abandoning their (daemon) threads, in seconds.  Joining a stalled
#: loser any longer would forfeit the wall-clock win racing exists for.
RECLAIM_GRACE_SECONDS = 0.1

#: Slice granularity of interruptible real-mode sleeps (``race_sleep``).
_SLEEP_QUANTUM = 0.02


# ---------------------------------------------------------------------- #
# schedulers
# ---------------------------------------------------------------------- #


class ThreadScheduler:
    """The production scheduler: real daemon threads on the wall clock.

    Completions are queued under a condition variable; :meth:`drain`
    joins finished racers with a bounded grace period and *abandons*
    (counts, leaves as daemons) any loser still stalled — typically one
    blocked in uninterruptible C-level work between checkpoints.
    """

    is_virtual = False

    def __init__(self):
        self._cond = threading.Condition()
        self._completions: List[int] = []
        self._threads: Dict[int, threading.Thread] = {}
        self._next_id = 0
        self._poked = False

    def now(self) -> float:
        return time.monotonic()

    def spawn(self, label: str, fn: Callable[[], None]) -> int:
        """Start ``fn`` on a daemon thread; returns its entity id."""
        entity = self._next_id
        self._next_id += 1

        def body():
            try:
                fn()
            finally:
                with self._cond:
                    self._completions.append(entity)
                    self._cond.notify_all()

        thread = threading.Thread(
            target=body, name=f"repro-racer-{entity}-{label}", daemon=True
        )
        self._threads[entity] = thread
        thread.start()
        return entity

    def wait(self, timeout: Optional[float] = None) -> None:
        """Block until a completion is queued (or ``timeout`` elapses).

        Also wakes on :meth:`poke` — the serve driver blocks here while
        its pool works, and a submission from another thread must be
        able to interrupt the wait even though no racer completed.
        """
        with self._cond:
            if self._completions or self._poked:
                self._poked = False
                return
            self._cond.wait(timeout)
            self._poked = False

    def poke(self) -> None:
        """Wake a driver blocked in :meth:`wait` (new work arrived).

        The poke is latched: a poke landing *between* two waits makes
        the next wait return immediately instead of being lost — a
        submission racing the driver's loop can never strand a request
        in the inbox until an unrelated completion.
        """
        with self._cond:
            self._poked = True
            self._cond.notify_all()

    def pop_completions(self, include_future: bool = False) -> List[int]:
        with self._cond:
            done, self._completions = self._completions, []
            return done

    def checkpoint(self) -> None:
        """Racer-side yield point: a no-op on real threads."""

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)

    def drain(self, entities: Sequence[int]) -> int:
        """Join ``entities`` within the grace budget; count the stalled."""
        abandoned = 0
        deadline = time.monotonic() + RECLAIM_GRACE_SECONDS
        for entity in entities:
            thread = self._threads.get(entity)
            if thread is None:
                continue
            thread.join(max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                abandoned += 1
        return abandoned


# Thread-local racer context: which scheduler (and cancel token) the
# current thread is racing under, consulted by race_sleep and installed
# for the duration of each racer body.
_context = threading.local()


def current_scheduler():
    """The scheduler the calling thread is racing under, or ``None``."""
    return getattr(_context, "scheduler", None)


class racer_scope:
    """Install the racer thread-local context for a worker body.

    Everything that makes an engine attempt cooperate with a scheduler
    — ``race_sleep`` routing, cancel-token checks inside scripted
    stalls, the executor's scheduler-aware clock — consults this
    context.  The racing executor installs it around each speculative
    attempt; the serve worker pool installs it around each scheduled
    query so a whole multi-query run is drivable by the deterministic
    virtual clock.  Scopes restore the previous context on exit, so
    they nest safely.
    """

    __slots__ = ("scheduler", "token", "_previous")

    def __init__(self, scheduler, token=None):
        self.scheduler = scheduler
        self.token = token
        self._previous = (None, None)

    def __enter__(self):
        self._previous = (
            getattr(_context, "scheduler", None),
            getattr(_context, "token", None),
        )
        _context.scheduler = self.scheduler
        _context.token = self.token
        return self

    def __exit__(self, *exc):
        _context.scheduler, _context.token = self._previous
        return False


def race_sleep(seconds: float) -> None:
    """A stall that cooperates with racing (used by ``SlowdownFault``).

    Outside a race this is ``time.sleep``.  Under the virtual-clock
    scheduler it advances the racer's virtual time (no real sleeping —
    scripted interleavings replay instantly).  Under real racing it
    sleeps in small slices, checking the cancel token between them, so
    a cancelled loser's stall is reclaimed within one quantum instead
    of after the full stall.
    """
    scheduler = current_scheduler()
    if scheduler is None:
        time.sleep(seconds)
        return
    if scheduler.is_virtual:
        scheduler.sleep(seconds)
        return
    token = getattr(_context, "token", None)
    end = time.monotonic() + seconds
    while True:
        if token is not None:
            token.check()
        remaining = end - time.monotonic()
        if remaining <= 0:
            return
        time.sleep(min(remaining, _SLEEP_QUANTUM))


_forced_scheduler = None


class use_scheduler:
    """Scope a scheduler for subsequent races (tests: the virtual clock).

    ::

        scheduler = faults.VirtualScheduler(ticks={"exact": 0.01})
        with racing.use_scheduler(scheduler):
            result = run_with_fallback(db, query, race=True, ...)
    """

    def __init__(self, scheduler):
        self.scheduler = scheduler
        self._previous = None

    def __enter__(self):
        global _forced_scheduler
        self._previous = _forced_scheduler
        _forced_scheduler = self.scheduler
        return self.scheduler

    def __exit__(self, *exc):
        global _forced_scheduler
        _forced_scheduler = self._previous
        return False


# ---------------------------------------------------------------------- #
# the race
# ---------------------------------------------------------------------- #


class _Racer:
    """Mutable state of one speculative attempt."""

    __slots__ = (
        "index",
        "name",
        "rank",
        "entity",
        "token",
        "budget",
        "outcome",
        "detail",
        "counter",
        "answer",
        "error",
        "elapsed",
        "launched_at",
    )

    def __init__(self, index: int, name: str, rank: int):
        self.index = index
        self.name = name
        self.rank = rank
        self.entity: Optional[int] = None
        self.token = CancelToken()
        self.budget: Optional[RacerBudget] = None
        self.outcome: Optional[str] = None
        self.detail = ""
        self.counter = ""
        self.answer = None
        self.error: Optional[BaseException] = None
        self.elapsed = 0.0
        self.launched_at = 0.0


def run_race(
    plan,
    chain: Sequence[str],
    run_budget: Budget,
    rng_base: int,
    scheduler=None,
    engines=None,
    emit=obs,
):
    """Race ``chain`` speculatively; returns a ``RuntimeResult``.

    Called by :func:`repro.runtime.executor.run_with_fallback` with its
    plan and the dichotomy-partitioned chain, inside the budget scope.
    ``rng_base`` seeds the per-attempt generators (the same derivation
    the sequential walk uses, so a race winner's value equals the value
    a sequential run of that engine would have produced).  The race
    forecast passes its own ``scheduler``, stub ``engines`` and
    ``emit=obs.NULL`` in place of the process recorder.
    """
    if scheduler is None:
        scheduler = (
            _forced_scheduler if _forced_scheduler is not None
            else ThreadScheduler()
        )
    if engines is None:
        engines = _executor.ENGINES
    db, query, quantity = plan.db, plan.query, plan.quantity
    model, features, overlap = plan.model, plan.features, plan.overlap
    started = scheduler.now()
    chain = tuple(chain)
    total = len(chain)
    racers = [
        _Racer(i, name, _executor.GUARANTEE_RANK[
            _executor.engine_guarantee(name, quantity)])
        for i, name in enumerate(chain)
    ]
    pending = deque(racers)
    by_entity: Dict[int, _Racer] = {}
    contenders: List[_Racer] = []   # launched, not finished, not cancelled
    running: List[_Racer] = []      # launched, not finished (incl. cancelled)
    completed: List[_Racer] = []    # in completion order
    held: Optional[_Racer] = None
    winner: Optional[_Racer] = None
    samples_reserved = 0
    next_launch_at = scheduler.now()

    def make_body(racer: _Racer, share: Optional[float], headroom: Optional[int]):
        request = _executor._Request(
            quantity, plan.epsilon, plan.delta,
            _executor._attempt_rng(rng_base, racer.name),
            plan.adaptive, plan.verdict,
        )

        def body():
            racer_budget = RacerBudget(
                run_budget,
                racer.token,
                slice_seconds=share,
                sample_headroom=headroom,
                on_checkpoint=scheduler.checkpoint,
            )
            racer.budget = racer_budget
            scope = racer_scope(scheduler, racer.token)
            scope.__enter__()
            t0 = scheduler.now()
            try:
                with apply(racer_budget):
                    answer = engines[racer.name](db, query, request)
                if racer.token.cancelled:
                    # Finished past its last checkpoint after losing the
                    # race: the answer is discarded, never merged.
                    racer.outcome = "cancelled"
                    racer.detail = racer.token.reason or "finished after cancellation"
                else:
                    racer.answer = answer
                    racer.outcome = "ok"
            except (CostRefused, BudgetExceeded, QueryError) as exc:
                if racer.token.cancelled:
                    racer.outcome = "cancelled"
                    racer.detail = racer.token.reason or str(exc)
                else:
                    racer.outcome, racer.counter = _executor.classify_failure(exc)
                    racer.detail = str(exc)
            except BaseException as exc:  # a genuine bug: carry to the driver
                racer.outcome = "crashed"
                racer.error = exc
            finally:
                racer.elapsed = scheduler.now() - t0
                scope.__exit__()

        return body

    def record_attempt(racer: _Racer) -> None:
        completed.append(racer)
        emit.inc("runtime.attempts")
        if racer.outcome == "ok":
            if features is not None:
                emit.event(
                    "runtime.attempt.cost",
                    engine=racer.name,
                    outcome="ok",
                    seconds=racer.elapsed,
                    **features,
                )
            if model is not None:
                _executor._record_prediction_error(
                    model, racer.name, features, racer.elapsed
                )
            return
        if racer.counter:
            emit.inc(racer.counter)
        if racer.outcome == "cancelled":
            emit.inc("runtime.race.cancelled")
        emit.inc("runtime.fallbacks")
        emit.event(
            "runtime.fallback",
            engine=racer.name,
            outcome=racer.outcome,
            detail=racer.detail,
        )
        if features is not None and racer.outcome in (
            "cost_refused", "budget_exceeded", "fragment_mismatch"
        ):
            emit.event(
                "runtime.attempt.cost",
                engine=racer.name,
                outcome=racer.outcome,
                seconds=racer.elapsed,
                **features,
            )

    def cancel(racer: _Racer, reason: str) -> None:
        if not racer.token.cancelled:
            racer.token.cancel(reason)
        if racer in contenders:
            contenders.remove(racer)

    def on_complete(racer: _Racer) -> None:
        nonlocal held, winner, next_launch_at
        if racer in running:
            running.remove(racer)
        if racer in contenders:
            contenders.remove(racer)
        if racer.outcome == "crashed":
            # Cancel everyone and re-raise from the driver: any
            # exception outside the fallback taxonomy is a genuine bug
            # and propagates, exactly as in the sequential walk.
            for other in running:
                other.token.cancel("sibling racer crashed")
            scheduler.drain([r.entity for r in running])
            raise racer.error
        if winner is not None:
            # The race is decided; late completions are losers whatever
            # they brought back.
            if racer.outcome == "ok":
                racer.outcome = "cancelled"
                racer.detail = (
                    racer.token.reason or "finished after the race was decided"
                )
            record_attempt(racer)
            return
        if racer.outcome == "ok" and held is not None and racer.rank >= held.rank:
            # An answer no stronger than the one already held (possible
            # when both finished before the driver processed either):
            # first processed wins within a tier, the late one loses.
            racer.outcome = "cancelled"
            racer.detail = f"lost the race to {held.name!r} (equal or stronger tier)"
            record_attempt(racer)
        elif racer.outcome == "ok":
            for other in list(contenders):
                if other.rank >= racer.rank:
                    cancel(
                        other,
                        f"preempted by {racer.name!r} "
                        f"(tier rank {racer.rank} <= {other.rank})",
                    )
            pending.clear()
            if held is not None:
                # held.rank > racer.rank here: a strictly stronger
                # answer preempts the held one.
                held.outcome = "preempted"
                held.detail = f"preempted by stronger engine {racer.name!r}"
                emit.inc("runtime.race.preempted")
                record_attempt(held)
            held = racer
        else:
            record_attempt(racer)
            if not contenders and held is None and pending:
                # A failure left nothing running: launch the next
                # engine immediately instead of waiting out the stagger
                # (mirrors the sequential walk's instant fallthrough).
                next_launch_at = scheduler.now()
        if held is not None and not any(r.rank < held.rank for r in contenders):
            winner = held
            held = None

    def launch(racer: _Racer) -> None:
        nonlocal samples_reserved, next_launch_at
        now = scheduler.now()
        remaining = run_budget.remaining_time()
        share: Optional[float] = None
        if remaining is not None:
            if remaining <= 0:
                # Mirrors the sequential walk: engines past the
                # deadline fail without starting.
                racer.outcome = "budget_exceeded"
                racer.counter = "runtime.budget_exceeded"
                racer.detail = "deadline exhausted before the engine started"
                record_attempt(racer)
                return
            share = remaining / (total - racer.index)
        cap = run_budget.max_samples
        headroom = None
        if cap is not None:
            headroom = max(0, cap - run_budget.samples - samples_reserved)
        samples_reserved += plan.forecast(
            racer.name, run_budget, samples_reserved
        )[2]
        racer.launched_at = now
        body = make_body(racer, share, headroom)
        racer.entity = scheduler.spawn(racer.name, body)
        by_entity[racer.entity] = racer
        running.append(racer)
        contenders.append(racer)
        emit.inc("runtime.race.launched")
        emit.event(
            "runtime.race.launch",
            engine=racer.name,
            index=racer.index,
            share=share,
            headroom=headroom,
        )
        stagger = overlap * (share if share is not None else NOMINAL_SHARE_SECONDS)
        next_launch_at = now + stagger

    with emit.span(
        "runtime.race", engines=total, quantity=quantity, overlap=overlap
    ):
        while True:
            if winner is not None:
                break
            if not running and not pending:
                break  # exhausted (held was resolved inside on_complete)
            now = scheduler.now()
            while (
                pending
                and winner is None
                and (not contenders or now >= next_launch_at)
            ):
                launch(pending.popleft())
                now = scheduler.now()
            if winner is not None or not running:
                continue
            timeout = None
            if pending and contenders:
                timeout = max(0.0, next_launch_at - scheduler.now())
            scheduler.wait(timeout)
            for entity in scheduler.pop_completions():
                on_complete(by_entity[entity])

        # Reclaim losers: cancelled racers run to their next checkpoint.
        # The virtual scheduler steps every one of them to completion
        # (full determinism); real threads get a bounded grace join and
        # stragglers are abandoned as daemons — waiting longer would
        # forfeit the wall-clock win.
        stragglers = list(running)
        abandoned_count = scheduler.drain([r.entity for r in stragglers])
        for entity in scheduler.pop_completions(include_future=True):
            on_complete(by_entity[entity])
        abandoned = [r for r in stragglers if r.outcome is None]
        for racer in abandoned:
            racer.outcome = "abandoned"
            racer.detail = racer.token.reason or "cancelled, thread not joined"
            racer.elapsed = scheduler.now() - racer.launched_at
            record_attempt(racer)
        if abandoned_count:
            emit.inc("runtime.race.abandoned", abandoned_count)

        # Fold private ledgers back into the shared budget (losers too:
        # their draws were really spent) — direct adds, no enforcement;
        # the race is over.  Abandoned racers' ledgers are still live
        # on their threads and stay unfolded.
        from repro.runtime.budget import DEFAULT_BUDGET

        foldable = isinstance(run_budget, Budget) and run_budget is not DEFAULT_BUDGET
        wasted = 0.0
        for racer in completed + ([winner] if winner is not None else []):
            if (
                foldable
                and racer.budget is not None
                and racer.outcome != "abandoned"
            ):
                run_budget.worlds += racer.budget.worlds
                run_budget.samples += racer.budget.samples
                run_budget.ground_clauses += racer.budget.ground_clauses
            if winner is None or racer is not winner:
                wasted += racer.elapsed
        emit.observe("runtime.race.wasted_seconds", wasted)

        if winner is not None:
            record_attempt(winner)
            emit.inc("runtime.race.won")
            emit.inc("runtime.completed")
            emit.event(
                "runtime.race.result",
                engine=winner.name,
                guarantee=winner.answer.guarantee,
                launched=len(completed),
                cancelled=sum(1 for r in completed if r.outcome == "cancelled"),
                wasted_seconds=wasted,
            )
            emit.event(
                "runtime.result",
                engine=winner.name,
                guarantee=winner.answer.guarantee,
                attempts=len(completed),
            )

    attempts = tuple(
        _executor.Attempt(r.name, r.outcome, r.detail, r.elapsed)
        for r in completed
    )
    if winner is None:
        emit.inc("runtime.exhausted")
        raise FallbackExhausted(
            f"all {total} engines failed "
            f"({', '.join(f'{a.engine}: {a.outcome}' for a in attempts)})",
            attempts,
        )
    answer = winner.answer
    return _executor.RuntimeResult(
        value=answer.value,
        engine=winner.name,
        guarantee=answer.guarantee,
        quantity=quantity,
        epsilon=answer.epsilon,
        delta=answer.delta,
        attempts=attempts,
        elapsed=scheduler.now() - started,
        fraction=answer.fraction,
    )
