"""Per-engine circuit breakers for the serve scheduler.

An engine that keeps timing out (a stalled external resource, a
deadline too short for every slice) should stop being *tried*:
each failed attempt burns a slice of every request's deadline.  The
breaker watches the executor's per-attempt outcomes and takes a
repeatedly-failing engine out of the launch chain:

``closed``
    healthy: attempts flow, consecutive trip-outcomes are counted;
``open``
    tripped after ``threshold`` consecutive failures: the engine is
    filtered out of every launch for ``cooldown`` scheduler-seconds;
``half_open``
    the cooldown passed: attempts are allowed again as probes — the
    first success closes the breaker, the first failure re-opens it.

Only *transient* outcomes trip the breaker (default: the executor's
``budget_exceeded``); fragment mismatches and cost refusals are
properties of individual queries, not engine health, and neither count
as failures nor reset the streak.

All clocks are the server scheduler's, so breaker trips and heals
replay deterministically under the virtual clock; every transition is
appended to :attr:`CircuitBreaker.transitions` (the replay fingerprint)
and mirrored as ``serve.breaker.*`` telemetry.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.util.errors import ResourceError

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class _EngineState:
    __slots__ = ("state", "failures", "opened_at")

    def __init__(self):
        self.state = CLOSED
        self.failures = 0
        self.opened_at = 0.0


class CircuitBreaker:
    """Track per-engine health; filter launches; heal on probes."""

    def __init__(
        self,
        threshold: int = 3,
        cooldown: float = 1.0,
        trip_outcomes: Tuple[str, ...] = ("budget_exceeded",),
    ):
        if threshold < 1:
            raise ResourceError(f"threshold must be >= 1, got {threshold}")
        if cooldown < 0:
            raise ResourceError(f"cooldown must be >= 0, got {cooldown}")
        self.threshold = threshold
        self.cooldown = cooldown
        self.trip_outcomes = tuple(trip_outcomes)
        self._engines: Dict[str, _EngineState] = {}
        #: Every state change, in driver order: ``(time, engine, old, new)``.
        self.transitions: List[Tuple[float, str, str, str]] = []

    def _state(self, engine: str) -> _EngineState:
        state = self._engines.get(engine)
        if state is None:
            state = self._engines[engine] = _EngineState()
        return state

    def _transition(
        self, engine: str, state: _EngineState, new: str, now: float
    ) -> None:
        old = state.state
        state.state = new
        self.transitions.append((now, engine, old, new))
        obs.inc(f"serve.breaker.{new}")
        obs.event(
            "serve.breaker.transition",
            engine=engine,
            old=old,
            new=new,
            time=now,
        )

    def state(self, engine: str) -> str:
        """The engine's current state name (``closed`` if untracked)."""
        state = self._engines.get(engine)
        return CLOSED if state is None else state.state

    def allow(self, engine: str, now: float) -> bool:
        """May the engine be launched at scheduler time ``now``?

        An open breaker whose cooldown has passed transitions to
        half-open here (lazily, on the first launch that asks) and
        allows the probe through.
        """
        state = self._engines.get(engine)
        if state is None or state.state == CLOSED:
            return True
        if state.state == OPEN:
            if now >= state.opened_at + self.cooldown:
                self._transition(engine, state, HALF_OPEN, now)
                return True
            return False
        return True  # half-open: probes are allowed

    def reopen_at(self, engine: str) -> Optional[float]:
        """When an open engine becomes probe-able (``None`` if not open)."""
        state = self._engines.get(engine)
        if state is None or state.state != OPEN:
            return None
        return state.opened_at + self.cooldown

    def record(self, engine: str, outcome: str, now: float) -> None:
        """Feed one executor attempt outcome into the breaker."""
        state = self._state(engine)
        if outcome == "ok":
            state.failures = 0
            if state.state != CLOSED:
                self._transition(engine, state, CLOSED, now)
            return
        if outcome not in self.trip_outcomes:
            return  # permanent, query-specific: not an engine-health signal
        if state.state == HALF_OPEN:
            # The probe failed: straight back to open, cooldown restarts.
            state.failures = self.threshold
            state.opened_at = now
            self._transition(engine, state, OPEN, now)
            return
        state.failures += 1
        if state.state == CLOSED and state.failures >= self.threshold:
            state.opened_at = now
            self._transition(engine, state, OPEN, now)
