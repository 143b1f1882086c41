"""Unit tests of the serve policy building blocks.

Retry backoff, circuit breaker state machine, bounded deadline-aware
backlog, and the degradation ladder — each exercised in isolation, on
an explicit clock, before test_server.py composes them.
"""

import pytest

from repro.runtime.budget import Budget
from repro.runtime.executor import DEFAULT_CHAIN
from repro.serve.admission import DegradationLadder, tier_filter
from repro.serve.breaker import CircuitBreaker
from repro.serve.queue import Backlog
from repro.serve.retry import RetryPolicy
from repro.util.errors import ResourceError


class TestRetryPolicy:
    def test_only_transient_outcomes_retry(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.should_retry(0, ["budget_exceeded"])
        assert policy.should_retry(1, ["cost_refused", "budget_exceeded"])
        assert not policy.should_retry(0, ["cost_refused"])
        assert not policy.should_retry(0, ["fragment_mismatch"])
        assert not policy.should_retry(0, [])

    def test_max_retries_caps_the_schedule(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.should_retry(1, ["budget_exceeded"])
        assert not policy.should_retry(2, ["budget_exceeded"])
        assert not RetryPolicy(max_retries=0).should_retry(
            0, ["budget_exceeded"]
        )

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.5, jitter=0.0)
        assert policy.delay(0, "q") == pytest.approx(0.1)
        assert policy.delay(1, "q") == pytest.approx(0.2)
        assert policy.delay(2, "q") == pytest.approx(0.4)
        assert policy.delay(3, "q") == pytest.approx(0.5)  # capped
        assert policy.delay(9, "q") == pytest.approx(0.5)

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=2.0, jitter=0.5)
        first = policy.delay(1, "q7")
        assert first == policy.delay(1, "q7")  # same key, same draw
        assert 0.2 <= first <= 0.2 * 1.5
        # Different keys decorrelate (with overwhelming probability).
        assert policy.delay(1, "q7") != policy.delay(1, "q8")

    def test_invalid_parameters_are_rejected(self):
        with pytest.raises(ResourceError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ResourceError):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ResourceError):
            RetryPolicy(jitter=-0.5)


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3, cooldown=1.0)
        assert breaker.allow("exact", 0.0)
        breaker.record("exact", "budget_exceeded", 0.1)
        breaker.record("exact", "budget_exceeded", 0.2)
        assert breaker.state("exact") == "closed"
        breaker.record("exact", "budget_exceeded", 0.3)
        assert breaker.state("exact") == "open"
        assert not breaker.allow("exact", 0.4)
        assert breaker.reopen_at("exact") == pytest.approx(1.3)

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record("exact", "budget_exceeded", 0.1)
        breaker.record("exact", "ok", 0.2)
        breaker.record("exact", "budget_exceeded", 0.3)
        assert breaker.state("exact") == "closed"

    def test_permanent_outcomes_are_not_health_signals(self):
        breaker = CircuitBreaker(threshold=1)
        breaker.record("exact", "cost_refused", 0.1)
        breaker.record("lifted", "fragment_mismatch", 0.2)
        assert breaker.state("exact") == "closed"
        assert breaker.state("lifted") == "closed"

    def test_half_open_probe_heals_or_reopens(self):
        breaker = CircuitBreaker(threshold=1, cooldown=1.0)
        breaker.record("exact", "budget_exceeded", 0.0)
        assert not breaker.allow("exact", 0.5)
        # Cooldown passed: the next asker gets a probe through.
        assert breaker.allow("exact", 1.5)
        assert breaker.state("exact") == "half_open"
        breaker.record("exact", "ok", 1.6)
        assert breaker.state("exact") == "closed"
        # Trip again; this time the probe fails and reopens.
        breaker.record("exact", "budget_exceeded", 2.0)
        assert breaker.allow("exact", 3.5)
        breaker.record("exact", "budget_exceeded", 3.6)
        assert breaker.state("exact") == "open"
        assert breaker.reopen_at("exact") == pytest.approx(4.6)

    def test_transitions_log_is_the_replay_fingerprint(self):
        breaker = CircuitBreaker(threshold=1, cooldown=1.0)
        breaker.record("exact", "budget_exceeded", 0.0)
        breaker.allow("exact", 1.5)
        breaker.record("exact", "ok", 1.6)
        assert breaker.transitions == [
            (0.0, "exact", "closed", "open"),
            (1.5, "exact", "open", "half_open"),
            (1.6, "exact", "half_open", "closed"),
        ]

    def test_invalid_parameters_are_rejected(self):
        with pytest.raises(ResourceError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ResourceError):
            CircuitBreaker(cooldown=-1.0)


class _FakeTicket:
    def __init__(self, not_before=0.0, deadline=None, clock=None):
        self.not_before = not_before
        self.budget = Budget(
            deadline=deadline, clock=clock or (lambda: 0.0)
        ).start()


class TestBacklog:
    def test_capacity_and_membership(self):
        backlog = Backlog(2)
        a, b = _FakeTicket(), _FakeTicket()
        backlog.push(a)
        assert not backlog.full
        backlog.push(b)
        assert backlog.full and len(backlog) == 2
        backlog.remove(a)
        assert not backlog.full and list(backlog) == [b]

    def test_ready_honours_not_before(self):
        backlog = Backlog(4)
        now_ticket = _FakeTicket(not_before=0.0)
        later = _FakeTicket(not_before=5.0)
        backlog.push(now_ticket)
        backlog.push(later)
        assert backlog.ready(1.0) == [now_ticket]
        assert set(backlog.ready(5.0)) == {now_ticket, later}

    def test_take_expired_removes_overdue_tickets(self):
        time = {"now": 0.0}
        clock = lambda: time["now"]  # noqa: E731
        backlog = Backlog(4)
        doomed = _FakeTicket(deadline=1.0, clock=clock)
        healthy = _FakeTicket(deadline=10.0, clock=clock)
        unbounded = _FakeTicket(clock=clock)
        for ticket in (doomed, healthy, unbounded):
            backlog.push(ticket)
        time["now"] = 2.0
        assert backlog.take_expired(2.0) == [doomed]
        assert list(backlog) == [healthy, unbounded]

    def test_next_event_is_the_earliest_timer(self):
        time = {"now": 0.0}
        clock = lambda: time["now"]  # noqa: E731
        backlog = Backlog(4)
        assert backlog.next_event(0.0) is None
        backlog.push(_FakeTicket(not_before=3.0, clock=clock))
        backlog.push(_FakeTicket(deadline=2.0, clock=clock))
        assert backlog.next_event(0.0) == pytest.approx(2.0)


class TestDegradationLadder:
    def test_tiers_by_depth(self):
        ladder = DegradationLadder(relative_at=4, additive_at=8)
        assert ladder.tier_for_depth(0) == "exact"
        assert ladder.tier_for_depth(3) == "exact"
        assert ladder.tier_for_depth(4) == "relative"
        assert ladder.tier_for_depth(7) == "relative"
        assert ladder.tier_for_depth(8) == "additive"
        assert ladder.tier_for_depth(100) == "additive"

    def test_disabled_rungs(self):
        assert (
            DegradationLadder(relative_at=None, additive_at=None)
            .tier_for_depth(1000)
            == "exact"
        )
        assert (
            DegradationLadder(relative_at=None, additive_at=2)
            .tier_for_depth(3)
            == "additive"
        )

    def test_misordered_rungs_are_rejected(self):
        with pytest.raises(ResourceError):
            DegradationLadder(relative_at=8, additive_at=4)

    def test_tier_filter_drops_stronger_engines(self):
        chain = DEFAULT_CHAIN  # safe_lifted, exact, karp_luby, montecarlo
        assert tier_filter(chain, "reliability", "exact") == chain
        # For reliability, karp_luby only certifies an additive bound.
        assert tier_filter(chain, "reliability", "relative") == (
            "karp_luby",
            "montecarlo",
        )
        # For probability it is a true relative-error estimator.
        assert tier_filter(chain, "probability", "relative") == (
            "karp_luby",
            "montecarlo",
        )
        assert tier_filter(chain, "reliability", "additive") == (
            "karp_luby",
            "montecarlo",
        )

    def test_tier_filter_never_empties_a_chain(self):
        # A chain with nothing at or below the tier serves at native
        # strength rather than becoming unservable.
        assert tier_filter(("exact",), "reliability", "additive") == ("exact",)

    def test_retain_safe_tier_keeps_safe_lifted_under_degradation(self):
        from repro.serve.admission import assess
        from repro.serve.request import ServeRequest
        from repro.util.rng import make_rng
        from repro.workloads.random_db import random_unreliable_database

        db = random_unreliable_database(
            make_rng(3), size=3, relations={"E": 2, "S": 1}, density=0.5
        )
        safe = "exists x. exists y. E(x, y) & S(y)"
        unsafe = "exists x. exists y. E(x, y) & S(x) & S(y)"
        ladder = DegradationLadder(relative_at=1, additive_at=2)

        def admitted_chain(query, chain, depth):
            decision = assess(
                db, ServeRequest("q", query), chain, depth, ladder, Budget()
            )
            assert decision.code == "admitted", decision.detail
            return decision.chain

        degraded = tier_filter(DEFAULT_CHAIN, "reliability", "additive")
        assert "safe_lifted" not in degraded
        # Statically safe: the polynomial tier is re-prepended.
        assert admitted_chain(safe, DEFAULT_CHAIN, 2) == (
            ("safe_lifted",) + degraded
        )
        # Unsafe (non-hierarchical) or full-strength: chain unchanged.
        assert admitted_chain(unsafe, DEFAULT_CHAIN, 2) == degraded
        assert admitted_chain(safe, DEFAULT_CHAIN, 0) == DEFAULT_CHAIN
        # A chain that never had the static tier is left alone.
        no_tier = ("exact", "montecarlo")
        assert admitted_chain(safe, no_tier, 2) == ("montecarlo",)