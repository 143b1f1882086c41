"""Deadlines, budgets, child budgets and the active-budget machinery.

All timing tests drive an injectable fake clock — nothing here sleeps,
so the suite stays fast and deterministic.
"""

import pytest

from repro.runtime.budget import (
    DEFAULT_BUDGET,
    DEFAULT_MAX_ATOMS,
    Budget,
    Deadline,
    active_budget,
    apply,
    checkpoint,
    set_budget,
)
from repro.util.errors import BudgetExceeded, ResourceError


class FakeClock:
    """A monotonic clock tests advance by hand."""

    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestDeadline:
    def test_requires_positive_seconds(self):
        with pytest.raises(ResourceError):
            Deadline(0)
        with pytest.raises(ResourceError):
            Deadline(-1.5)

    def test_counts_down_on_injected_clock(self):
        clock = FakeClock()
        deadline = Deadline(10.0, clock).start()
        clock.advance(4.0)
        assert deadline.elapsed() == pytest.approx(4.0)
        assert deadline.remaining() == pytest.approx(6.0)
        assert not deadline.expired()

    def test_check_raises_after_expiry(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock).start()
        deadline.check()  # in budget: fine
        clock.advance(2.5)
        assert deadline.expired()
        with pytest.raises(BudgetExceeded, match="deadline of 2s exceeded"):
            deadline.check()

    def test_starts_lazily_on_first_query(self):
        clock = FakeClock(100.0)
        deadline = Deadline(5.0, clock)
        clock.advance(50.0)  # before any query: no countdown yet
        assert deadline.remaining() == pytest.approx(5.0)

    def test_restart_resets_countdown(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock).start()
        clock.advance(0.9)
        deadline.start()
        clock.advance(0.9)
        deadline.check()  # 0.9 < 1.0 since restart


class TestBudget:
    def test_caps_must_be_positive(self):
        for kwargs in (
            {"deadline": 0},
            {"max_worlds": 0},
            {"max_ground_clauses": -3},
            {"max_samples": 0},
            {"max_atoms": -1},
        ):
            with pytest.raises(ResourceError):
                Budget(**kwargs)

    def test_world_cap_enforced(self):
        budget = Budget(max_worlds=3)
        budget.consume(worlds=3)
        with pytest.raises(BudgetExceeded, match="world budget exhausted"):
            budget.consume(worlds=1)

    def test_sample_cap_enforced(self):
        budget = Budget(max_samples=2)
        budget.consume(samples=2)
        with pytest.raises(BudgetExceeded, match="sample budget exhausted"):
            budget.consume(samples=1)

    def test_clause_cap_enforced(self):
        budget = Budget(max_ground_clauses=5)
        budget.consume(clauses=5)
        with pytest.raises(BudgetExceeded, match="grounding budget"):
            budget.consume(clauses=1)

    def test_deadline_checked_at_consume(self):
        clock = FakeClock()
        budget = Budget(deadline=1.0, clock=clock).start()
        budget.consume(worlds=1)
        clock.advance(1.5)
        with pytest.raises(BudgetExceeded):
            budget.consume()

    def test_uncapped_budget_consumes_freely(self):
        budget = Budget(max_atoms=None)
        budget.consume(worlds=10**9, samples=10**9, clauses=10**9)
        assert budget.world_limit() is None
        assert budget.remaining_samples() is None
        assert budget.remaining_time() is None

    def test_default_budget_has_preflight_guard_only(self):
        assert DEFAULT_BUDGET.world_limit() == 1 << DEFAULT_MAX_ATOMS
        # ...but no running caps: the hot-loop fast path stays on.
        assert not DEFAULT_BUDGET._limited

    def test_world_limit_prefers_explicit_max_worlds(self):
        assert Budget(max_worlds=7, max_atoms=30).world_limit() == 7
        assert Budget(max_atoms=4).world_limit() == 16

    def test_remaining_samples_counts_down(self):
        budget = Budget(max_samples=10)
        budget.consume(samples=4)
        assert budget.remaining_samples() == 6

    def test_reset_zeroes_counters(self):
        budget = Budget(max_worlds=2)
        budget.consume(worlds=2)
        budget.reset()
        budget.consume(worlds=2)  # fresh allowance

    def test_repr_mentions_caps(self):
        assert "max_worlds=5" in repr(Budget(max_worlds=5))


class TestChildBudget:
    def test_slice_expires_before_parent(self):
        clock = FakeClock()
        parent = Budget(deadline=10.0, clock=clock).start()
        piece = parent.child(2.0).start()
        clock.advance(3.0)
        parent.consume()  # parent has 7s left
        with pytest.raises(BudgetExceeded):
            piece.consume()

    def test_slice_charges_parent_counters(self):
        parent = Budget(max_samples=5)
        piece = parent.child(60.0).start()
        piece.consume(samples=3)
        assert parent.samples == 0  # charged on close, not as it goes
        with pytest.raises(BudgetExceeded, match="6 samples drawn, cap is 5"):
            piece.consume(samples=3)
        piece.close()
        assert parent.samples == 6
        piece.close()  # charges once
        assert parent.samples == 6

    def test_remaining_time_is_min_of_slice_and_parent(self):
        clock = FakeClock()
        parent = Budget(deadline=1.0, clock=clock).start()
        piece = parent.child(5.0).start()
        assert piece.remaining_time() == pytest.approx(1.0)
        assert piece.deadline_seconds == 5.0

    def test_caps_delegate(self):
        parent = Budget(max_worlds=9, max_atoms=12)
        piece = parent.child(1.0)
        assert piece.max_worlds == 9
        assert piece.world_limit() == 9
        assert type(piece) is Budget

    def test_slices_nest(self):
        clock = FakeClock()
        parent = Budget(deadline=10.0, clock=clock).start()
        inner = parent.child(4.0).start().child(1.0).start()
        clock.advance(2.0)
        with pytest.raises(BudgetExceeded):
            inner.consume()

    def test_nested_children_charge_up_the_chain(self):
        root = Budget(max_worlds=10)
        middle = root.child()
        inner = middle.child(5.0)
        inner.consume(worlds=4)
        inner.close()
        assert (middle.worlds, root.worlds) == (4, 0)
        middle.close()
        assert root.worlds == 4

    def test_no_charge_into_the_default_budget(self):
        piece = DEFAULT_BUDGET.child()
        piece.consume(samples=7)
        piece.close()
        assert DEFAULT_BUDGET.samples == 0


class TestActiveBudget:
    def test_apply_scopes_and_restores(self):
        budget = Budget(max_samples=1)
        before = active_budget()
        with apply(budget) as installed:
            assert installed is budget
            assert active_budget() is budget
        assert active_budget() is before

    def test_apply_restores_on_error(self):
        before = active_budget()
        with pytest.raises(RuntimeError):
            with apply(Budget(max_samples=1)):
                raise RuntimeError("boom")
        assert active_budget() is before

    def test_checkpoint_hits_active_budget(self):
        with apply(Budget(max_samples=2)):
            checkpoint(samples=2)
            with pytest.raises(BudgetExceeded):
                checkpoint(samples=1)

    def test_checkpoint_noop_under_default(self):
        checkpoint(worlds=10**12)  # default budget: nothing raises
        assert active_budget() is DEFAULT_BUDGET

    def test_set_budget_none_restores_default(self):
        previous = set_budget(Budget(max_samples=1))
        try:
            assert active_budget() is not DEFAULT_BUDGET
            set_budget(None)
            assert active_budget() is DEFAULT_BUDGET
        finally:
            set_budget(previous)
