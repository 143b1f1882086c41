"""Fault sweep: an aborted update leaves the session exactly as it was.

Each update kind (a weight move, and the structural freeze, thaw,
insert and delete) is aborted at every budget checkpoint it reaches,
by raising a cap one step at a time until the update completes.  After
each abort the session must still hold the old database and the old
answer; the next update, run without a budget, must then equal a cold
recompute.
"""

import random
from fractions import Fraction
from itertools import count

import pytest

from repro.delta import DeltaSession
from repro.reliability.exact import truth_probability
from repro.runtime.budget import Budget, apply
from repro.util.errors import BudgetExceeded

from tests.delta.streams import ATOMS, QUERY_SHAPES, apply_op, random_db

SEEDS = (0, 1, 2, 3)


def _updates(db, query):
    """One update of each kind that really changes ``db``.

    The weight move picks an atom the answer depends on, so it reaches
    the diagram, and a new denominator, so it also rescales.
    """
    live = db.uncertain_atoms()
    certain = [atom for atom in ATOMS if db.mu(atom) == 0]
    present = [a for a in certain if db.structure.holds(a)]
    absent = [a for a in certain if not db.structure.holds(a)]
    before = truth_probability(db, query)
    updates = {"freeze": ("set_mu", live[-1], Fraction(0))}
    for atom in live:
        new = Fraction(1, 11) if db.mu(atom).denominator != 11 else Fraction(2, 7)
        if truth_probability(db.with_errors({atom: new}), query) != before:
            updates["weight"] = ("set_mu", atom, new)
            break
    updates["thaw"] = ("set_mu", certain[0], Fraction(5, 12))
    if absent:
        updates["insert"] = ("insert", absent[0])
    if present:
        updates["delete"] = ("delete", present[0])
    return updates


def _ticking(n):
    """A budget whose deadline passes at its ``n + 1``-th checkpoint:
    every checkpoint reads the clock once, one tick per read."""
    ticks = count()
    return Budget(deadline=n + 0.5, clock=lambda: float(next(ticks)))


#: Cap kind -> the budget of sweep step ``n`` (0, 1, 2, ...):
#: ``checkpoint`` aborts at any kind of checkpoint, the others cap the
#: world or clause ledger at ``n + 1``.
CAPS = {
    "checkpoint": _ticking,
    "worlds": lambda n: Budget(max_worlds=n + 1),
    "clauses": lambda n: Budget(max_ground_clauses=n + 1),
}


CASES = [
    (seed, shape, kind)
    for seed in SEEDS
    for shape in QUERY_SHAPES
    for kind in ("weight", "freeze", "thaw", "insert", "delete")
]


@pytest.mark.parametrize("cap", sorted(CAPS))
@pytest.mark.parametrize("seed, shape, kind", CASES)
def test_aborted_update_leaves_the_session_intact(seed, shape, kind, cap):
    db = random_db(random.Random(seed))
    query = QUERY_SHAPES[shape]
    updates = _updates(db, query)
    if kind not in updates:
        pytest.skip(f"seed {seed} has no {kind} update for {shape}")
    op = updates[kind]
    before = truth_probability(db, query)
    aborts = 0
    for step in range(10_000):
        session = DeltaSession(db, query)
        size = session.diagram_size
        try:
            with apply(CAPS[cap](step)):
                apply_op(session, op)
        except BudgetExceeded:
            aborts += 1
        else:
            break
        assert session.db is db
        assert session.probability() == before
        assert session.diagram_size == size
        # The session is usable: the update now lands on the cold value.
        apply_op(session, op)
        assert session.probability() == truth_probability(session.db, query)
        assert session.probability() == DeltaSession(
            session.db, query
        ).probability()
    assert session.probability() == truth_probability(session.db, query)
    if cap == "checkpoint":
        assert aborts > 0  # every update reaches some checkpoint
