"""Differential harness: a delta session against cold enumeration.

For each seed: a random database, one of the session query shapes
(existential, universal, self-join) and a 30-step mixed stream of
weight moves, freezes, thaws, inserts and deletes, with denominators
1..12.  After every step the maintained answer must equal Theorem 4.2's
``truth_probability`` on the session's database, ``==`` on Fractions.

A second harness runs a long structural-heavy stream per seed (150
steps, about two thirds freezes, thaws, inserts and deletes, some of
them bringing atoms new to the session's variable order), so most steps
patch the session's diagram.  Besides the per-step answers it checks
the diagram's memory rule: after every update the diagram holds at most
``COMPACT_RATIO`` times the nodes its OR tree reaches, plus what that
one update created, and compaction happens somewhere in the window.

``DELTA_DIFF_SEEDS`` (environment) replays an explicit seed window for
both harnesses; the CI ``delta-differential`` lane uses it to sweep a
second window.
"""

import os
import random
from fractions import Fraction

import pytest

from repro import obs
from repro.delta import DeltaSession
from repro.delta.session import COMPACT_RATIO
from repro.reliability.exact import truth_probability

from tests.delta.streams import (
    QUERY_SHAPES,
    apply_op,
    random_db,
    random_stream,
    structural_stream,
)

STEPS = 30
STRUCTURAL_STEPS = 150


def _seeds():
    raw = os.environ.get("DELTA_DIFF_SEEDS", "")
    if raw.strip():
        return [int(token) for token in raw.replace(",", " ").split()]
    return list(range(40))


@pytest.mark.parametrize("seed", _seeds())
def test_stream_matches_enumeration(seed):
    rng = random.Random(seed)
    db = random_db(rng)
    query = QUERY_SHAPES[rng.choice(sorted(QUERY_SHAPES))]
    session = DeltaSession(db, query)
    assert session.probability() == truth_probability(db, query)
    for step, op in enumerate(random_stream(rng, db, STEPS)):
        apply_op(session, op)
        answer = session.probability()
        assert isinstance(answer, Fraction)
        assert answer == truth_probability(session.db, query), (step, op)


def _is_structural(db, op):
    """A freeze, thaw, insert or delete: anything but a weight move."""
    if op[0] != "set_mu":
        return True
    return not (0 < op[2] < 1 and 0 < db.mu(op[1]) < 1)


def _reached(diagram, *roots):
    return sum(map(len, diagram.reachable_by_level(*roots)))


def test_structural_streams_match_enumeration():
    structural = total = compactions = appended = 0
    for seed in _seeds():
        rng = random.Random(seed)
        db = random_db(rng)
        query = QUERY_SHAPES[rng.choice(sorted(QUERY_SHAPES))]
        session = DeltaSession(db, query)
        order = len(session._diagram.order)
        ops = structural_stream(rng, db, STRUCTURAL_STEPS)
        total += len(ops)
        recorder = obs.StatsRecorder()
        with obs.use(recorder):
            for step, op in enumerate(ops):
                structural += _is_structural(session.db, op)
                before = len(session._diagram)
                apply_op(session, op)
                answer = session.probability()
                assert isinstance(answer, Fraction)
                assert answer == truth_probability(session.db, query), (
                    seed, step, op,
                )
                # The maintained reachable set is the walked one, and
                # the diagram keeps to its memory rule.
                diagram = session._diagram
                assert session.diagram_size == _reached(
                    diagram, session._table.root
                ), (seed, step)
                created, live = len(diagram), _reached(diagram, *diagram.tree)
                growth = max(created - before, 0)
                assert created <= COMPACT_RATIO * live + growth, (seed, step)
        compactions += recorder.summary()["counters"].get("delta.compactions", 0)
        appended += len(session._diagram.order) > order
    assert structural >= 0.6 * total, (structural, total)
    assert compactions >= 1
    assert appended >= 1
