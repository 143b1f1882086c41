"""Differential harness: a delta session against cold enumeration.

For each seed: a random database, one of the session query shapes
(existential, universal, self-join) and a 30-step mixed stream of
weight moves, freezes, thaws, inserts and deletes, with denominators
1..12.  After every step the maintained answer must equal Theorem 4.2's
``truth_probability`` on the session's database, ``==`` on Fractions.

``DELTA_DIFF_SEEDS`` (environment) replays an explicit seed window;
the CI ``delta-differential`` lane uses it to sweep a second window.
"""

import os
import random
from fractions import Fraction

import pytest

from repro.delta import DeltaSession
from repro.reliability.exact import truth_probability

from tests.delta.streams import QUERY_SHAPES, apply_op, random_db, random_stream

STEPS = 30


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
