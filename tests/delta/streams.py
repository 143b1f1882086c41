"""Seeded databases and update streams shared by the delta test modules.

Probabilities are drawn with denominators 1..12, so consecutive weights
of one atom usually have different denominators: the value table's
rescale path runs on most weight updates.
"""

import random
from fractions import Fraction
from typing import List, Tuple

from repro.relational.atoms import Atom
from repro.relational.schema import Vocabulary
from repro.relational.structure import Structure
from repro.reliability.unreliable import UnreliableDatabase

UNIVERSE = ("a", "b", "c")
VOCAB = Vocabulary([("E", 2), ("S", 1)])
ATOMS = tuple(
    Atom("E", (x, y)) for x in UNIVERSE for y in UNIVERSE
) + tuple(Atom("S", (x,)) for x in UNIVERSE)

#: The query shapes a session grounds: existential, universal (through
#: its negation) and a self-join.
QUERY_SHAPES = {
    "existential": "exists x y. S(x) & E(x, y) & ~S(y)",
    "universal": "forall x y. ~E(x, y) | S(y)",
    "self-join": "exists x y. E(x, y) & E(y, x) & S(x)",
}

#: At most this many atoms start uncertain, so a cold
#: ``truth_probability`` enumerates at most 2**10 worlds.
MAX_UNCERTAIN = 10

Op = Tuple


def uncertain(rng: random.Random) -> Fraction:
    """An error probability strictly inside (0, 1), denominator 2..12."""
    den = rng.randint(2, 12)
    return Fraction(rng.randint(1, den - 1), den)


def random_db(rng: random.Random) -> UnreliableDatabase:
    rows = {
        "E": {atom.args for atom in ATOMS[:9] if rng.random() < 0.3},
        "S": {atom.args for atom in ATOMS[9:] if rng.random() < 0.3},
    }
    structure = Structure(VOCAB, UNIVERSE, rows)
    chosen = rng.sample(ATOMS, rng.randint(6, MAX_UNCERTAIN))
    return UnreliableDatabase(
        structure, {atom: uncertain(rng) for atom in chosen}
    )


def random_stream(
    rng: random.Random, db: UnreliableDatabase, steps: int
) -> List[Op]:
    """A mixed stream: weight moves, freezes, thaws, inserts, deletes.

    Thaws only revive frozen atoms and weight moves only touch atoms
    that are uncertain at that point, so the uncertain count never
    exceeds :data:`MAX_UNCERTAIN` and every cold check stays small.
    """
    live = set(db.uncertain_atoms())
    frozen = []
    ops: List[Op] = []
    for _ in range(steps):
        kind = rng.random()
        if kind < 0.55 and live:
            atom = rng.choice(sorted(live, key=repr))
            ops.append(("set_mu", atom, uncertain(rng)))
        elif kind < 0.65 and live:
            atom = rng.choice(sorted(live, key=repr))
            live.discard(atom)
            frozen.append(atom)
            ops.append(("set_mu", atom, Fraction(rng.randint(0, 1))))
        elif kind < 0.85 and frozen:
            atom = frozen.pop(rng.randrange(len(frozen)))
            live.add(atom)
            ops.append(("set_mu", atom, uncertain(rng)))
        else:
            op = "insert" if rng.random() < 0.5 else "delete"
            ops.append((op, rng.choice(ATOMS)))
    return ops


def apply_op(session, op: Op) -> None:
    getattr(session, op[0])(*op[1:])


def structural_stream(
    rng: random.Random, db: UnreliableDatabase, steps: int
) -> List[Op]:
    """A structural-heavy stream: about two thirds of its operations
    are freezes, thaws, inserts and deletes.

    Thaws pick any deterministic atom, so they also reach atoms that
    were never uncertain (new to a session's variable order), and so do
    inserts that revive folded clauses.  The uncertain count never
    exceeds :data:`MAX_UNCERTAIN`.
    """
    live = set(db.uncertain_atoms())
    ops: List[Op] = []
    for _ in range(steps):
        kind = rng.random()
        certain = sorted(set(ATOMS) - live, key=repr)
        if kind < 0.3 and live:
            atom = rng.choice(sorted(live, key=repr))
            ops.append(("set_mu", atom, uncertain(rng)))
        elif kind < 0.5 and live:
            atom = rng.choice(sorted(live, key=repr))
            live.discard(atom)
            ops.append(("set_mu", atom, Fraction(rng.randint(0, 1))))
        elif kind < 0.7 and certain and len(live) < MAX_UNCERTAIN:
            atom = rng.choice(certain)
            live.add(atom)
            ops.append(("set_mu", atom, uncertain(rng)))
        else:
            op = "insert" if rng.random() < 0.5 else "delete"
            ops.append((op, rng.choice(ATOMS)))
    return ops
