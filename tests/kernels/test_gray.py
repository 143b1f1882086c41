"""Gray-code enumeration: bit-identical to the product sweep, always.

The incremental weight updates multiply and divide exact ``Fraction``
ratios, so the per-world weights — and therefore the sums — must equal
the ``itertools.product`` sweep *exactly*, not approximately.
"""

import random
from fractions import Fraction

from repro import obs
from repro.kernels.gray import (
    gray_enumeration_probability,
    product_enumeration_probability,
)
from repro.relational.atoms import Atom
from repro.relational.builder import StructureBuilder
from repro.reliability.unreliable import UnreliableDatabase


def _random_db(rng, size):
    builder = StructureBuilder(list(range(size)))
    builder.relation("E", 2)
    builder.relation("S", 1)
    for i in range(size):
        for j in range(size):
            if rng.random() < 0.4:
                builder.add("E", (i, j))
        if rng.random() < 0.5:
            builder.add("S", (i,))
    structure = builder.build()
    mu = {}
    for i in range(size):
        for j in range(size):
            if rng.random() < 0.5:
                mu[Atom("E", (i, j))] = Fraction(rng.randint(1, 7), 8)
        if rng.random() < 0.5:
            mu[Atom("S", (i,))] = Fraction(rng.randint(1, 7), 8)
    return UnreliableDatabase(structure, mu)


def test_gray_matches_product_exactly_on_random_databases():
    rng = random.Random(42)
    for _ in range(15):
        db = _random_db(rng, rng.randint(2, 3))
        atoms = sorted(db.uncertain_atoms(), key=repr)[:8]
        if not atoms:
            continue
        target = atoms[0]
        predicate = lambda world: world.holds(target)
        gray = gray_enumeration_probability(db, atoms, predicate)
        product = product_enumeration_probability(db, atoms, predicate)
        assert gray == product
        assert isinstance(gray, Fraction)


def test_gray_empty_atom_list():
    rng = random.Random(1)
    db = _random_db(rng, 2)
    assert gray_enumeration_probability(db, [], lambda w: True) == 1
    assert gray_enumeration_probability(db, [], lambda w: False) == 0


def test_gray_counts_all_worlds():
    rng = random.Random(7)
    db = _random_db(rng, 3)
    atoms = sorted(db.uncertain_atoms(), key=repr)[:5]
    recorder = obs.StatsRecorder()
    with obs.use(recorder):
        gray_enumeration_probability(db, atoms, lambda w: True)
    counters = recorder.summary()["counters"]
    assert counters["exact.worlds_enumerated"] == 2 ** len(atoms)
    if len(atoms) > 1:
        assert counters["kernels.gray.steps"] == 2 ** len(atoms) - 1
