"""Gray-code enumeration: the product sweep's worlds and weights, exactly.

The incremental weight updates multiply exact ``Fraction`` ratios, so
the per-world weights must equal the ``itertools.product`` sweep of the
``reliability.space.worlds`` oracle *exactly*, not approximately.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from repro import obs
from repro.kernels.gray import atom_worlds, enumerated_worlds
from repro.metafinite.reliability import metafinite_expected_error
from repro.relational.atoms import Atom
from repro.relational.builder import StructureBuilder
from repro.reliability import space
from repro.reliability.absolute import is_absolutely_reliable
from repro.reliability.exact import truth_probability
from repro.reliability.unreliable import UnreliableDatabase
from repro.runtime.budget import CHECKPOINT_CHUNK, Budget, apply
from repro.util.errors import CostRefused
from repro.util.rng import make_rng
from repro.workloads.scenarios import sensor_scenario


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
        if rng.random() < 0.2:
            mu[Atom("S", (i,))] = Fraction(1)  # a certain flip
    return UnreliableDatabase(structure, mu)


def test_gray_matches_product_exactly_on_random_databases():
    rng = random.Random(42)
    checked = 0
    for _ in range(15):
        db = _random_db(rng, rng.randint(2, 3))
        if len(db.uncertain_atoms()) > 10:
            continue
        gray = list(atom_worlds(db, db.uncertain_atoms()))
        assert dict(gray) == dict(space.worlds(db))
        assert len(gray) == 2 ** len(db.uncertain_atoms())
        assert all(isinstance(weight, Fraction) for _, weight in gray)
        checked += 1
    assert checked >= 10


def test_gray_empty_atom_list():
    rng = random.Random(1)
    db = _random_db(rng, 2)
    assert list(atom_worlds(db, [])) == [(db.observed_world(), 1)]


def test_gray_counts_all_worlds():
    rng = random.Random(7)
    db = _random_db(rng, 3)
    atoms = sorted(db.uncertain_atoms(), key=repr)[:5]
    recorder = obs.StatsRecorder()
    with obs.use(recorder):
        for _ in atom_worlds(db, atoms):
            pass
    counters = recorder.summary()["counters"]
    assert counters["exact.worlds_enumerated"] == 2 ** len(atoms)


def _tuple_walk(radices):
    """enumerated_worlds over tuples: coordinate i takes values 0..r-1
    with weight (v + 1) / (r (r + 1) / 2)."""
    choices = [
        [(v, Fraction(v + 1, r * (r + 1) // 2)) for v in range(r)]
        for r in radices
    ]

    def assign(world, slot, value):
        return world[:slot] + (value,) + world[slot + 1:]

    return choices, enumerated_worlds((0,) * len(radices), choices, assign)


@pytest.mark.parametrize("radices", [(3,), (2, 3), (3, 2, 4), (2, 2, 2), (4, 1, 3)])
def test_mixed_radix_walk_is_a_gray_code_over_the_product(radices):
    choices, walk = _tuple_walk(radices)
    worlds = list(walk)
    expected = {}
    for combo in product(*choices):
        weight = Fraction(1)
        for _, p in combo:
            weight *= p
        expected[tuple(v for v, _ in combo)] = weight
    assert dict(worlds) == expected
    assert len(worlds) == len(expected)
    for (before, _), (after, _) in zip(worlds, worlds[1:]):
        changed = [i for i, (a, b) in enumerate(zip(before, after)) if a != b]
        assert len(changed) == 1
        (slot,) = changed
        assert abs(before[slot] - after[slot]) == 1  # reflected: one step


def test_walk_is_charged_per_chunk_before_each_chunk():
    _, walk = _tuple_walk((5, 5, 5))  # 125 worlds: chunks of 64 and 61
    budget = Budget(max_worlds=125)
    with apply(budget):
        first = next(walk)
        assert budget.worlds == CHECKPOINT_CHUNK
        assert first[0] == (0, 0, 0)
        rest = list(walk)
    assert budget.worlds == 125 == 1 + len(rest)


def test_support_is_preflighted_as_the_product_of_the_radices():
    _, walk = _tuple_walk((3, 3, 3))
    with apply(Budget(max_worlds=26)):
        with pytest.raises(CostRefused, match="3 uncertain entries needs 27 worlds"):
            next(walk)
    db = _random_db(random.Random(3), 3)
    atoms = db.uncertain_atoms()[:5]
    with apply(Budget(max_worlds=31)):
        with pytest.raises(CostRefused, match="5 uncertain atoms needs 2\\^5 = 32"):
            next(atom_worlds(db, atoms))


def _seven_uncertain_atoms():
    builder = StructureBuilder([f"e{i}" for i in range(7)])
    builder.relation("S", 1)
    builder.add("S", ("e2",))
    errors = {Atom("S", (f"e{i}",)): Fraction(1, i + 2) for i in range(7)}
    return UnreliableDatabase(builder.build(), errors)


def _worlds_route():
    truth_probability(_seven_uncertain_atoms(), "exists x. S(x)", "worlds")
    return 2**7


def _witness_search():
    # A tautology agrees in every world: the search walks all of them.
    assert is_absolutely_reliable(
        _seven_uncertain_atoms(), "exists x. S(x) | ~S(x)", "witness"
    )
    return 2**7


def _metafinite_walk():
    scenario = sensor_scenario(make_rng(5), sensors=5)
    metafinite_expected_error(scenario.db, scenario.queries["total"])
    return scenario.db.support_size()


@pytest.mark.parametrize("walk", [_worlds_route, _witness_search, _metafinite_walk])
def test_full_walk_charges_exactly_its_support(walk):
    support = walk()  # unbudgeted: learn the support size
    assert support > CHECKPOINT_CHUNK  # more than one chunk
    budget = Budget(max_worlds=support)
    recorder = obs.StatsRecorder()
    with obs.use(recorder), apply(budget):
        walk()
    assert budget.worlds == support
    assert recorder.summary()["counters"]["exact.worlds_enumerated"] == support
    with apply(Budget(max_worlds=support - 1)):
        with pytest.raises(CostRefused):
            walk()
