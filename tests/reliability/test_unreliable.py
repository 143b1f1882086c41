"""Tests for the unreliable-database model (Definition 2.1)."""

from fractions import Fraction

import pytest

from repro.relational.atoms import Atom
from repro.relational.builder import StructureBuilder
from repro.reliability.unreliable import UnreliableDatabase, uniform_error
from repro.util.errors import ProbabilityError, VocabularyError
from repro.util.rng import make_rng


class TestConstruction:
    def test_mu_defaults_to_zero(self, triangle):
        db = UnreliableDatabase(triangle)
        assert db.mu(Atom("E", ("a", "b"))) == 0
        assert db.uncertain_atoms() == ()

    def test_mu_lookup_and_parsing(self, triangle):
        db = UnreliableDatabase(triangle, {Atom("E", ("a", "b")): "1/3"})
        assert db.mu(Atom("E", ("a", "b"))) == Fraction(1, 3)

    def test_float_probability_parsed_decimally(self, triangle):
        db = UnreliableDatabase(triangle, {Atom("S", ("a",)): 0.1})
        assert db.mu(Atom("S", ("a",))) == Fraction(1, 10)

    def test_out_of_range_rejected(self, triangle):
        with pytest.raises(ProbabilityError):
            UnreliableDatabase(triangle, {Atom("S", ("a",)): 2})

    def test_bad_arity_rejected(self, triangle):
        with pytest.raises(VocabularyError):
            UnreliableDatabase(triangle, {Atom("E", ("a",)): Fraction(1, 2)})

    def test_foreign_element_rejected(self, triangle):
        with pytest.raises(VocabularyError):
            UnreliableDatabase(triangle, {Atom("S", ("zz",)): Fraction(1, 2)})

    def test_unknown_relation_rejected(self, triangle):
        with pytest.raises(VocabularyError):
            UnreliableDatabase(triangle, {Atom("Q", ("a",)): Fraction(1, 2)})


class TestNu:
    def test_nu_of_true_atom(self, triangle_db):
        # E(a, b) holds with error 1/4, so nu = 3/4.
        assert triangle_db.nu(Atom("E", ("a", "b"))) == Fraction(3, 4)

    def test_nu_of_false_atom(self, triangle_db):
        # E(a, c) does not hold, error 1/10, so nu = 1/10.
        assert triangle_db.nu(Atom("E", ("a", "c"))) == Fraction(1, 10)

    def test_nu_of_certain_atom(self, triangle_db):
        assert triangle_db.nu(Atom("E", ("b", "c"))) == 1
        assert triangle_db.nu(Atom("E", ("c", "a"))) == 0


class TestUncertainAtoms:
    def test_sorted_and_complete(self, triangle_db):
        atoms = triangle_db.uncertain_atoms()
        assert len(atoms) == 4
        assert list(atoms) == sorted(atoms, key=repr)

    def test_mu_one_is_not_uncertain(self, triangle):
        db = UnreliableDatabase(triangle, {Atom("S", ("a",)): 1})
        assert db.uncertain_atoms() == ()
        assert db.certain_flips() == (Atom("S", ("a",)),)

    def test_default_error_makes_all_uncertain(self, triangle):
        db = UnreliableDatabase(triangle, default_error=Fraction(1, 10))
        assert len(db.uncertain_atoms()) == 9 + 3


class TestSampling:
    def test_certain_db_samples_itself(self, certain_db, rng):
        assert certain_db.sample(rng) == certain_db.structure

    def test_certain_flip_always_applied(self, triangle, rng):
        db = UnreliableDatabase(triangle, {Atom("S", ("b",)): 1})
        for _ in range(5):
            world = db.sample(rng)
            assert not world.holds(Atom("S", ("b",)))

    def test_sample_frequency_tracks_mu(self, triangle):
        rng = make_rng(99)
        atom = Atom("E", ("a", "c"))
        db = UnreliableDatabase(triangle, {atom: Fraction(1, 4)})
        hits = sum(1 for _ in range(4000) if db.sample(rng).holds(atom))
        assert 0.20 <= hits / 4000 <= 0.30

    def test_observed_world_applies_certain_flips(self, triangle):
        db = UnreliableDatabase(triangle, {Atom("S", ("b",)): 1})
        assert not db.observed_world().holds(Atom("S", ("b",)))
        # The observed *structure* keeps the original value.
        assert db.structure.holds(Atom("S", ("b",)))


class TestDerivedDatabases:
    def test_with_errors_merges(self, triangle_db):
        updated = triangle_db.with_errors({Atom("S", ("c",)): Fraction(1, 2)})
        assert updated.mu(Atom("S", ("c",))) == Fraction(1, 2)
        assert updated.mu(Atom("E", ("a", "b"))) == Fraction(1, 4)

    def test_with_structure_keeps_mu(self, triangle_db, triangle):
        flipped = triangle.flip(Atom("S", ("c",)))
        moved = triangle_db.with_structure(flipped)
        assert moved.mu(Atom("E", ("a", "b"))) == Fraction(1, 4)
        assert moved.structure == flipped

    @pytest.mark.parametrize("default", [0, 1, Fraction(1, 6)])
    def test_with_structure_equals_constructor(self, triangle, default):
        # The same universe and vocabulary reuse the trusted table (an
        # uncertain default rebuilds the index): either way the result
        # must equal a database built from scratch.
        mu = {
            Atom("E", ("a", "c")): Fraction(1, 10),
            Atom("S", ("b",)): Fraction(1, 5),
            Atom("S", ("c",)): 0,
        }
        db = UnreliableDatabase(triangle, mu, default_error=default)
        for atom in (Atom("S", ("c",)), Atom("E", ("b", "a"))):
            structure = db.structure.flip(atom)
            moved = db.with_structure(structure)
            built = UnreliableDatabase(structure, mu, default_error=default)
            assert moved.structure == structure
            for each in structure.atoms():
                assert moved.mu(each) == built.mu(each)
                assert moved.nu(each) == built.nu(each)
            assert moved.uncertain_atoms() == built.uncertain_atoms()
            assert moved.fingerprint() == built.fingerprint()
            db = moved

    def test_with_structure_over_a_new_universe_revalidates(self, triangle_db):
        builder = StructureBuilder(["a", "b"])
        builder.relation("E", 2).relation("S", 1)
        with pytest.raises(VocabularyError):
            triangle_db.with_structure(builder.build())

    def test_error_table_is_copy(self, triangle_db):
        table = triangle_db.error_table()
        table[Atom("S", ("c",))] = Fraction(1, 2)
        assert triangle_db.mu(Atom("S", ("c",))) == 0


class TestPositiveOnlyModel:
    def test_positive_only_detection(self, triangle):
        positive = UnreliableDatabase(
            triangle, {Atom("E", ("a", "b")): Fraction(1, 4)}
        )
        assert positive.is_positive_only()
        negative = UnreliableDatabase(
            triangle, {Atom("E", ("a", "c")): Fraction(1, 4)}
        )
        assert not negative.is_positive_only()

    def test_uniform_error_positive_only(self, triangle):
        db = uniform_error(triangle, Fraction(1, 8), positive_only=True)
        assert db.is_positive_only()
        assert len(db.uncertain_atoms()) == 3  # only the three facts

    def test_uniform_error_full(self, triangle):
        db = uniform_error(triangle, Fraction(1, 8))
        assert len(db.uncertain_atoms()) == 12

    def test_uniform_error_selected_relations(self, triangle):
        db = uniform_error(triangle, Fraction(1, 8), relations=["S"])
        assert all(a.relation == "S" for a in db.uncertain_atoms())

    def test_uniform_error_unknown_relation(self, triangle):
        with pytest.raises(VocabularyError):
            uniform_error(triangle, Fraction(1, 8), relations=["Nope"])


class TestEvidenceConditioning:
    def test_confirming_evidence_sets_mu_zero(self, triangle_db):
        atom = Atom("E", ("a", "b"))  # observed true, mu = 1/4
        conditioned = triangle_db.given({atom: True})
        assert conditioned.mu(atom) == 0
        assert conditioned.nu(atom) == 1

    def test_contradicting_evidence_sets_mu_one(self, triangle_db):
        atom = Atom("E", ("a", "b"))
        conditioned = triangle_db.given({atom: False})
        assert conditioned.mu(atom) == 1
        assert conditioned.nu(atom) == 0

    def test_zero_probability_evidence_rejected(self, triangle_db):
        certain = Atom("E", ("b", "c"))  # mu = 0, observed true
        with pytest.raises(ProbabilityError):
            triangle_db.given({certain: False})

    def test_conditioning_matches_bayes_on_worlds(self, triangle_db):
        from repro.reliability.exact import truth_probability
        from fractions import Fraction as F

        atom = Atom("S", ("a",))
        sentence = "exists x y. E(x, y) & S(x)"
        # P[psi | S(a) actual] via Bayes over the world space.
        joint = truth_probability(
            triangle_db.given({atom: True}), sentence, method="worlds"
        )
        # Manual: P[psi & S(a)] / P[S(a)].
        from repro.reliability.space import worlds
        from repro.logic.evaluator import FOQuery

        query = FOQuery(sentence)
        num = sum(
            p
            for world, p in worlds(triangle_db)
            if world.holds(atom) and query.evaluate(world, ())
        )
        den = triangle_db.nu(atom)
        assert joint == num / den


def _string_database(rng):
    """A seeded database over string elements, quotes and digits
    included, so their reprs order differently from the strings."""
    universe = sorted(
        {rng.choice(["a", "B", "x'y", 'q"r', "10", "9", ""]) + str(i)
         for i in range(rng.randint(2, 6))}
    )
    builder = StructureBuilder(universe)
    builder.relation("E", 2).relation("S", 1)
    mu = {}
    for left in universe:
        if rng.random() < 0.5:
            builder.add("S", (left,))
        mu[Atom("S", (left,))] = rng.choice(["1/4", "1", "0"])
        for right in universe:
            if rng.random() < 0.3:
                builder.add("E", (left, right))
            if rng.random() < 0.6:
                mu[Atom("E", (left, right))] = rng.choice(["1/3", "1"])
    return UnreliableDatabase(builder.build(), mu)


@pytest.mark.parametrize("seed", range(10))
def test_atom_order_is_repr_order(seed):
    from repro.workloads.random_db import random_unreliable_database

    rng = make_rng(seed)
    ints = random_unreliable_database(
        rng, size=rng.randint(2, 12), relations={"E": 2, "S": 1},
        density=0.4, uncertain_fraction=0.7,
        error_choices=["1/8", "1/2", "1"],
    )
    for db in (ints, _string_database(rng)):
        uncertain = db.uncertain_atoms()
        assert list(uncertain) == sorted(uncertain, key=repr)
        flips = db.certain_flips()
        assert list(flips) == sorted(flips, key=repr)
        # The patched index of with_errors keeps the same order.
        atoms = list(db.structure.atoms())
        extra = {rng.choice(atoms): "1/5" for _ in range(3)}
        patched = db.with_errors(extra).uncertain_atoms()
        assert list(patched) == sorted(patched, key=repr)
