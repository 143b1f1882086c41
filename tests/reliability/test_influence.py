"""Tests for atom-influence analysis."""

from fractions import Fraction

import pytest

from repro.logic.evaluator import FOQuery
from repro.logic.fo import neg
from repro.logic.parser import parse
from repro.propositional.counting import probability_enumerate
from repro.relational.atoms import Atom
from repro.relational.builder import StructureBuilder
from repro.reliability.exact import truth_probability
from repro.reliability.grounding import (
    ground_existential_to_dnf,
    grounding_probabilities,
)
from repro.reliability.influence import (
    atom_influence,
    most_fragile_atoms,
    wrong_probability_sensitivity,
)
from repro.reliability.unreliable import UnreliableDatabase
from repro.util.errors import QueryError
from repro.util.rng import make_rng


@pytest.fixture
def two_flag_db():
    builder = StructureBuilder(["a", "b"])
    builder.relation("P", 1)
    builder.add("P", ("a",))
    return UnreliableDatabase(
        builder.build(),
        {
            Atom("P", ("a",)): Fraction(1, 4),  # nu = 3/4
            Atom("P", ("b",)): Fraction(1, 3),  # nu = 1/3
        },
    )


class TestAtomInfluence:
    def test_disjunction_influences(self, two_flag_db):
        # psi = exists x. P(x) == P(a) | P(b).
        # I(P(a)) = 1 - nu(P(b)) = 2/3;  I(P(b)) = 1 - nu(P(a)) = 1/4.
        influences = atom_influence(two_flag_db, "exists x. P(x)")
        assert influences[Atom("P", ("a",))] == Fraction(2, 3)
        assert influences[Atom("P", ("b",))] == Fraction(1, 4)

    def test_matches_finite_difference(self, triangle_db):
        sentence = "exists x y. E(x, y) & S(y)"
        influences = atom_influence(triangle_db, sentence)
        for atom, influence in influences.items():
            base_mu = triangle_db.mu(atom)
            # Condition by forcing the atom's actual value via mu in
            # {0, 1} with the same observed structure.
            forced_true = triangle_db.with_errors(
                {atom: 0 if triangle_db.structure.holds(atom) else 1}
            )
            forced_false = triangle_db.with_errors(
                {atom: 1 if triangle_db.structure.holds(atom) else 0}
            )
            high = truth_probability(forced_true, sentence)
            low = truth_probability(forced_false, sentence)
            assert influence == high - low, atom

    def test_monotone_query_nonnegative(self, triangle_db):
        influences = atom_influence(triangle_db, "exists x y. E(x, y) & S(x)")
        assert all(v >= 0 for v in influences.values())

    def test_universal_sentence_sign_flip(self, two_flag_db):
        # forall x. P(x): raising nu of either flag raises the truth
        # probability too, so influences are positive after the internal
        # negation is unwound.
        influences = atom_influence(two_flag_db, "forall x. P(x)")
        assert influences[Atom("P", ("a",))] == Fraction(1, 3)
        assert influences[Atom("P", ("b",))] == Fraction(3, 4)

    def test_certain_sentence_no_influences(self, certain_db):
        assert atom_influence(certain_db, "exists x y. E(x, y)") == {}

    def test_alternating_query_rejected(self, triangle_db):
        with pytest.raises(QueryError):
            atom_influence(triangle_db, "forall x. exists y. E(x, y)")

    def test_non_boolean_rejected(self, triangle_db):
        with pytest.raises(QueryError):
            atom_influence(triangle_db, FOQuery("S(x)"))


class TestSensitivityAndRanking:
    def test_sensitivity_sign_tracks_observed_answer(self, two_flag_db):
        # Observed: P(a) holds, so "exists x. P(x)" is observed true;
        # increasing any nu makes Wrong less likely -> negative.
        sensitivity = wrong_probability_sensitivity(
            two_flag_db, "exists x. P(x)"
        )
        assert all(v <= 0 for v in sensitivity.values())

    def test_sensitivity_positive_when_observed_false(self, two_flag_db):
        # "forall x. P(x)" observed false (P(b) absent): more nu -> more
        # likely the actual database satisfies it -> Wrong rises.
        sensitivity = wrong_probability_sensitivity(
            two_flag_db, "forall x. P(x)"
        )
        assert all(v >= 0 for v in sensitivity.values())

    def test_most_fragile_ranking(self, two_flag_db):
        ranked = most_fragile_atoms(two_flag_db, "exists x. P(x)")
        # score(P(a)) = 2/3 * 3/4 * 1/4 = 1/8
        # score(P(b)) = 1/4 * 1/3 * 2/3 = 1/18 -> P(a) first.
        assert ranked[0][0] == Atom("P", ("a",))
        assert ranked[0][1] == Fraction(1, 8)
        assert ranked[1][1] == Fraction(1, 18)

    def test_limit_respected(self, triangle_db):
        ranked = most_fragile_atoms(
            triangle_db, "exists x y. E(x, y) & S(y)", limit=2
        )
        assert len(ranked) <= 2


class TestBDDEngine:
    """The exact influences (one ROBDD) equal the conditioning definition
    evaluated by the enumeration oracle on the grounded DNF."""

    @staticmethod
    def _conditioning(db, sentence, sign=1):
        formula = parse(sentence)
        if sign < 0:
            formula = neg(formula)
        dnf = ground_existential_to_dnf(db, formula).dnf
        probs = grounding_probabilities(db, dnf)
        return {
            atom: sign * (
                probability_enumerate(dnf.restrict(atom, True), probs)
                - probability_enumerate(dnf.restrict(atom, False), probs)
            )
            for atom in dnf.variables
        }

    def test_bdd_matches_conditioning(self, triangle_db):
        sentence = "exists x y. E(x, y) & S(y)"
        assert atom_influence(triangle_db, sentence) == self._conditioning(
            triangle_db, sentence
        )

    def test_bdd_universal_sign(self, two_flag_db):
        sentence = "forall x. P(x)"
        assert atom_influence(two_flag_db, sentence) == self._conditioning(
            two_flag_db, sentence, sign=-1
        )


class TestSampledInfluence:
    def test_tracks_exact_influences(self, triangle_db):
        sentence = "exists x y. E(x, y) & S(y)"
        exact = atom_influence(triangle_db, sentence)
        sampled = atom_influence(
            triangle_db, sentence, epsilon=0.05, delta=0.05, rng=make_rng(3)
        )
        assert sampled.keys() == exact.keys()
        for atom, value in exact.items():
            assert abs(sampled[atom] - value) <= 0.1, atom

    def test_needs_delta_and_rng(self, triangle_db):
        with pytest.raises(QueryError):
            atom_influence(triangle_db, "exists x. S(x)", epsilon=0.1)

