"""Tests for the exact reliability engines.

Strategy: the world-enumeration engine is the literal definition, so the
QF fast path (Proposition 3.1) and the grounded-DNF path (Theorem 5.4's
construction evaluated exactly) are validated against it on small random
databases, across fragments.
"""

from fractions import Fraction

import pytest

from repro.logic.datalog import reachability_query
from repro.logic.evaluator import FOQuery
from repro.relational.atoms import Atom
from repro.reliability.exact import (
    as_query,
    expected_error,
    qf_tuple_wrong_probability,
    reliability,
    truth_probability,
    wrong_probability,
)
from repro.reliability.space import worlds
from repro.reliability.unreliable import UnreliableDatabase
from repro.util.errors import QueryError
from repro.util.rng import make_rng
from repro.workloads.random_db import random_unreliable_database


def oracle_truth_probability(db, query):
    """Definitionally exact: sum world probabilities where the query holds."""
    return sum(
        (p for world, p in worlds(db) if query.evaluate(world, ())),
        Fraction(0),
    )


def oracle_expected_error(db, query):
    """Definitionally exact H_psi via full world enumeration."""
    observed = query.answers(db.structure)
    total = Fraction(0)
    for world, p in worlds(db):
        total += p * len(observed.symmetric_difference(query.answers(world)))
    return total


class TestAsQuery:
    def test_accepts_strings(self):
        query = as_query("exists x. S(x)")
        assert query.arity == 0

    def test_accepts_formulas(self):
        from repro.logic.parser import parse

        assert as_query(parse("S(x)")).arity == 1

    def test_accepts_protocol_objects(self):
        query = reachability_query()
        assert as_query(query) is query

    def test_rejects_garbage(self):
        with pytest.raises(QueryError):
            as_query(42)


class TestTruthProbability:
    @pytest.mark.parametrize(
        "sentence",
        [
            "exists x y. E(x, y) & S(y)",
            "exists x. S(x) & ~E(x, x)",
            "forall x. S(x) -> exists y. E(x, y)",
            "exists x. S(x) | exists y. E(y, y)",
            "~exists x. E(x, x)",
        ],
    )
    def test_auto_matches_oracle(self, triangle_db, sentence):
        query = FOQuery(sentence)
        assert truth_probability(triangle_db, sentence) == (
            oracle_truth_probability(triangle_db, query)
        )

    def test_methods_agree_on_existential(self, triangle_db):
        sentence = "exists x y. E(x, y) & S(x) & S(y)"
        dnf = truth_probability(triangle_db, sentence, method="dnf")
        enumerated = truth_probability(triangle_db, sentence, method="worlds")
        assert dnf == enumerated

    def test_qf_method_matches(self, triangle_db):
        sentence = "E('a', 'b') & ~S('a')"
        qf = truth_probability(triangle_db, sentence, method="qf")
        enumerated = truth_probability(triangle_db, sentence, method="worlds")
        assert qf == enumerated

    def test_qf_method_rejects_quantifiers(self, triangle_db):
        with pytest.raises(QueryError):
            truth_probability(triangle_db, "exists x. S(x)", method="qf")

    def test_dnf_method_rejects_alternation(self, triangle_db):
        with pytest.raises(QueryError):
            truth_probability(
                triangle_db, "forall x. exists y. E(x, y)", method="dnf"
            )

    def test_nonboolean_rejected(self, triangle_db):
        with pytest.raises(QueryError):
            truth_probability(triangle_db, "S(x)")

    def test_datalog_boolean_via_instantiation(self, triangle_db):
        query = reachability_query()
        p = wrong_probability(triangle_db, query, ("a", "c"))
        # Reach(a, c) holds in the observed db; wrong iff the actual world
        # breaks both the direct edge possibility and the two-hop path.
        assert 0 < p < 1

    def test_certain_database_probability_is_indicator(self, certain_db):
        assert truth_probability(certain_db, "exists x. S(x)") == 1
        assert truth_probability(certain_db, "exists x. E(x, x)") == 0


class TestWrongProbability:
    def test_true_observed_uses_complement(self, triangle_db):
        sentence = "exists x y. E(x, y) & S(y)"
        p = truth_probability(triangle_db, sentence)
        assert wrong_probability(triangle_db, sentence) == 1 - p

    def test_false_observed_uses_probability(self, triangle_db):
        sentence = "exists x. E(x, x)"
        p = truth_probability(triangle_db, sentence)
        assert wrong_probability(triangle_db, sentence) == p

    def test_arity_mismatch_rejected(self, triangle_db):
        with pytest.raises(QueryError):
            wrong_probability(triangle_db, FOQuery("S(x)"), ())


class TestExpectedErrorAndReliability:
    @pytest.mark.parametrize(
        "query_source,free",
        [
            ("E(x, y)", ("x", "y")),
            ("S(x) & ~E(x, x)", ("x",)),
            ("exists y. E(x, y) & S(y)", ("x",)),
            ("exists x y. E(x, y) & S(y)", ()),
        ],
    )
    def test_matches_oracle(self, triangle_db, query_source, free):
        query = FOQuery(query_source, free)
        assert expected_error(triangle_db, query) == oracle_expected_error(
            triangle_db, query
        )

    def test_reliability_formula(self, triangle_db):
        query = FOQuery("E(x, y)", ("x", "y"))
        h = expected_error(triangle_db, query)
        assert reliability(triangle_db, query) == 1 - h / 9

    def test_boolean_reliability(self, triangle_db):
        sentence = "exists x. E(x, x)"
        assert reliability(triangle_db, sentence) == 1 - expected_error(
            triangle_db, sentence
        )

    def test_certain_database_fully_reliable(self, certain_db):
        assert reliability(certain_db, FOQuery("E(x, y)", ("x", "y"))) == 1

    def test_datalog_reliability_matches_oracle(self, triangle_db):
        query = reachability_query()
        assert expected_error(triangle_db, query) == oracle_expected_error(
            triangle_db, query
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_random_databases_cross_engine(self, seed):
        rng = make_rng(seed)
        db = random_unreliable_database(
            rng,
            size=3,
            relations={"E": 2, "S": 1},
            density=0.4,
            error_choices=["1/4", "1/3", "0", "1/2"],
            uncertain_fraction=0.5,
        )
        query = FOQuery("exists y. E(x, y) & S(y)", ("x",))
        assert expected_error(db, query) == oracle_expected_error(db, query)


class TestQFFastPath:
    def test_proposition_31_inner_loop(self, triangle_db):
        query = FOQuery("E(x, y) & S(y)", ("x", "y"))
        for args in [("a", "b"), ("b", "c"), ("c", "a")]:
            fast = qf_tuple_wrong_probability(triangle_db, query, args)
            slow = wrong_probability(triangle_db, query, args, method="worlds")
            assert fast == slow

    def test_qf_reliability_whole_query(self, triangle_db):
        query = FOQuery("E(x, y) | S(x)", ("x", "y"))
        fast = reliability(triangle_db, query, method="qf")
        slow = reliability(triangle_db, query, method="worlds")
        assert fast == slow

    def test_scales_past_world_enumeration(self):
        # 40 uncertain atoms: 2^40 worlds is hopeless, but the QF engine
        # only ever looks at the two atoms in each instantiated formula.
        rng = make_rng(31)
        db = random_unreliable_database(
            rng, size=6, relations={"E": 2, "S": 1}, error="1/7"
        )
        assert len(db.uncertain_atoms()) == 42
        query = FOQuery("E(x, y) & S(y)", ("x", "y"))
        value = reliability(db, query, method="qf")
        assert 0 < value <= 1

    def test_clause_cap_refuses_like_any_grounding(self, triangle_db):
        """A quantifier-free sentence is grounded like every other query:
        a clause cap below its two clause templates refuses it."""
        from repro.runtime import Budget, apply
        from repro.util.errors import CostRefused

        sentence = "E('a', 'b') | S('a')"
        with apply(Budget(max_ground_clauses=1)):
            with pytest.raises(CostRefused):
                truth_probability(triangle_db, sentence, method="qf")
        with apply(Budget(max_ground_clauses=2)):
            value = truth_probability(triangle_db, sentence, method="qf")
        assert value == truth_probability(triangle_db, sentence, method="worlds")


class TestWorldEnumerationGuard:
    """The worlds engine refuses hopeless enumerations up front."""

    def big_db(self):
        # 25 uncertain atoms -> 2^25 predicted worlds > 2^20 default cap.
        return random_unreliable_database(
            make_rng(7), 5, {"E": 2}, density=1.0, uncertain_fraction=1.0
        )

    def test_refuses_past_default_atom_cap(self):
        from repro.util.errors import CostRefused

        with pytest.raises(CostRefused) as exc_info:
            truth_probability(
                self.big_db(), FOQuery("exists x y. E(x, y)"), method="worlds"
            )
        # The message names the predicted world count, so the caller
        # knows what was refused and how to override.
        assert str(1 << 25) in str(exc_info.value)
        assert exc_info.value.estimate == 1 << 25

    def test_budget_override_allows_enumeration(self, triangle_db):
        from repro.runtime import Budget, apply

        query = FOQuery("exists x y. E(x, y) & S(y)")
        with apply(Budget(max_atoms=2)):
            from repro.util.errors import CostRefused

            with pytest.raises(CostRefused):
                truth_probability(triangle_db, query, method="worlds")
        with apply(Budget(max_atoms=None)):
            value = truth_probability(triangle_db, query, method="worlds")
        assert value == truth_probability(triangle_db, query)


class TestHeldVerdict:
    """A caller's dichotomy verdict replaces the lifted route's own
    classification and changes no answer."""

    QUERIES = [
        "exists x y. E(x, y) & S(y)",  # safe
        "exists x. S(x)",  # safe, one atom
        "exists x y. E(x, y) & E(y, x)",  # self-join
        "exists x y. S(x) & E(x, y) & T(y)",  # non-hierarchical
        "exists x y. E(x, y) & x = y",  # equality
    ]

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("text", QUERIES)
    def test_answers_are_identical(self, seed, text):
        from repro.logic.safety import classify_dichotomy

        db = random_unreliable_database(
            make_rng(seed), size=3, relations={"E": 2, "S": 1, "T": 1},
            density=0.5,
        )
        query = FOQuery(text)
        verdict = classify_dichotomy(query)
        assert truth_probability(db, query, verdict=verdict) == (
            truth_probability(db, query)
        )
        assert reliability(db, query, verdict=verdict) == reliability(
            db, query
        )

    def test_no_second_classification(self, triangle_db, monkeypatch):
        from repro.logic import safety

        query = FOQuery("exists x y. E(x, y) & S(y)")
        verdict = safety.classify_dichotomy(query)
        calls = []
        classify = safety.classify_dichotomy

        def counting(query):
            calls.append(query)
            return classify(query)

        monkeypatch.setattr(safety, "classify_dichotomy", counting)
        held = reliability(triangle_db, query, verdict=verdict)
        assert calls == []
        assert reliability(triangle_db, query) == held
        assert len(calls) == 1
