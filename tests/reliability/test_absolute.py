"""Tests for the absolute-reliability decision procedures (Lemmas 5.7-5.9)."""

from fractions import Fraction

import pytest

from repro import obs
from repro.logic.datalog import reachability_query
from repro.logic.evaluator import FOQuery
from repro.relational.atoms import Atom
from repro.relational.builder import StructureBuilder
from repro.reliability.absolute import is_absolutely_reliable
from repro.reliability.exact import expected_error
from repro.reliability.unreliable import UnreliableDatabase
from repro.runtime.budget import CHECKPOINT_CHUNK, Budget, apply
from repro.util.errors import BudgetExceeded, CostRefused, QueryError
from repro.util.rng import make_rng
from repro.workloads.random_db import random_unreliable_database


class TestBasics:
    def test_certain_database_is_absolutely_reliable(self, certain_db):
        assert is_absolutely_reliable(certain_db, "exists x y. E(x, y)")
        assert is_absolutely_reliable(certain_db, FOQuery("E(x, y)", ("x", "y")))

    def test_uncertainty_on_relevant_atom_breaks_it(self, triangle_db):
        assert not is_absolutely_reliable(
            triangle_db, FOQuery("E(x, y)", ("x", "y"))
        )

    def test_uncertainty_on_irrelevant_relation_is_harmless(self, triangle):
        db = UnreliableDatabase(triangle, {Atom("S", ("a",)): Fraction(1, 3)})
        assert is_absolutely_reliable(db, "exists x y. E(x, y)")

    def test_unknown_method_rejected(self, certain_db):
        with pytest.raises(QueryError):
            is_absolutely_reliable(certain_db, "exists x. S(x)", method="hm")


class TestRedundancyMakesReliable:
    def test_boolean_existential_with_certain_witness(self, triangle):
        # E(b, c) is certain, so "some edge exists" survives any flip of
        # the uncertain atom E(a, b).
        db = UnreliableDatabase(triangle, {Atom("E", ("a", "b")): Fraction(1, 4)})
        assert is_absolutely_reliable(db, "exists x y. E(x, y)")

    def test_tautological_query_always_reliable(self, triangle_db):
        assert is_absolutely_reliable(triangle_db, "exists x. S(x) | ~S(x)")

    def test_universal_with_certain_counterexample(self, triangle):
        # "forall x. S(x)" is observed false; S(c) is certainly false, so
        # no world can make the sentence true.
        db = UnreliableDatabase(triangle, {Atom("S", ("a",)): Fraction(1, 2)})
        assert is_absolutely_reliable(db, "forall x. S(x)")

    def test_universal_broken_when_counterexample_uncertain(self, triangle):
        # All three S-atoms uncertain: the all-true world flips the answer.
        db = UnreliableDatabase(
            triangle,
            {Atom("S", (v,)): Fraction(1, 2) for v in ("a", "b", "c")},
        )
        assert not is_absolutely_reliable(db, "forall x. S(x)")


class TestMethodsAgree:
    @pytest.mark.parametrize("seed", range(6))
    def test_auto_exact_witness_coincide(self, seed):
        rng = make_rng(seed)
        db = random_unreliable_database(
            rng,
            size=3,
            relations={"E": 2, "S": 1},
            density=0.4,
            error_choices=["0", "0", "1/4"],
        )
        for source, free in [
            ("exists x y. E(x, y) & S(y)", ()),
            ("forall x. exists y. E(x, y)", ()),
            ("E(x, y)", ("x", "y")),
        ]:
            query = FOQuery(source, free)
            auto = is_absolutely_reliable(db, query, "auto")
            exact = is_absolutely_reliable(db, query, "exact")
            witness = is_absolutely_reliable(db, query, "witness")
            assert auto == exact == witness, (seed, source)

    @pytest.mark.parametrize("seed", range(3))
    def test_agrees_with_zero_expected_error(self, seed):
        rng = make_rng(100 + seed)
        db = random_unreliable_database(
            rng,
            size=3,
            relations={"E": 2, "S": 1},
            density=0.5,
            error_choices=["0", "1/3"],
            uncertain_fraction=0.3,
        )
        query = FOQuery("exists x y. E(x, y) & S(y)")
        assert is_absolutely_reliable(db, query) == (
            expected_error(db, query) == 0
        )

    def test_datalog_query_witness_path(self, triangle):
        db = UnreliableDatabase(triangle, {Atom("E", ("a", "c")): Fraction(1, 8)})
        # Reach answers change when E(a, c) materialises? No: a reaches c
        # already via b, and no pair is broken by adding an edge... but
        # adding E(a, c) does not change reachability, so AR holds.
        assert is_absolutely_reliable(db, reachability_query())
        # Whereas uncertainty on a bridge edge breaks it.
        db2 = UnreliableDatabase(triangle, {Atom("E", ("b", "c")): Fraction(1, 8)})
        assert not is_absolutely_reliable(db2, reachability_query())


class TestWitnessSearchBudget:
    """The witness search may visit every world over the relevant atoms,
    so the budget refuses it up front and charges each chunk of worlds."""

    @staticmethod
    def _tautology_db():
        # Ten uncertain S-atoms; the tautology holds in every world, so
        # an unbudgeted search visits all 2^10 of them.
        builder = StructureBuilder([f"e{i}" for i in range(10)])
        builder.relation("S", 1)
        structure = builder.build()
        errors = {Atom("S", (f"e{i}",)): Fraction(1, 3) for i in range(10)}
        return UnreliableDatabase(structure, errors)

    def test_atom_cap_refuses_the_search(self):
        with apply(Budget(max_atoms=8)):
            with pytest.raises(CostRefused):
                is_absolutely_reliable(
                    self._tautology_db(), "exists x. S(x) | ~S(x)", "witness"
                )

    def test_search_stops_at_its_first_disagreeing_world(self):
        # Only S(e0) decides the answer; the Gray walk flips the first
        # relevant atom, S(e0), on its second world and stops there.
        budget = Budget(max_worlds=2**10)
        recorder = obs.StatsRecorder()
        with obs.use(recorder), apply(budget):
            assert not is_absolutely_reliable(
                self._tautology_db(), "S('e0')", "witness"
            )
        assert recorder.summary()["counters"]["exact.worlds_enumerated"] == 2
        assert budget.worlds <= 2 + CHECKPOINT_CHUNK  # one chunk past it

    def test_deadline_stops_the_search(self):
        ticks = iter(range(0, 10**6, 10))  # each clock read: 10 s later
        budget = Budget(deadline=1.0, clock=lambda: next(ticks))
        with apply(budget):
            with pytest.raises(BudgetExceeded):
                is_absolutely_reliable(
                    self._tautology_db(), "exists x. S(x) | ~S(x)", "witness"
                )
