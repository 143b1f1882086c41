"""Tests for the ROBDD compilation engine."""

import random
from fractions import Fraction
from itertools import count, product

import pytest

from repro.propositional.bdd import (
    ONE,
    ZERO,
    BDD,
    clause_order,
    compile_dnf,
    influences_via_bdd,
)
from repro.propositional.counting import (
    probability_enumerate,
    probability_exact,
)
from repro.logic.parser import parse
from repro.propositional.formula import DNF, Clause, Literal, neg_lit, pos
from repro.relational.atoms import Atom
from repro.relational.builder import StructureBuilder
from repro.reliability.grounding import (
    ground_existential_to_dnf,
    grounding_probabilities,
)
from repro.reliability.unreliable import UnreliableDatabase
from repro.runtime.budget import Budget, apply
from repro.util.errors import BudgetExceeded, ProbabilityError, QueryError
from repro.util.rng import make_rng
from repro.workloads.random_dnf import random_kdnf, random_probabilities


class TestConstruction:
    def test_single_variable(self):
        diagram = BDD(["a"])
        node = diagram.var("a")
        assert diagram.evaluate(node, {"a": True})
        assert not diagram.evaluate(node, {"a": False})

    def test_negative_literal(self):
        diagram = BDD(["a"])
        node = diagram.nvar("a")
        assert diagram.evaluate(node, {"a": False})

    def test_hash_consing_shares_nodes(self):
        diagram = BDD(["a"])
        assert diagram.var("a") == diagram.var("a")

    def test_contradiction_reduces_to_zero(self):
        diagram = BDD(["a"])
        assert diagram.conj(diagram.var("a"), diagram.nvar("a")) == ZERO

    def test_tautology_reduces_to_one(self):
        diagram = BDD(["a"])
        assert diagram.disj(diagram.var("a"), diagram.nvar("a")) == ONE

    def test_unknown_variable_rejected(self):
        diagram = BDD(["a"])
        with pytest.raises(QueryError):
            diagram.var("zz")

    def test_duplicate_order_rejected(self):
        with pytest.raises(QueryError):
            BDD(["a", "a"])


class TestCompile:
    @pytest.mark.parametrize("seed", range(6))
    def test_semantics_match_dnf(self, seed):
        rng = make_rng(seed)
        dnf = random_kdnf(rng, variables=6, clauses=5, width=3)
        diagram, root = compile_dnf(dnf)
        variables = diagram.order
        for values in product((False, True), repeat=len(variables)):
            assignment = dict(zip(variables, values))
            assert diagram.evaluate(root, assignment) == dnf.satisfied_by(
                assignment
            ), assignment

    def test_canonicity_equal_functions_equal_roots(self):
        # (a & b) | (a & ~b) == a: both compile to the same node.
        left = DNF.of([pos("a"), pos("b")], [pos("a"), neg_lit("b")])
        diagram, root = compile_dnf(left, order=["a", "b"])
        assert root == diagram.var("a")

    def test_count_models(self):
        dnf = DNF.of([pos("a")], [pos("b")])
        diagram, root = compile_dnf(dnf)
        assert diagram.count_models(root) == 3


class TestProbability:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_shannon_engine(self, seed):
        """The engine that replaced Shannon expansion equals enumeration."""
        rng = make_rng(100 + seed)
        dnf = random_kdnf(rng, variables=8, clauses=6, width=3)
        probs = random_probabilities(rng, dnf)
        assert probability_exact(dnf, probs) == probability_enumerate(
            dnf, probs
        )

    def test_constants(self):
        for dnf in (DNF.true(), DNF.false()):
            assert probability_exact(dnf, {}) == probability_enumerate(dnf, {})

    def test_missing_probability_rejected(self):
        dnf = DNF.of([pos("a")])
        diagram, root = compile_dnf(dnf)
        with pytest.raises(ProbabilityError):
            diagram.probability(root, {})


class TestInfluences:
    def test_disjunction_influences(self):
        dnf = DNF.of([pos("a")], [pos("b")])
        probs = {"a": Fraction(3, 4), "b": Fraction(1, 3)}
        influences = influences_via_bdd(dnf, probs)
        # I(a) = 1 - P(b) = 2/3; I(b) = 1 - P(a) = 1/4.
        assert influences["a"] == Fraction(2, 3)
        assert influences["b"] == Fraction(1, 4)

    def test_negative_literal_negative_influence(self):
        dnf = DNF.of([neg_lit("a")])
        influences = influences_via_bdd(dnf, {"a": Fraction(1, 2)})
        assert influences["a"] == -1

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_conditioning_definition(self, seed):
        rng = make_rng(200 + seed)
        dnf = random_kdnf(rng, variables=6, clauses=4, width=3)
        probs = random_probabilities(rng, dnf)
        influences = influences_via_bdd(dnf, probs)
        for variable in dnf.variables:
            high = probability_enumerate(dnf.restrict(variable, True), probs)
            low = probability_enumerate(dnf.restrict(variable, False), probs)
            assert influences[variable] == high - low, variable

    def test_irrelevant_variable_zero_influence(self):
        dnf = DNF.of([pos("a")])
        diagram, root = compile_dnf(dnf, order=["a", "b"])
        influences = diagram.influences(
            root, {"a": Fraction(1, 2), "b": Fraction(1, 2)}
        )
        assert influences["b"] == 0


def _h0_lineage(seed, size, density):
    """A seeded lineage of ``exists x y. R(x) & S(x, y) & T(y)``."""
    rng = random.Random(seed)
    rs = [i for i in range(size) if rng.random() < 0.7]
    ts = [j for j in range(size) if rng.random() < 0.7]
    return DNF(
        Clause([pos(f"R{i}"), pos(f"S{i}_{j}"), pos(f"T{j}")])
        for i in rs
        for j in ts
        if rng.random() < density
    )


class TestClauseOrder:
    def test_first_occurrence_in_clause_order(self):
        dnf = DNF.of([pos("c"), pos("b")], [pos("a"), pos("c")], [pos("d")])
        assert clause_order(dnf.clauses) == ["b", "c", "a", "d"]

    def test_components_take_contiguous_levels(self):
        dnf = DNF.of([pos("a"), pos("b")], [pos("c"), pos("d")], [pos("e"), pos("b")])
        assert clause_order(dnf.clauses) == ["a", "b", "e", "c", "d"]

    @pytest.mark.parametrize("negated", [False, True])
    def test_star_lineage_compiles_to_linear_size(self, negated):
        # Grounding walks x outermost, so the lineage's clauses
        # interleave its 14 components (one per y): E(0, 0), S(0),
        # E(0, 1), S(1), ...  In first-occurrence order that needs at
        # least 2^14 nodes; component by component it is linear.
        size = 14
        builder = StructureBuilder(range(size))
        builder.relation("E", 2).relation("S", 1)
        mu = {Atom("S", (j,)): Fraction(1 + j % 5, 8) for j in range(size)}
        mu.update(
            (Atom("E", (i, j)), Fraction(1 + (3 * i + j) % 6, 8))
            for i in range(size)
            for j in range(size)
        )
        db = UnreliableDatabase(builder.build(), mu)
        literal = "~S(y)" if negated else "S(y)"
        dnf = ground_existential_to_dnf(
            db, parse(f"exists x y. E(x, y) & {literal}")
        ).dnf
        assert len(dnf.variables) == size * size + size
        diagram, root = compile_dnf(dnf)
        reachable = sum(map(len, diagram.reachable_by_level(root)))
        assert reachable <= 2 * len(dnf.variables)
        # Measured 2,244 nodes created, the balanced OR tree's partial
        # diagrams included; well below the 2^14 of the interleaved order.
        assert len(diagram) <= 2 ** 13
        probs = grounding_probabilities(db, dnf)
        none = Fraction(1)
        for j in range(size):
            s = probs[Atom("S", (j,))]
            no_edge = Fraction(1)
            for i in range(size):
                no_edge *= 1 - probs[Atom("E", (i, j))]
            none *= 1 - (1 - s if negated else s) * (1 - no_edge)
        assert probability_exact(dnf, probs) == 1 - none

    def test_h0_lineage_an_order_of_magnitude_smaller(self):
        # 47 variables, 30 clauses: 2,546 nodes in clause order against
        # 29,984 in the sorted order, which groups each relation's atoms.
        dnf = _h0_lineage(3, 11, 0.5)
        assert len(dnf.variables) == 47
        clause_ordered, _ = compile_dnf(dnf, order=clause_order(dnf.clauses))
        sorted_order, _ = compile_dnf(dnf, order=sorted(dnf.variables, key=repr))
        assert len(clause_ordered) <= 3000
        assert 10 * len(clause_ordered) <= len(sorted_order)


class TestBudget:
    """A compile checkpoints, so a deadline stops it.

    Both compile in the sorted order, whose ~30,000 nodes take many
    checkpoint chunks: the clause-ordered compile of this lineage makes
    too few clock reads to reach the deadline.
    """

    def test_cancelled_compile_raises(self):
        ticks = count(0, 10)  # each clock read: ten seconds later
        dnf = _h0_lineage(3, 11, 0.5)
        with apply(Budget(deadline=1.0, clock=lambda: next(ticks))):
            with pytest.raises(BudgetExceeded):
                compile_dnf(dnf, order=sorted(dnf.variables, key=repr))

    def test_deadline_stops_compile(self):
        ticks = count()
        budget = Budget(deadline=1.0, clock=lambda: next(ticks) / 100)
        dnf = _h0_lineage(3, 11, 0.5)
        with apply(budget):
            with pytest.raises(BudgetExceeded):
                compile_dnf(dnf, order=sorted(dnf.variables, key=repr))

