"""``compile_dnf``'s balanced compile against a clause-by-clause fold.

The reference below is the compile this module's diagrams used to come
from: each clause ANDed literal by literal, then ORed into one growing
root.  The ROBDD is canonical, so both must reach the same diagram.
"""

from fractions import Fraction
from itertools import product

import pytest

from repro.propositional.bdd import ONE, ZERO, BDD, compile_dnf
from repro.propositional.formula import DNF, Clause, Literal, neg_lit, pos
from repro.util.errors import QueryError
from repro.util.rng import make_rng


def _linear_fold(dnf, order=None):
    """Reference compile: fold each clause into one growing root."""
    variables = (
        tuple(order) if order is not None else tuple(sorted(dnf.variables, key=repr))
    )
    diagram = BDD(variables)
    root = ZERO
    for clause in dnf.clauses:
        node = ONE
        for literal in sorted(clause, key=lambda l: repr(l.variable)):
            leaf = (
                diagram.var(literal.variable)
                if literal.positive
                else diagram.nvar(literal.variable)
            )
            node = diagram.conj(node, leaf)
        root = diagram.disj(root, node)
    return diagram, root


def _random_dnf(rng, variables):
    """Clauses of width 0-4 over ``variables``, some contradictory."""
    clauses = []
    for _ in range(rng.randint(0, 7)):
        literals = [
            Literal(rng.choice(variables), rng.random() < 0.5)
            for _ in range(rng.randint(0, 4))
        ]
        clauses.append(Clause(literals))
    return DNF(clauses)


class TestBalancedCompile:
    """``compile_dnf`` against the clause-by-clause fold it replaced."""

    @pytest.mark.parametrize("seed", range(40))
    def test_same_diagram_as_linear_fold(self, seed):
        rng = make_rng(300 + seed)
        variables = ["a", "b", "c", "d", "e", "f"]
        dnf = _random_dnf(rng, variables)
        order = None
        if seed % 2:
            # An explicit order, with a variable the DNF never mentions.
            order = variables + ["g"]
            rng.shuffle(order)
        diagram, root = compile_dnf(dnf, order=order)
        reference, reference_root = _linear_fold(dnf, order=order)
        assert diagram.order == reference.order
        assert [len(level) for level in diagram.reachable_by_level(root)] == [
            len(level) for level in reference.reachable_by_level(reference_root)
        ]
        probs = {
            v: Fraction(rng.randint(0, 9), rng.randint(9, 12))
            for v in diagram.order
        }
        assert diagram.probability(root, probs) == reference.probability(
            reference_root, probs
        )
        for values in product((False, True), repeat=len(diagram.order)):
            assignment = dict(zip(diagram.order, values))
            assert diagram.evaluate(root, assignment) == reference.evaluate(
                reference_root, assignment
            )

    def test_complementary_literals_give_zero(self):
        diagram = BDD(["a", "b"])
        assert diagram.cube(Clause([pos("a"), pos("b"), neg_lit("a")])) == ZERO
        assert diagram.cube(Clause([])) == ONE
        assert diagram.cube(Clause([neg_lit("b"), pos("a")])) == diagram.conj(
            diagram.var("a"), diagram.nvar("b")
        )

    @pytest.mark.parametrize("literal", [pos("zz"), neg_lit("zz")])
    def test_unknown_variable_in_order_rejected(self, literal):
        dnf = DNF.of([pos("a"), literal])
        with pytest.raises(QueryError):
            compile_dnf(dnf, order=["a"])
