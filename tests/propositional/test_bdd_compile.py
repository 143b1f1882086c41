"""``compile_dnf``'s balanced compile against a clause-by-clause fold.

The reference below is the compile this module's diagrams used to come
from: each clause ANDed literal by literal, then ORed into one growing
root.  The ROBDD is canonical, so both must reach the same diagram.
"""

import pickle
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


class TestDeepDiagrams:
    def test_chain_compiles_without_recursion(self):
        # OR_i (x_i & x_(i+1)) over 3,000 variables: its complement
        # counts the strings with no two adjacent ones, F(n + 2) of them.
        n = 3000
        order = list(range(n))
        dnf = DNF(Clause([pos(i), pos(i + 1)]) for i in range(n - 1))
        diagram, root = compile_dnf(dnf, order=order)
        fib = [0, 1]
        while len(fib) < n + 3:
            fib.append(fib[-1] + fib[-2])
        assert diagram.count_models(root) == 2**n - fib[n + 2]


def _random_slots(rng, variables, count):
    """``count`` clause slots over ``variables``; about a third folded."""
    return [
        None
        if rng.random() < 0.3
        else Clause(
            Literal(rng.choice(variables), rng.random() < 0.5)
            for _ in range(rng.randint(0, 3))
        )
        for _ in range(count)
    ]


def _same_function(left, left_root, right, right_root):
    order = left.order
    for values in product((False, True), repeat=len(order)):
        assignment = dict(zip(order, values))
        assert left.evaluate(left_root, assignment) == right.evaluate(
            right_root, assignment
        )


class TestSlotTree:
    @pytest.mark.parametrize("seed", range(20))
    def test_patch_is_a_recompile(self, seed):
        rng = make_rng(500 + seed)
        variables = ["a", "b", "c", "d", "e"]
        slots = _random_slots(rng, variables, rng.randint(1, 9))
        diagram, _root = compile_dnf(slots, order=variables)
        tree = list(diagram.tree)
        changed = {
            slot: _random_slots(rng, variables, 1)[0]
            for slot in rng.sample(range(len(slots)), rng.randint(1, len(slots)))
        }
        entries = diagram.patch(
            tree,
            {
                slot: ZERO if clause is None else diagram.cube(clause)
                for slot, clause in changed.items()
            },
        )
        assert diagram.tree == tree  # patch leaves the tree to its caller
        for index, node in entries.items():
            tree[index] = node
        for index in range(1, len(tree) // 2):
            assert tree[index] == diagram.disj(tree[2 * index], tree[2 * index + 1])
        for slot, clause in changed.items():
            slots[slot] = clause
        reference, reference_root = compile_dnf(slots, order=variables)
        _same_function(diagram, tree[1], reference, reference_root)

    def test_compile_keeps_only_live_nodes(self):
        rng = make_rng(7)
        slots = _random_slots(rng, ["a", "b", "c", "d"], 12)
        diagram, _root = compile_dnf(slots)
        assert len(diagram) == sum(
            map(len, diagram.reachable_by_level(*diagram.tree))
        )

    def test_compacted_copy_keeps_the_tree(self):
        rng = make_rng(8)
        variables = ["a", "b", "c", "d"]
        diagram, _root = compile_dnf(
            _random_slots(rng, variables, 8), order=variables
        )
        garbage = diagram.conj(diagram.var("a"), diagram.nvar("d"))
        assert garbage > ONE
        copy, renumber = diagram.compacted()
        live = sum(map(len, diagram.reachable_by_level(*diagram.tree)))
        assert len(copy) == live < len(diagram)
        assert copy.tree == [renumber[node] for node in diagram.tree]
        for node in set(diagram.tree):
            _same_function(diagram, node, copy, renumber[node])

    def test_appended_variable_is_a_new_bottom_level(self):
        diagram, root = compile_dnf(DNF.of([pos("b")], [pos("a"), neg_lit("b")]))
        nodes = list(diagram.nodes)
        assert diagram.add_variable("a") == 0
        assert diagram.add_variable("c") == 2
        assert diagram.order == ("a", "b", "c")
        assert list(diagram.nodes) == nodes
        both = diagram.disj(root, diagram.var("c"))
        assert diagram.count_models(both) == 7

    def test_pickle_drops_the_apply_cache(self):
        diagram, root = compile_dnf(DNF.of([pos("a"), pos("b")], [neg_lit("a")]))
        diagram.disj(diagram.var("a"), diagram.var("b"))
        loaded = pickle.loads(pickle.dumps(diagram))
        assert loaded.order == diagram.order
        assert list(loaded.nodes) == list(diagram.nodes)
        assert loaded.tree == diagram.tree
        assert not loaded._apply_cache
        assert loaded.var("b") == diagram.var("b")  # unique table rebuilt
        copy = loaded.copy()
        copy.disj(copy.var("a"), copy.nvar("b"))
        assert list(loaded.nodes) == list(diagram.nodes)
