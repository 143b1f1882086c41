"""Reliability as a metafinite query — the expressibility result of
Section 6.

The paper closes with an observation from Grädel–Gurevich (Metafinite
Model Theory): once error probabilities live *inside* the database (as
numeric functions of a metafinite structure), the reliability of every
quantifier-free relational query is itself *first-order definable with
aggregates* — reliability is not just computable, it is a query.

This module makes that executable:

* :func:`metafinite_encoding` translates an unreliable relational
  database ``(A, mu)`` into a functional database carrying, for each
  relation ``R``, a 0/1 truth function ``truth_R`` and a rational error
  function ``err_R``;
* :func:`reliability_term` compiles a quantifier-free relational query
  ``psi`` into a metafinite term (sums, products, ``ite`` — all
  first-order-with-aggregates material) whose value on the encoding *is*
  ``R_psi(D)`` exactly.

The compilation mirrors the proof shape of Proposition 3.1: for each
tuple, sum over the (constantly many) joint truth assignments of the
atoms occurring in ``psi``, weighting by products of ``err`` /
``1 - err`` and testing whether the recomputed truth value differs from
the observed one.  Tests assert term value == the relational engine's
exact reliability on random databases.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Sequence, Tuple

from repro.logic.classify import is_quantifier_free
from repro.logic.evaluator import FOQuery
from repro.logic.fo import (
    And,
    AtomF,
    Bottom,
    Eq,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Top,
)
from repro.logic.terms import Const, Var
from repro.metafinite.database import FunctionalDatabase
from repro.metafinite.terms import (
    Apply,
    MetafiniteQuery,
    MTerm,
    aggregate,
    apply_op,
    func,
    num,
)
from repro.reliability.unreliable import UnreliableDatabase
from repro.util.errors import QueryError

TRUTH_PREFIX = "truth_"
ERROR_PREFIX = "err_"


def metafinite_encoding(db: UnreliableDatabase) -> FunctionalDatabase:
    """Encode ``(A, mu)`` as a functional database.

    For every relation ``R`` of arity ``k``, two functions over ``A^k``:
    ``truth_R`` (0/1, the observed truth value) and ``err_R`` (the
    rational error probability).  This is the paper's move of treating
    the error probabilities "as part of the database".
    """
    functions: Dict[str, Dict[Tuple, object]] = {}
    structure = db.structure
    for symbol in structure.vocabulary:
        truth: Dict[Tuple, object] = {}
        error: Dict[Tuple, object] = {}
        for args in product(structure.universe, repeat=symbol.arity):
            from repro.relational.atoms import Atom

            atom = Atom(symbol.name, args)
            truth[args] = 1 if structure.holds(atom) else 0
            error[args] = db.mu(atom)
        functions[TRUTH_PREFIX + symbol.name] = truth
        functions[ERROR_PREFIX + symbol.name] = error
    functions[ID_FUNCTION] = {
        (element,): index for index, element in enumerate(structure.universe)
    }
    return FunctionalDatabase(structure.universe, functions)


def _collect_atoms(formula: Formula, found: List[AtomF]) -> None:
    if isinstance(formula, AtomF):
        if formula not in found:
            found.append(formula)
    elif isinstance(formula, (Top, Bottom, Eq)):
        pass
    elif isinstance(formula, Not):
        _collect_atoms(formula.sub, found)
    elif isinstance(formula, (And, Or)):
        for sub in formula.subs:
            _collect_atoms(sub, found)
    elif isinstance(formula, (Implies, Iff)):
        _collect_atoms(formula.left, found)
        _collect_atoms(formula.right, found)
    else:
        raise QueryError(
            f"reliability_term needs a quantifier-free query, got "
            f"{type(formula).__name__}"
        )


def _truth_term(
    formula: Formula, atom_values: Dict[AtomF, MTerm]
) -> MTerm:
    """A 0/1 term computing the formula under given 0/1 atom terms."""
    if isinstance(formula, Top):
        return num(1)
    if isinstance(formula, Bottom):
        return num(0)
    if isinstance(formula, AtomF):
        return atom_values[formula]
    if isinstance(formula, Eq):
        left = formula.left
        right = formula.right
        lhs = _eq_operand(left)
        rhs = _eq_operand(right)
        return apply_op("eq", lhs, rhs)
    if isinstance(formula, Not):
        return apply_op("not", _truth_term(formula.sub, atom_values))
    if isinstance(formula, And):
        return apply_op(
            "and", *(_truth_term(s, atom_values) for s in formula.subs)
        )
    if isinstance(formula, Or):
        return apply_op(
            "or", *(_truth_term(s, atom_values) for s in formula.subs)
        )
    if isinstance(formula, Implies):
        return apply_op(
            "or",
            apply_op("not", _truth_term(formula.left, atom_values)),
            _truth_term(formula.right, atom_values),
        )
    if isinstance(formula, Iff):
        return apply_op(
            "eq",
            _truth_term(formula.left, atom_values),
            _truth_term(formula.right, atom_values),
        )
    raise QueryError(f"unknown formula node {type(formula).__name__}")


ID_FUNCTION = "id_"


def _eq_operand(term) -> MTerm:
    # Universe elements are not values of the interpreted structure; the
    # standard metafinite trick is an injective id : A -> N function
    # (added by metafinite_encoding), so element equality becomes number
    # equality.
    return func(ID_FUNCTION, term)


def reliability_term(query: FOQuery) -> MetafiniteQuery:
    """Compile a quantifier-free relational query into a reliability term.

    Returns a Boolean (0-ary) metafinite query ``T`` such that for every
    unreliable database ``D = (A, mu)``:

        ``T(metafinite_encoding(D)) == R_psi(D)``  (exactly).

    Structure of the compiled term::

        1 - avg_{x1..xk} sum_{assignments b of psi's atoms}
              [psi^b(x) != psi^obs(x)] * prod_i weight_i(b_i)

    where ``weight_i`` is ``err`` or ``1 - err`` of the i-th atom
    depending on whether ``b`` flips it.  The assignment sum is a
    constant-size unrolling (2^t for t atoms in psi), so the term is a
    fixed first-order-with-aggregates query — the expressibility claim.
    """
    formula = query.formula
    if not is_quantifier_free(formula):
        raise QueryError("reliability_term requires a quantifier-free query")
    atoms: List[AtomF] = []
    _collect_atoms(formula, atoms)

    observed_values: Dict[AtomF, MTerm] = {
        atom: func(TRUTH_PREFIX + atom.relation, *atom.args) for atom in atoms
    }
    observed_truth = _truth_term(formula, observed_values)

    # Sum over all 2^t joint actual-truth assignments.
    summands: List[MTerm] = []
    for pattern in product((0, 1), repeat=len(atoms)):
        actual_values: Dict[AtomF, MTerm] = {
            atom: num(bit) for atom, bit in zip(atoms, pattern)
        }
        actual_truth = _truth_term(formula, actual_values)
        differs = apply_op("neq", actual_truth, observed_truth)

        weight: MTerm = num(1)
        for atom, bit in zip(atoms, pattern):
            truth_f = func(TRUTH_PREFIX + atom.relation, *atom.args)
            err_f = func(ERROR_PREFIX + atom.relation, *atom.args)
            # P[actual = bit] = err if bit != observed else 1 - err:
            #   ite(truth == bit, 1 - err, err)
            factor = apply_op(
                "ite",
                apply_op("eq", truth_f, num(bit)),
                apply_op("sub", num(1), err_f),
                err_f,
            )
            weight = apply_op("mul", weight, factor)
        summands.append(apply_op("mul", differs, weight))

    per_tuple_error: MTerm = num(0)
    for summand in summands:
        per_tuple_error = apply_op("add", per_tuple_error, summand)

    if query.arity == 0:
        total = per_tuple_error
    else:
        # avg over all k-tuples == H / n^k.
        total = aggregate(
            "avg", [v.name for v in query.free_order], per_tuple_error
        )
    return MetafiniteQuery(apply_op("sub", num(1), total))
