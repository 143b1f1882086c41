"""Exact reliability computation.

Three exact engines, dispatched by query shape:

* **Quantifier-free fast path** (Proposition 3.1): for each answer tuple,
  the instantiated formula mentions at most ``n(psi)`` atoms — a constant
  of the query — so enumerating their ``2 ** n(psi)`` joint values costs
  polynomial time overall.
* **Grounded-DNF path** (existential/universal sentences): ground via
  Theorem 5.4's construction and evaluate the exact weighted probability
  with Shannon expansion.  Worst-case exponential — the problem is
  #P-hard by Proposition 3.2 — but exact and often fast.
* **World-enumeration path** (any query implementing the query protocol):
  the literal FP^#P algorithm of Theorem 4.2, enumerating the worlds that
  differ on *relevant* atoms.

All results are exact :class:`~fractions.Fraction` values.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.kernels.gray import (
    gray_dnf_probability,
    gray_enumeration_probability,
)
from repro.logic.classify import (
    is_conjunctive,
    is_existential,
    is_quantifier_free,
    is_universal,
)
from repro.logic.evaluator import FOQuery, evaluate
from repro.logic.fo import Formula, instantiate, neg
from repro.logic.parser import parse
from repro.propositional.counting import probability_exact
from repro.propositional.formula import DNF
from repro.relational.atoms import Atom
from repro.reliability.grounding import (
    Cell,
    Lineage,
    ground_answers,
    ground_existential_to_dnf,
    grounding_probabilities,
    relevant_atoms,
)
from repro.reliability.unreliable import UnreliableDatabase
from repro.runtime.budget import checkpoint
from repro.runtime.preflight import preflight_worlds
from repro.util.errors import CostRefused, QueryError

QueryLike = Union[str, Formula, FOQuery, Any]

_METHODS = ("auto", "qf", "dnf", "worlds")


def as_query(query: QueryLike) -> Any:
    """Normalise the accepted query spellings to a query-protocol object.

    Strings are parsed as first-order formulas; formulas are wrapped in
    :class:`FOQuery`; anything already exposing ``arity`` / ``evaluate`` /
    ``answers`` passes through (Datalog, fixpoint, second-order, ...).
    """
    if isinstance(query, str):
        return FOQuery(parse(query))
    if isinstance(query, Formula):
        return FOQuery(query)
    if hasattr(query, "arity") and hasattr(query, "evaluate"):
        return query
    raise QueryError(f"cannot interpret {type(query).__name__} as a query")


# ---------------------------------------------------------------------- #
# Boolean building blocks
# ---------------------------------------------------------------------- #


def truth_probability(
    db: UnreliableDatabase, sentence: QueryLike, method: str = "auto"
) -> Fraction:
    """Exact ``Pr[B |= psi]`` for a Boolean query over ``Omega(D)``."""
    query = as_query(sentence)
    if getattr(query, "arity", 0) != 0:
        raise QueryError("truth_probability expects a Boolean (0-ary) query")
    return _boolean_truth_probability(db, query, method)


def _boolean_truth_probability(
    db: UnreliableDatabase, query: Any, method: str, grounded: Optional[DNF] = None
) -> Fraction:
    """The dispatch.  ``grounded``, when given, is the grounding of the
    query's wrong target (from :func:`ground_answers`); the grounding
    routes use it instead of grounding again."""
    if method not in _METHODS:
        raise QueryError(f"unknown exact method {method!r}")
    formula = query.formula if isinstance(query, FOQuery) else None
    if formula is None:
        if method in ("qf", "dnf"):
            raise QueryError(f"method {method!r} requires a first-order formula")
        route = "worlds"
    else:
        route = _route(formula, method)
    if route == "lifted":
        lifted = _try_lifted(db, formula)
        if lifted is not None:
            obs.inc("exact.dispatch.lifted")
            return lifted
        route = "dnf"
    if route == "qf":
        obs.inc("exact.dispatch.qf")
        return _qf_truth_probability(db, formula, grounded)
    if route == "dnf":
        obs.inc("exact.dispatch.dnf")
        return _dnf_truth_probability(db, formula, grounded)
    if route == "dnf-negated":
        obs.inc("exact.dispatch.dnf")
        return 1 - _dnf_truth_probability(db, neg(formula), grounded)
    obs.inc("exact.dispatch.worlds")
    return _worlds_truth_probability(db, query)


def _route(formula: Formula, method: str) -> str:
    """The engine the dispatch sends a first-order sentence to.

    ``qf``; ``lifted`` (a conjunctive query under ``auto``: the lifted
    engine is tried first, and an unsafe one is grounded as ``dnf``);
    ``dnf``; ``dnf-negated`` (a universal sentence, through its
    existential negation); or ``worlds``.  The route is syntactic, so
    every instantiation of a k-ary query takes the query's route.
    """
    if method == "qf" or (method == "auto" and is_quantifier_free(formula)):
        return "qf"
    if method == "auto" and is_conjunctive(formula):
        return "lifted"
    if method == "dnf" or (method == "auto" and is_existential(formula)):
        return "dnf"
    if method == "auto" and is_universal(formula):
        return "dnf-negated"
    return "worlds"


def _try_lifted(db: UnreliableDatabase, formula: Formula):
    """Fast path: safe conjunctive queries go through the lifted engine.

    Returns ``None`` when the conjunctive query is not a safe Boolean
    CQ, in which case the caller falls through to grounding (the
    #P-hard route that Proposition 3.2 makes unavoidable in general).
    """
    from repro.logic.conjunctive import ConjunctiveQuery
    from repro.reliability.lifted import UnsafeQueryError, lifted_probability

    try:
        query = ConjunctiveQuery.from_formula(formula)
        if query.arity != 0:
            return None
        return lifted_probability(db, query)
    except UnsafeQueryError:
        return None


def _qf_truth_probability(
    db: UnreliableDatabase, formula: Formula, grounded: Optional[DNF] = None
) -> Fraction:
    """Proposition 3.1's engine for one quantifier-free sentence.

    Only the (constantly many) atoms occurring in the sentence matter;
    enumerate their joint values, weight by ``nu``, and evaluate.  A
    ground quantifier-free sentence is vacuously existential, so it
    grounds to a (cached) DNF whose marginal probability equals the
    enumeration sum exactly — letting the Gray-code walk update clause
    state incrementally instead of re-evaluating the formula per world.
    Formulas whose grounding is refused fall back to the generic walk.
    """
    atoms = _formula_atoms(db, formula)
    with obs.span("exact.qf", atoms=len(atoms)):
        obs.observe("exact.relevant_atoms", len(atoms))
        try:
            dnf = (
                grounded
                if grounded is not None
                else ground_existential_to_dnf(db, formula).dnf
            )
        except (CostRefused, QueryError):
            return _atom_enumeration_probability(
                db, atoms, lambda world: evaluate(world, formula)
            )
        if dnf.is_true():
            return Fraction(1)
        if dnf.is_false():
            return Fraction(0)
        return gray_dnf_probability(db, dnf)


def _formula_atoms(db: UnreliableDatabase, formula: Formula) -> Tuple[Atom, ...]:
    """Uncertain ground atoms syntactically occurring in a ground formula."""
    from repro.logic.fo import (
        And,
        AtomF,
        Bottom,
        Eq,
        Exists,
        Forall,
        Iff,
        Implies,
        Not,
        Or,
        Top,
    )
    from repro.logic.terms import Const

    found: List[Atom] = []

    def walk(node: Formula) -> None:
        if isinstance(node, AtomF):
            args = []
            for term in node.args:
                if not isinstance(term, Const):
                    raise QueryError(
                        "quantifier-free path needs a ground (instantiated) "
                        f"formula; found variable {term}"
                    )
                args.append(term.value)
            atom = Atom(node.relation, tuple(args))
            if 0 < db.mu(atom) < 1:
                found.append(atom)
        elif isinstance(node, (Top, Bottom, Eq)):
            pass
        elif isinstance(node, Not):
            walk(node.sub)
        elif isinstance(node, (And, Or)):
            for sub in node.subs:
                walk(sub)
        elif isinstance(node, (Implies, Iff)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, (Exists, Forall)):
            raise QueryError("quantifier-free path got a quantified formula")
        else:
            raise QueryError(f"unknown formula node {type(node).__name__}")

    walk(formula)
    unique = sorted(set(found), key=repr)
    return tuple(unique)


def _atom_enumeration_probability(
    db: UnreliableDatabase, atoms: Sequence[Atom], predicate
) -> Fraction:
    """``Pr[predicate(B)]`` enumerating only the given uncertain atoms.

    Every other atom keeps its deterministic actual value.  Cost:
    ``2 ** len(atoms)`` world evaluations, walked in Gray-code order —
    one atom flip and one exact weight update per world (see
    :mod:`repro.kernels.gray`).
    """
    return gray_enumeration_probability(db, atoms, predicate)


def _dnf_truth_probability(
    db: UnreliableDatabase, formula: Formula, grounded: Optional[DNF] = None
) -> Fraction:
    with obs.span("exact.dnf"):
        dnf = (
            grounded
            if grounded is not None
            else ground_existential_to_dnf(db, formula).dnf
        )
        obs.gauge(
            "exact.grounded_formula_size",
            sum(len(clause) for clause in dnf.clauses),
        )
        probs = grounding_probabilities(db, dnf)
        return probability_exact(dnf, probs)


def _worlds_truth_probability(db: UnreliableDatabase, query: Any) -> Fraction:
    atoms = relevant_atoms(db, query)
    # Fail fast on hopeless enumerations: 2 ** len(atoms) worlds against
    # the active budget's world limit (2 ** 20 by default) — see
    # docs/ROBUSTNESS.md.  Budget(max_atoms=None) disables the guard.
    preflight_worlds(len(atoms))
    with obs.span("exact.worlds", atoms=len(atoms)):
        obs.observe("exact.relevant_atoms", len(atoms))
        return _atom_enumeration_probability(
            db, atoms, lambda world: query.evaluate(world, ())
        )


# ---------------------------------------------------------------------- #
# wrong-probability, expected error, reliability
# ---------------------------------------------------------------------- #


def wrong_probability(
    db: UnreliableDatabase,
    query: QueryLike,
    args: Sequence[Any] = (),
    method: str = "auto",
) -> Fraction:
    """``Pr[Wrong(psi(args))]`` — the per-tuple expected error.

    Equals ``1 - p`` when the observed database satisfies ``psi(args)``
    and ``p`` otherwise, where ``p = Pr[B |= psi(args)]``.
    """
    return _wrong_probability(db, as_query(query), args, method)


def _wrong_probability(
    db: UnreliableDatabase,
    query: Any,
    args: Sequence[Any],
    method: str,
    grounded: Optional[DNF] = None,
) -> Fraction:
    boolean = _instantiated(query, args)
    observed = boolean.evaluate(db.structure, ())
    p = _boolean_truth_probability(db, boolean, method, grounded)
    return 1 - p if observed else p


def answer_lineage(
    db: UnreliableDatabase, query: Any, method: str
) -> Optional[Lineage]:
    """The query's lineage table, or ``None``.

    ``None`` where the dispatch's route under ``method`` (see
    :func:`_route`) does not ground each tuple's wrong target: queries
    that are not first-order, ``worlds`` (Theorem 4.2's enumeration),
    formulas a forced method rejects, and conjunctive queries under
    ``auto``, whose tuples the lifted engine answers without grounding
    wherever it can.  A refused pass is ``None`` too, leaving the
    dispatch to refuse or fall back tuple by tuple as it always has.
    """
    if not isinstance(query, FOQuery):
        return None
    formula = query.formula
    route = _route(formula, method)
    # The route grounds the sentence itself (its wrong target when it is
    # existential), or its negation on ``dnf-negated``.
    if not (
        route == "dnf-negated"
        or (route in ("qf", "dnf") and is_existential(formula))
    ):
        return None
    try:
        return ground_answers(db, query)
    except CostRefused:
        return None


def answer_cells(
    db: UnreliableDatabase, query: Any, lineage: Optional[Lineage]
) -> Iterator[Cell]:
    """The lineage's :meth:`~Lineage.cells`; without a lineage every
    tuple is visited with target ``None`` (the dispatch grounds it, or
    not), each after a budget checkpoint."""
    if lineage is not None:
        yield from lineage.cells()
        return
    for args in product(db.structure.universe, repeat=query.arity):
        checkpoint()
        yield args, False, None


class _InstantiatedQuery:
    """A k-ary query-protocol object curried with a fixed argument tuple."""

    __slots__ = ("inner", "args")

    def __init__(self, inner: Any, args: Tuple[Any, ...]):
        self.inner = inner
        self.args = args

    arity = 0

    def evaluate(self, structure, args=()) -> bool:
        return self.inner.evaluate(structure, self.args)

    def answers(self, structure):
        return {()} if self.evaluate(structure) else set()


def _instantiated(query: Any, args: Sequence[Any]) -> Any:
    args = tuple(args)
    if len(args) != query.arity:
        raise QueryError(
            f"query has arity {query.arity}, got {len(args)} arguments"
        )
    if isinstance(query, FOQuery):
        return FOQuery(query.instantiated(args)) if args else query
    if not args:
        return query
    return _InstantiatedQuery(query, args)


def expected_error(
    db: UnreliableDatabase, query: QueryLike, method: str = "auto"
) -> Fraction:
    """``H_psi(D)``: expected Hamming distance (Definition 2.2).

    By linearity of expectation this is the sum over all ``n ** k`` tuples
    of the per-tuple wrong probabilities — the decomposition used in both
    Proposition 3.1 and Theorem 4.2.  A tuple whose lineage is constant
    (see :func:`answer_lineage`) contributes 0 or 1 without an engine;
    the others go through the dispatch.
    """
    query = as_query(query)
    total = Fraction(0)
    lineage = answer_lineage(db, query, method)
    for args, observed, target in answer_cells(db, query, lineage):
        if isinstance(target, bool):
            total += observed != target
        else:
            total += _wrong_probability(db, query, args, method, target)
    return total


def reliability(
    db: UnreliableDatabase, query: QueryLike, method: str = "auto"
) -> Fraction:
    """``R_psi(D) = 1 - H_psi(D) / n ** k`` (Definition 2.2).

    For Boolean queries (``k == 0``) this is ``1 - H_psi``.
    """
    query = as_query(query)
    n = db.universe_size
    if query.arity == 0:
        return 1 - expected_error(db, query, method)
    if n == 0:
        raise QueryError("reliability undefined on an empty universe")
    return 1 - expected_error(db, query, method) / Fraction(n**query.arity)


def qf_tuple_wrong_probability(
    db: UnreliableDatabase, query: QueryLike, args: Sequence[Any] = ()
) -> Fraction:
    """Proposition 3.1's inner loop, exposed for tests and benchmarks.

    Forces the quantifier-free engine; raises if the instantiated formula
    is not quantifier-free.
    """
    return wrong_probability(db, query, args, method="qf")
