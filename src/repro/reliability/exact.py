"""Exact reliability computation.

Three exact routes, chosen by query shape (:func:`_route`):

* **Lifted** (conjunctive queries under ``auto``): the safe plan of the
  query's dichotomy verdict, run in polynomial time by
  :mod:`repro.reliability.lifted`.  A query the lifted engine refuses
  is grounded instead.
* **Grounded** (quantifier-free, existential and universal queries):
  Theorem 5.4's grounding of each answer tuple's wrong target
  (:func:`~repro.reliability.grounding.wrong_target`: the query, or its
  negation when it is universal), evaluated exactly with the ROBDD
  engine (:func:`probability_exact`).  Every answer tuple is one cell
  of the query's lineage table (:func:`ground_answers`).  On a
  quantifier-free query this is Proposition 3.1: each cell's DNF
  mentions at most ``n(psi)`` atoms, a constant of the query, so the
  table costs polynomial time.  Otherwise it is worst-case exponential
  (the problem is #P-hard by Proposition 3.2) but exact and often fast.
* **Worlds** (any query implementing the query protocol): the literal
  FP^#P algorithm of Theorem 4.2, enumerating the worlds that differ on
  *relevant* atoms.

All results are exact :class:`~fractions.Fraction` values.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Any, Iterator, Optional, Sequence, Tuple, Union

from repro import obs
from repro.kernels.gray import atom_worlds
from repro.logic.classify import is_conjunctive, is_quantifier_free
from repro.logic.evaluator import FOQuery
from repro.logic.fo import Formula
from repro.logic.parser import parse
from repro.propositional.counting import probability_exact
from repro.propositional.formula import DNF
from repro.reliability.grounding import (
    Cell,
    ground_answers,
    ground_existential_to_dnf,
    grounding_probabilities,
    has_wrong_target,
    relevant_atoms,
    wrong_target,
)
from repro.reliability.unreliable import UnreliableDatabase
from repro.runtime.budget import checkpoint
from repro.util.errors import QueryError

QueryLike = Union[str, Formula, FOQuery, Any]

_METHODS = ("auto", "qf", "dnf", "worlds")

_ZERO = Fraction(0)
_ONE = Fraction(1)

#: One answer tuple: ``(args, observed, p)``, where ``p`` is the
#: probability of the tuple's target and ``observed`` the target's value
#: on the observed structure (``None`` when the caller did not ask for
#: it, see :func:`target_cells`).
TargetCell = Tuple[Tuple[Any, ...], Optional[bool], Fraction]


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
# routes
# ---------------------------------------------------------------------- #


def _route(query: Any, method: str) -> str:
    """The exact route for ``query`` under ``method``.

    ``lifted`` (a conjunctive query under ``auto``: the lifted engine is
    tried first, and a query it refuses is grounded), ``grounded`` or
    ``worlds``.  ``qf`` forces the grounded route on a quantifier-free
    query, ``dnf`` on any query :func:`wrong_target` accepts.  The route
    is syntactic, so every instantiation of a k-ary query takes the
    query's route.
    """
    if method not in _METHODS:
        raise QueryError(f"unknown exact method {method!r}")
    if not isinstance(query, FOQuery):
        if method in ("qf", "dnf"):
            raise QueryError(f"method {method!r} requires a first-order formula")
        return "worlds"
    formula = query.formula
    if method == "worlds":
        return "worlds"
    if method == "qf" and not is_quantifier_free(formula):
        raise QueryError("quantifier-free path got a quantified formula")
    if method != "auto" or is_quantifier_free(formula):
        return "grounded"
    if is_conjunctive(formula):
        return "lifted"
    return "grounded" if has_wrong_target(formula) else "worlds"


def _dispatch_counter(formula: Formula, method: str) -> str:
    """The counter a grounded cell bumps: ``exact.dispatch.qf`` on
    Proposition 3.1's route (forced, or a quantifier-free query under
    ``auto``), ``exact.dispatch.dnf`` otherwise."""
    if method == "qf" or (method == "auto" and is_quantifier_free(formula)):
        return "exact.dispatch.qf"
    return "exact.dispatch.dnf"


def _try_lifted(db: UnreliableDatabase, formula: Formula, verdict=None):
    """``Pr[B |= formula]`` through the lifted engine, or ``None``.

    ``None`` when the conjunctive sentence is not a safe Boolean CQ, in
    which case the caller grounds it (the #P-hard route that
    Proposition 3.2 makes unavoidable in general).  ``verdict`` is the
    sentence's dichotomy verdict, if already known; an unsafe one
    refuses without an attempt.
    """
    from repro.logic.conjunctive import ConjunctiveQuery
    from repro.reliability.lifted import UnsafeQueryError, lifted_probability

    try:
        if verdict is not None:
            if not verdict.safe:
                return None
            p = lifted_probability(db, formula, verdict)
        else:
            query = ConjunctiveQuery.from_formula(formula)
            if query.arity != 0:
                return None
            p = lifted_probability(db, query)
    except UnsafeQueryError:
        return None
    obs.inc("exact.dispatch.lifted")
    return p


def _grounded_probability(
    db: UnreliableDatabase, dnf: DNF, counter: str
) -> Fraction:
    """Exact ``Pr[dnf]`` of one grounded target."""
    obs.inc(counter)
    with obs.span("exact.grounded", atoms=len(dnf.variables)):
        obs.observe("exact.relevant_atoms", len(dnf.variables))
        return probability_exact(dnf, grounding_probabilities(db, dnf))


def _worlds_truth_probability(db: UnreliableDatabase, query: Any) -> Fraction:
    obs.inc("exact.dispatch.worlds")
    atoms = relevant_atoms(db, query)
    with obs.span("exact.worlds", atoms=len(atoms)):
        obs.observe("exact.relevant_atoms", len(atoms))
        total = _ZERO
        for world, weight in atom_worlds(db, atoms):
            if query.evaluate(world, ()):
                total += weight
        return total


def truth_probability(
    db: UnreliableDatabase,
    sentence: QueryLike,
    method: str = "auto",
    verdict=None,
) -> Fraction:
    """Exact ``Pr[B |= psi]`` for a Boolean query over ``Omega(D)``.

    ``verdict`` is the sentence's dichotomy verdict when the caller
    already holds it (the executor's plan); the lifted route then runs
    it instead of classifying the sentence again.
    """
    query = as_query(sentence)
    if getattr(query, "arity", 0) != 0:
        raise QueryError("truth_probability expects a Boolean (0-ary) query")
    route = _route(query, method)
    if route == "worlds":
        return _worlds_truth_probability(db, query)
    if route == "lifted":
        p = _try_lifted(db, query.formula, verdict)
        if p is not None:
            return p
    target = wrong_target(query.formula)
    p = _grounded_probability(
        db,
        ground_existential_to_dnf(db, target).dnf,
        _dispatch_counter(query.formula, method),
    )
    return p if target is query.formula else 1 - p


# ---------------------------------------------------------------------- #
# answer tuples: wrong probability, expected error, reliability
# ---------------------------------------------------------------------- #


def target_cells(
    db: UnreliableDatabase,
    query: Any,
    method: str,
    verdict=None,
    observed: bool = True,
) -> Tuple[bool, Iterator[TargetCell]]:
    """``(negated, cells)``: every answer tuple's :data:`TargetCell`,
    in tuple order.

    A tuple's target is the query's instantiation, or its negation when
    ``negated`` (a universal query on the grounded route).  The grounded
    route reads the lineage table: a constant cell is 0 or 1 without an
    engine, and no tuple is instantiated or evaluated.  ``verdict`` is
    a Boolean query's dichotomy verdict, as in :func:`truth_probability`.
    A caller that does not read the cells' observed values passes
    ``observed=False``: the lifted and worlds routes then evaluate no
    tuple on the observed structure, and their cells carry ``None``.
    """
    route = _route(query, method)
    if route == "worlds":
        return False, _worlds_cells(db, query, observed)
    if route == "lifted":
        return False, _lifted_cells(db, query, verdict, observed)
    lineage = ground_answers(db, query)
    counter = _dispatch_counter(query.formula, method)
    cells = (_grounded_cell(db, cell, counter) for cell in lineage.cells())
    return lineage.negated, cells


def _grounded_cell(db: UnreliableDatabase, cell: Cell, counter: str) -> TargetCell:
    args, observed, target = cell
    if isinstance(target, bool):
        return args, observed, _ONE if target else _ZERO
    return args, observed, _grounded_probability(db, target, counter)


def _lifted_cells(
    db: UnreliableDatabase, query: FOQuery, verdict, observed: bool
) -> Iterator[TargetCell]:
    """Each tuple through the lifted engine, until it refuses one; that
    tuple and the rest are read from the lineage table."""
    lineage = None
    for args in product(db.structure.universe, repeat=query.arity):
        if lineage is None:
            checkpoint()
            formula = query.instantiated(args) if args else query.formula
            p = _try_lifted(db, formula, verdict)
            if p is not None:
                value = query.evaluate(db.structure, args) if observed else None
                yield args, value, p
                continue
            lineage = ground_answers(db, query)
        yield _grounded_cell(db, lineage.cell(args), "exact.dispatch.dnf")


def _worlds_cells(
    db: UnreliableDatabase, query: Any, observed: bool
) -> Iterator[TargetCell]:
    for args in product(db.structure.universe, repeat=query.arity):
        checkpoint()
        boolean = _instantiated(query, args)
        value = boolean.evaluate(db.structure, ()) if observed else None
        yield args, value, _worlds_truth_probability(db, boolean)


def _wrong_probabilities(
    db: UnreliableDatabase, query: Any, method: str, verdict=None
) -> Iterator[Fraction]:
    """Each answer tuple's ``Pr[Wrong(psi(args))]``, in tuple order:
    ``1 - p`` when the observed structure satisfies the target and
    ``p`` otherwise."""
    _, cells = target_cells(db, query, method, verdict)
    for _, observed, p in cells:
        yield 1 - p if observed else p


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
    return _expected_error(db, _instantiated(as_query(query), args), method)


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
    (see :func:`target_cells`) contributes 0 or 1 without an engine.
    """
    return _expected_error(db, as_query(query), method)


def _expected_error(
    db: UnreliableDatabase, query: Any, method: str, verdict=None
) -> Fraction:
    return sum(_wrong_probabilities(db, query, method, verdict), _ZERO)


def reliability(
    db: UnreliableDatabase,
    query: QueryLike,
    method: str = "auto",
    verdict=None,
) -> Fraction:
    """``R_psi(D) = 1 - H_psi(D) / n ** k`` (Definition 2.2).

    For Boolean queries (``k == 0``) this is ``1 - H_psi``, and
    ``verdict`` is used as in :func:`truth_probability`; a k-ary query's
    tuples are classified one by one, so it ignores ``verdict``.
    """
    query = as_query(query)
    n = db.universe_size
    if query.arity == 0:
        return 1 - _expected_error(db, query, method, verdict)
    if n == 0:
        raise QueryError("reliability undefined on an empty universe")
    return 1 - _expected_error(db, query, method) / Fraction(n**query.arity)


def qf_tuple_wrong_probability(
    db: UnreliableDatabase, query: QueryLike, args: Sequence[Any] = ()
) -> Fraction:
    """Proposition 3.1's inner loop, exposed for tests and benchmarks.

    Forces the quantifier-free engine; raises if the instantiated formula
    is not quantifier-free.
    """
    return wrong_probability(db, query, args, method="qf")
