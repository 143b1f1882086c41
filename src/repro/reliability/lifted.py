"""Lifted (safe-plan) inference for hierarchical conjunctive queries.

Proposition 3.2 shows that conjunctive-query reliability is #P-hard *in
general*; the line of work this paper opened (Dalvi–Suciu's dichotomy)
later isolated exactly which conjunctive queries stay tractable: Boolean
CQs **without self-joins** whose variable structure is *hierarchical* —
for any two variables, the sets of atoms containing them are nested or
disjoint.  For those, the probability factorises and is computable in
polynomial time over tuple-independent databases — which is exactly what
an unreliable database's ``nu`` is.

The plan is decided once, by the static classifier
(:func:`repro.logic.safety.classify_dichotomy`): a safe verdict carries
the query's hierarchy tree, and this module executes that tree.

* :func:`lifted_probability` — exact ``Pr[B |= q]``: a leaf is the
  ``nu`` of its atom under the variable binding, a join multiplies its
  independent children, a project multiplies the miss probabilities of
  its ``n`` branches, one per domain element;
* :func:`lifted_reliability` — the reliability of a safe Boolean CQ;
* :func:`is_safe` — the verdict's flag; :func:`is_hierarchical` and
  :func:`has_self_join` are independent syntactic oracles that the
  tests compare the classifier against.

Unsafe queries raise :class:`UnsafeQueryError`; callers fall back to the
grounded-DNF engine (whose worst case is the Proposition 3.2 hardness).
Tests assert agreement with the exact engine on random databases, and
benchmark E11 measures the polynomial-vs-exponential gap.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, FrozenSet, List, Set, Tuple, Union

from repro import obs
from repro.logic import safety
from repro.logic.conjunctive import ConjunctiveQuery
from repro.logic.evaluator import FOQuery
from repro.logic.fo import AtomF, Eq, Formula
from repro.logic.terms import Var
from repro.relational.atoms import Atom
from repro.reliability.unreliable import UnreliableDatabase
from repro.runtime.budget import checkpoint
from repro.util.errors import QueryError


class UnsafeQueryError(QueryError):
    """The query is outside the lifted-inference fragment.

    Raised for self-joins and non-hierarchical variable structures; the
    caller should fall back to grounded exact inference or an estimator.
    ``verdict`` carries the static classifier's
    :class:`~repro.logic.safety.UnsafeVerdict` (the #P-hardness witness)
    when the refusal came from the dichotomy test.
    """

    def __init__(self, message: str, verdict=None):
        super().__init__(message)
        self.verdict = verdict


QueryLike = Union[ConjunctiveQuery, FOQuery, Formula, str]

_HALF = Fraction(1, 2)


def _as_boolean_cq(query: QueryLike) -> ConjunctiveQuery:
    """The Boolean CQ the classifier's normaliser makes of ``query``."""
    coerced = safety._coerce(query)
    if isinstance(coerced, safety.UnsafeVerdict):
        raise QueryError(f"lifted inference: {coerced.detail}")
    return coerced


def _atom_parts(query: ConjunctiveQuery) -> List[AtomF]:
    atoms: List[AtomF] = []
    for part in query.body:
        if isinstance(part, Eq):
            raise UnsafeQueryError(
                "equality atoms are not supported by the lifted engine; "
                "substitute them away first"
            )
        atoms.append(part)
    return atoms


def _variables_of(atom: AtomF) -> FrozenSet[Var]:
    return frozenset(t for t in atom.args if isinstance(t, Var))


def is_hierarchical(query: QueryLike) -> bool:
    """Hierarchy test: variable atom-sets pairwise nested or disjoint."""
    cq = _as_boolean_cq(query)
    atoms = _atom_parts(cq)
    occurrences: Dict[Var, Set[int]] = {}
    for index, atom in enumerate(atoms):
        for variable in _variables_of(atom):
            occurrences.setdefault(variable, set()).add(index)
    variables = list(occurrences)
    for i, x in enumerate(variables):
        for y in variables[i + 1 :]:
            sx, sy = occurrences[x], occurrences[y]
            if not (sx <= sy or sy <= sx or not (sx & sy)):
                return False
    return True


def has_self_join(query: QueryLike) -> bool:
    """True when some relation name occurs in two different atoms."""
    cq = _as_boolean_cq(query)
    atoms = _atom_parts(cq)
    names = [a.relation for a in set(atoms)]
    return len(names) != len(set(names))


def is_safe(query: QueryLike) -> bool:
    """Safe = Boolean CQ, no self-joins, hierarchical.

    Delegates to the static dichotomy classifier
    (:func:`repro.logic.safety.classify_dichotomy`); the differential
    suite pins its agreement with :func:`is_hierarchical` /
    :func:`has_self_join`, which keep their independent implementations
    as oracles and share only its query normaliser.
    """
    return safety.classify_dichotomy(query).safe


def lifted_probability(
    db: UnreliableDatabase, query: QueryLike, verdict=None
) -> Fraction:
    """Exact ``Pr[B |= q]`` for a safe Boolean conjunctive query.

    Runs the hierarchy tree of the query's dichotomy verdict in
    polynomial time.  ``verdict`` is that verdict when the caller
    already holds it (the executor's plan, which also passes its
    :class:`~repro.logic.evaluator.FOQuery`); only without one is the
    query classified here.  Raises :class:`UnsafeQueryError` on an
    unsafe verdict.
    """
    if verdict is None:
        verdict = safety.classify_dichotomy(_as_boolean_cq(query))
    if not verdict.safe:
        raise UnsafeQueryError(verdict.summary(), verdict=verdict)
    with obs.span("lifted.probability", atoms=len(verdict.atoms)):
        uniform = is_uniform_half(db)
        if uniform:
            obs.inc("lifted.uniform_fast_path")
        numerator, denominator = _evaluate(verdict.plan, db, {}, uniform)
        return Fraction(numerator, denominator)


def _evaluate(
    node: safety.PlanNode, db: UnreliableDatabase, binding: Dict[Var, Any],
    uniform: bool,
) -> Tuple[int, int]:
    """``Pr`` of the sub-plan at ``node`` with its outer variables bound.

    The probability comes back as an unreduced ``(numerator,
    denominator)`` pair of integers — Theorem 4.2's granularity idea:
    denominators multiply and no gcd is taken until
    :func:`lifted_probability` builds the one :class:`Fraction`.
    Children of a join touch disjoint relations (no self-joins) and the
    branches of a project touch disjoint tuples (the root variable is
    in every atom below it), so both are independent products.  On an
    all-1/2 database (``uniform``) every atom has ``nu`` 1/2 whatever
    the binding, so a project's ``n`` branches are identical and one
    stands in for all of them — the Amarilli–Kimelfeld speedup: the
    work depends on the query alone.
    """
    obs.inc("lifted.recursive_calls")
    checkpoint()
    if node.kind == "atom":
        if uniform:
            return 1, 2
        args = tuple(
            binding[t] if isinstance(t, Var) else t.value
            for t in node.atom.args
        )
        nu = db.nu(Atom(node.atom.relation, args))
        return nu.numerator, nu.denominator
    if node.kind == "join":
        numerator = denominator = 1
        for child in node.children:
            num, den = _evaluate(child, db, binding, uniform)
            numerator *= num
            denominator *= den
            if numerator == 0:
                break
        return numerator, denominator
    obs.inc("lifted.projections")
    (child,) = node.children
    if uniform:
        num, den = _evaluate(child, db, binding, uniform)
        size = db.universe_size
        return den**size - (den - num) ** size, den**size
    miss = denominator = 1
    for element in db.structure.universe:
        binding[node.variable] = element
        num, den = _evaluate(child, db, binding, uniform)
        miss *= den - num
        denominator *= den
        if miss == 0:
            break
    binding.pop(node.variable, None)
    return denominator - miss, denominator


def is_uniform_half(db: UnreliableDatabase) -> bool:
    """True when every atom's error probability ``mu`` equals 1/2.

    This is the *uniform reliability* regime of Amarilli–Kimelfeld
    ("Uniform Reliability of Self-Join-Free Conjunctive Queries"):
    ``nu(A) = 1 - mu(A)`` if ``A`` holds and ``mu(A)`` otherwise, so
    with ``mu == 1/2`` everywhere every atom is present in the random
    world with probability exactly 1/2 *regardless of the observed
    structure* — the answer depends only on the query and the domain
    size.
    """
    table = db.error_table()
    if any(value != _HALF for value in table.values()):
        return False
    if db.default_error == _HALF:
        return True
    # The default is only reachable through atoms absent from the
    # table; a table covering the whole atom space is still uniform.
    return all(atom in table for atom in db.structure.atoms())


def uniform_reliability(db: UnreliableDatabase, query: QueryLike) -> Fraction:
    """``Pr[B |= q]`` of a safe CQ on an all-1/2 database, directly.

    A convenience entry point for the Amarilli–Kimelfeld fast path
    (:func:`lifted_probability` takes it automatically whenever
    :func:`is_uniform_half` holds); raises :class:`UnsafeQueryError`
    outside the safe fragment and :class:`QueryError` when the database
    is not uniform.
    """
    if not is_uniform_half(db):
        raise QueryError(
            "uniform_reliability requires an all-1/2 database; "
            "use lifted_probability for general error tables"
        )
    return lifted_probability(db, query)


def lifted_wrong_probability(
    db: UnreliableDatabase, query: QueryLike, verdict=None
) -> Fraction:
    """``Pr[Wrong(q)]`` through the lifted engine."""
    if not isinstance(query, FOQuery):
        query = _as_boolean_cq(query)
    observed = query.evaluate(db.structure, ())
    p = lifted_probability(db, query, verdict)
    return 1 - p if observed else p


def lifted_reliability(
    db: UnreliableDatabase, query: QueryLike, verdict=None
) -> Fraction:
    """``R_q`` of a safe Boolean conjunctive query, in polynomial time."""
    return 1 - lifted_wrong_probability(db, query, verdict)
