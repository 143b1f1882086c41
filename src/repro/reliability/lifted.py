"""Lifted (safe-plan) inference for hierarchical conjunctive queries.

Proposition 3.2 shows that conjunctive-query reliability is #P-hard *in
general*; the line of work this paper opened (Dalvi–Suciu's dichotomy)
later isolated exactly which conjunctive queries stay tractable: Boolean
CQs **without self-joins** whose variable structure is *hierarchical* —
for any two variables, the sets of atoms containing them are nested or
disjoint.  For those, the probability factorises and is computable in
polynomial time over tuple-independent databases — which is exactly what
an unreliable database's ``nu`` is.

This module implements that extension:

* :func:`is_hierarchical` / :func:`is_safe` — syntactic safety test;
* :func:`lifted_probability` — exact ``Pr[B |= q]`` by the safe-plan
  recursion (independent-component product, independent-project over a
  root variable, ground-atom factoring);
* :func:`lifted_reliability` — the reliability of a safe Boolean CQ.

Unsafe queries raise :class:`UnsafeQueryError`; callers fall back to the
grounded-DNF engine (whose worst case is the Proposition 3.2 hardness).
Tests assert agreement with the exact engine on random databases, and
benchmark E11 measures the polynomial-vs-exponential gap.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple, Union

from repro import obs
from repro.logic.conjunctive import ConjunctiveQuery
from repro.logic.fo import AtomF, Eq, Formula
from repro.logic.terms import Const, Term, Var
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


QueryLike = Union[ConjunctiveQuery, Formula, str]


def _as_boolean_cq(query: QueryLike) -> ConjunctiveQuery:
    if isinstance(query, str):
        query = ConjunctiveQuery.from_text(query)
    elif isinstance(query, Formula):
        query = ConjunctiveQuery.from_formula(query)
    if not isinstance(query, ConjunctiveQuery):
        raise QueryError(
            f"lifted inference expects a conjunctive query, got "
            f"{type(query).__name__}"
        )
    if query.arity != 0:
        raise QueryError("lifted inference works on Boolean queries; "
                         "instantiate free variables first")
    return query


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
    as oracles.
    """
    from repro.logic.safety import classify_dichotomy

    try:
        cq = _as_boolean_cq(query)
    except QueryError:
        return False
    return classify_dichotomy(cq).safe


def lifted_probability(
    db: UnreliableDatabase, query: QueryLike, verdict=None
) -> Fraction:
    """Exact ``Pr[B |= q]`` for a safe Boolean conjunctive query.

    Polynomial time: the recursion instantiates one root variable per
    level (``n`` branches each), multiplies independent components and
    ``nu``-values of ground atoms.  Raises :class:`UnsafeQueryError` if
    the recursion gets stuck, which for self-join-free CQs happens
    exactly on the non-hierarchical ones.  ``verdict`` is the query's
    dichotomy verdict when the caller already holds it (the executor's
    plan); otherwise it is classified here.
    """
    from repro.logic.safety import classify_dichotomy

    cq = _as_boolean_cq(query)
    atoms = _atom_parts(cq)
    if verdict is None:
        verdict = classify_dichotomy(cq)
    if not verdict.safe:
        raise UnsafeQueryError(verdict.summary(), verdict=verdict)
    with obs.span("lifted.probability", atoms=len(atoms)):
        unique = list(dict.fromkeys(atoms))
        if is_uniform_half(db):
            obs.inc("lifted.uniform_fast_path")
            return _uniform_probability(unique, db.universe_size)
        return _probability(db, unique)


def _probability(db: UnreliableDatabase, atoms: List[AtomF]) -> Fraction:
    obs.inc("lifted.recursive_calls")
    checkpoint()
    if not atoms:
        return Fraction(1)

    # 1. Factor out ground atoms: independent of everything else because
    #    their relations occur nowhere else (no self-joins).
    ground: List[AtomF] = []
    open_atoms: List[AtomF] = []
    for atom in atoms:
        (ground if not _variables_of(atom) else open_atoms).append(atom)
    probability = Fraction(1)
    for atom in ground:
        args = tuple(t.value for t in atom.args)  # all Consts
        probability *= db.nu(Atom(atom.relation, args))
        if probability == 0:
            return Fraction(0)
    if not open_atoms:
        return probability

    # 2. Split into variable-connected components: touch disjoint
    #    relations, hence independent events.
    components = _components(open_atoms)
    if len(components) > 1:
        for component in components:
            probability *= _probability(db, component)
        return probability

    # 3. Independent project on a root variable.
    component = components[0]
    root = _root_variable(component)
    if root is None:
        raise UnsafeQueryError(
            "no root variable: the query is not hierarchical "
            f"(stuck on {[str(a) for a in component]})"
        )
    obs.inc("lifted.projections")
    miss = Fraction(1)
    for element in db.structure.universe:
        instantiated = [
            _substitute_atom(atom, root, element) for atom in component
        ]
        miss *= 1 - _probability(db, instantiated)
        if miss == 0:
            break
    return probability * (1 - miss)


def _components(atoms: List[AtomF]) -> List[List[AtomF]]:
    remaining = list(atoms)
    components: List[List[AtomF]] = []
    while remaining:
        seed = remaining.pop()
        component = [seed]
        variables = set(_variables_of(seed))
        changed = True
        while changed:
            changed = False
            still = []
            for atom in remaining:
                if _variables_of(atom) & variables:
                    component.append(atom)
                    variables |= _variables_of(atom)
                    changed = True
                else:
                    still.append(atom)
            remaining = still
        components.append(component)
    return components


def _root_variable(atoms: List[AtomF]):
    candidates = set(_variables_of(atoms[0]))
    for atom in atoms[1:]:
        candidates &= _variables_of(atom)
        if not candidates:
            return None
    return sorted(candidates)[0]


def _substitute_atom(atom: AtomF, variable: Var, value) -> AtomF:
    return AtomF(
        atom.relation,
        tuple(
            Const(value) if term == variable else term for term in atom.args
        ),
    )


#: Marker constant used when the uniform recursion instantiates a root
#: variable: with every ``nu`` equal to 1/2 the branches of an
#: independent project are *symmetric*, so one symbolic branch stands
#: in for all ``n`` of them.
_UNIFORM_MARKER = "★"


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
    half = Fraction(1, 2)
    table = db.error_table()
    if any(value != half for value in table.values()):
        return False
    if db.default_error == half:
        return True
    # The default is only reachable through atoms absent from the
    # table; a table covering the whole atom space is still uniform.
    return all(atom in table for atom in db.structure.atoms())


def _uniform_probability(atoms: List[AtomF], n: int) -> Fraction:
    """``Pr[B |= q]`` on an all-1/2 database, by structural recursion.

    The safe-plan recursion collapses: every ground atom contributes a
    factor 1/2 (its ``nu`` is 1/2 whether or not it is observed), and
    an independent project's ``n`` branches are identical up to the
    constant chosen, so the per-element miss probability is computed
    once and raised to the ``n``-th power.  The recursion therefore
    runs in time polynomial in the *query* size (plus big-integer
    exponentiation) — no factor of ``n`` branches at all, the
    Amarilli–Kimelfeld speedup over the general lifted plan.
    """
    obs.inc("lifted.recursive_calls")
    checkpoint()
    if not atoms:
        return Fraction(1)
    ground = [a for a in atoms if not _variables_of(a)]
    open_atoms = [a for a in atoms if _variables_of(a)]
    probability = Fraction(1, 2 ** len(ground))
    if not open_atoms:
        return probability
    components = _components(open_atoms)
    if len(components) > 1:
        for component in components:
            probability *= _uniform_probability(component, n)
        return probability
    component = components[0]
    root = _root_variable(component)
    if root is None:
        raise UnsafeQueryError(
            "no root variable: the query is not hierarchical "
            f"(stuck on {[str(a) for a in component]})"
        )
    obs.inc("lifted.projections")
    branch = _uniform_probability(
        [_substitute_atom(atom, root, _UNIFORM_MARKER) for atom in component],
        n,
    )
    return probability * (1 - (1 - branch) ** n)


def uniform_reliability(db: UnreliableDatabase, query: QueryLike) -> Fraction:
    """``Pr[B |= q]`` of a safe CQ on an all-1/2 database, directly.

    A convenience entry point for the Amarilli–Kimelfeld fast path
    (:func:`lifted_probability` dispatches to it automatically whenever
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
    cq = _as_boolean_cq(query)
    observed = cq.evaluate(db.structure, ())
    p = lifted_probability(db, cq, verdict)
    return 1 - p if observed else p


def lifted_reliability(
    db: UnreliableDatabase, query: QueryLike, verdict=None
) -> Fraction:
    """``R_q`` of a safe Boolean conjunctive query, in polynomial time."""
    return 1 - lifted_wrong_probability(db, query, verdict)
