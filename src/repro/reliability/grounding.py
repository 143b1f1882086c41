"""Grounding queries to propositional formulas over ground atoms.

Theorem 5.4's proof replaces the quantifiers of an existential sentence by
disjunctions over all universe values, reads atomic statements as
propositional variables, and lands in kDNF whose size is polynomial in
``n``.  :func:`ground_existential_to_dnf` is that transformation, with
one practically-essential refinement the proof can afford to skip:
deterministic atoms (``mu`` 0 or 1) are *folded to constants*, so the
resulting DNF mentions only uncertain atoms.  Without folding, the
2-CNF-reduction databases of Proposition 3.2 would drag thousands of
fixed ``L``/``R`` atoms into every clause.

:func:`ground_answers` grounds a k-ary query's wrong targets for every
answer tuple in one pass (Corollary 5.5's per-tuple decomposition, the
lineage of each tuple in the probabilistic-database sense).  Tuples
whose lineage folds to a constant need no engine at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Tuple, Union

from repro import obs
from repro.kernels.cache import compilation_cache
from repro.logic.classify import is_existential, is_universal
from repro.logic.evaluator import FOQuery
from repro.logic.fo import (
    AtomF,
    Bottom,
    Eq,
    Formula,
    Not,
    Top,
    neg,
)
from repro.logic.normalform import dnf_clauses, existential_parts
from repro.logic.terms import Const, Term, Var
from repro.propositional.formula import DNF, Clause, Literal
from repro.relational.atoms import Atom
from repro.reliability.unreliable import UnreliableDatabase
from repro.runtime.budget import checkpoint
from repro.runtime.preflight import preflight_grounding
from repro.util.errors import QueryError


@dataclass(frozen=True)
class GroundingResult:
    """A grounded existential sentence.

    Attributes:
        dnf: propositional DNF over uncertain :class:`Atom` variables;
        width: the ``k`` of the source kDNF matrix (clause width bound);
        clauses_before_folding: grounded clause count before
            deterministic-atom simplification, for blowup reporting.
    """

    dnf: DNF
    width: int
    clauses_before_folding: int


def ground_existential_to_dnf(
    db: UnreliableDatabase, sentence: Formula
) -> GroundingResult:
    """Ground a Boolean existential sentence to a DNF over uncertain atoms.

    Implements the proof of Theorem 5.4: prenex the sentence, put the
    matrix in DNF (constant cost — it depends only on the query), then for
    every clause and every valuation of the existential variables emit a
    propositional clause.  Equalities are evaluated away; deterministic
    atoms fold to constants (a clause containing a false deterministic
    literal is dropped; true literals vanish).

    Results are memoised in the kernels compilation cache keyed on the
    database fingerprint and the sentence AST, so repeated runs of the
    same query skip re-grounding entirely (``kernels.cache.hits``);
    grounding counters fire only on actual grounding work.

    Raises :class:`QueryError` if the sentence is not existential (the
    caller handles universal sentences by negating).
    """
    key = ("grounding", db.fingerprint(), sentence)
    return compilation_cache.get_or_create(
        key, lambda: _ground_uncached(db, sentence)
    )


def _ground_uncached(
    db: UnreliableDatabase, sentence: Formula
) -> GroundingResult:
    with obs.span("grounding.ground"):
        width, raw_count, certain, dnfs = _ground_pass(db, sentence, ())
        dnf = DNF.true() if certain else dnfs.get((), DNF([]))
        return GroundingResult(dnf, width, raw_count)


TupleOf = Tuple[Any, ...]


def _ground_pass(
    db: UnreliableDatabase, formula: Formula, free: Tuple[Var, ...]
) -> Tuple[int, int, List[TupleOf], Dict[TupleOf, DNF]]:
    """Ground ``formula`` once per valuation of its free variables ``free``.

    Theorem 5.4's transformation, prenexing once: for every valuation of
    ``free`` (one, the empty tuple, for a sentence), every clause
    template and every valuation of the existential variables, emit a
    propositional clause.  The budget sees what grounding each
    instantiation on its own would charge: one preflight (every
    instantiation has the same shape), ``checkpoint(clauses=1)`` per raw
    clause, and an empty clause ends its tuple.

    Returns ``(width, raw clause count, certain, dnfs)``: the tuples
    whose instantiation is certainly true, and the others' DNFs where
    they are not constant.  A tuple in neither is certainly false.
    """
    variables, matrix = existential_parts(formula)
    clause_templates = dnf_clauses(matrix)
    width = max((len(c) for c in clause_templates), default=0)
    universe = db.structure.universe
    # Refuse a grounding the active budget predicts to be hopeless:
    # |templates| * n ** |variables| clauses per tuple (Theorem 5.4).
    preflight_grounding(len(universe), len(variables), len(clause_templates))
    certain: List[TupleOf] = []
    dnfs: Dict[TupleOf, DNF] = {}
    raw_count = kept_count = variable_count = 0
    for args in product(universe, repeat=len(free)):
        grounded, raw = _ground_templates(
            db, clause_templates, variables, dict(zip(free, args))
        )
        raw_count += raw
        if grounded is None:
            certain.append(args)
            kept_count += 1  # DNF.true(): one empty clause
            continue
        dnf = DNF(grounded)
        if dnf.clauses:
            kept_count += len(dnf.clauses)
            variable_count += len(dnf.variables)
            dnfs[args] = dnf
    obs.inc("grounding.clauses_raw", raw_count)
    obs.inc("grounding.clauses_kept", kept_count)
    obs.inc("grounding.variables", variable_count)
    obs.gauge("grounding.width", width)
    return width, raw_count, certain, dnfs


def _ground_templates(
    db: UnreliableDatabase,
    clause_templates: Tuple[Tuple[Formula, ...], ...],
    variables: Tuple[Var, ...],
    env: Dict[Var, object],
) -> Tuple[Optional[List[Clause]], int]:
    """Ground each template under every valuation of ``variables``.

    ``env`` binds any other (free) variables.  Returns the surviving
    clauses, or ``None`` once an empty clause makes the sentence
    certainly true, with the raw clause count up to that point.
    """
    grounded: List[Clause] = []
    raw_count = 0
    for template in clause_templates:
        for values in product(db.structure.universe, repeat=len(variables)):
            env.update(zip(variables, values))
            raw_count += 1
            checkpoint(clauses=1)
            clause = ground_clause(db, template, env)
            if clause is None:
                continue
            if len(clause) == 0:
                return None, raw_count
            grounded.append(clause)
    return grounded, raw_count


def wrong_target(formula: Formula) -> Formula:
    """The existential sentence Corollary 5.5 estimates for ``formula``.

    A universal sentence is handled through its existential negation:
    ``Wrong(psi) = Wrong(~psi)`` (the truth values differ on exactly the
    same worlds).  For a k-ary query the target keeps the free variables;
    instantiating it gives each answer tuple's target.
    """
    if is_existential(formula):
        return formula
    if is_universal(formula):
        return neg(formula)
    raise QueryError(
        "Corollary 5.5 applies to existential or universal queries only"
    )


#: One answer tuple of a :class:`Lineage`: its observed target value,
#: and the target's DNF, or ``True`` / ``False`` when the target holds in
#: every world / in none.
Cell = Tuple[TupleOf, bool, Union[DNF, bool]]


@dataclass(frozen=True)
class Lineage:
    """A query's wrong targets, grounded for every answer tuple.

    Attributes:
        universe, arity: the answer tuples are
            ``product(universe, repeat=arity)``; a Boolean query has the
            one tuple ``()``;
        negated: the query is universal, so each target is the negation
            of the query's instantiation (see :func:`wrong_target`);
        answers: the query's answer relation on the observed structure;
        certain: tuples whose target holds in every world;
        dnfs: the remaining tuples with a non-constant target, each with
            its DNF over uncertain atoms.  A tuple in neither ``certain``
            nor ``dnfs`` has a target that holds in no world.
    """

    universe: Tuple[Any, ...]
    arity: int
    negated: bool
    answers: FrozenSet[TupleOf]
    certain: FrozenSet[TupleOf]
    dnfs: Dict[TupleOf, DNF]

    def observed(self, args: TupleOf) -> bool:
        """Whether the tuple's target holds on the observed structure."""
        return (args in self.answers) != self.negated

    def cells(self) -> Iterator[Cell]:
        """``(args, observed, target)`` for every answer tuple, in order.

        A constant cell is wrong in every world when ``observed !=
        target``, and right in every world otherwise.  Each cell with a
        DNF is a visited tuple: it passes a budget checkpoint and counts
        in ``reliability.tuples_visited`` before it is yielded.
        """
        for args in product(self.universe, repeat=self.arity):
            observed = self.observed(args)
            dnf = self.dnfs.get(args)
            if dnf is None:
                yield args, observed, args in self.certain
                continue
            checkpoint()
            obs.inc("reliability.tuples_visited")
            yield args, observed, dnf


def ground_answers(db: UnreliableDatabase, query: FOQuery) -> Lineage:
    """Ground every answer tuple's wrong target of a query at once.

    Each tuple's DNF equals ``ground_existential_to_dnf(db,
    wrong_target(query.instantiated(args))).dnf`` clause for clause: the
    open target goes through the grounding pass once, over the free
    values, then the bound values.  Memoised in the compilation cache;
    an aborted pass caches nothing.
    """
    key = ("lineage", db.fingerprint(), query.formula, query.free_order)
    return compilation_cache.get_or_create(
        key, lambda: _ground_answers_uncached(db, query)
    )


def _ground_answers_uncached(
    db: UnreliableDatabase, query: FOQuery
) -> Lineage:
    with obs.span("grounding.ground", arity=query.arity):
        target = wrong_target(query.formula)
        _, _, certain, dnfs = _ground_pass(db, target, query.free_order)
        return Lineage(
            universe=tuple(db.structure.universe),
            arity=query.arity,
            negated=target is not query.formula,
            answers=frozenset(query.answers(db.structure)),
            certain=frozenset(certain),
            dnfs=dnfs,
        )


def ground_clause(
    db: UnreliableDatabase,
    template: Tuple[Formula, ...],
    env: Dict[Var, object],
) -> Optional[Clause]:
    """One grounded clause, or ``None`` when it is certainly false.

    Shared with :mod:`repro.delta`, which re-derives exactly the clauses
    a single-atom update can affect instead of regrounding everything.
    """
    literals: List[Literal] = []
    for part in template:
        positive = True
        core = part
        if isinstance(core, Not):
            positive = False
            core = core.sub
        if isinstance(core, Top):
            if not positive:
                return None
            continue
        if isinstance(core, Bottom):
            if positive:
                return None
            continue
        if isinstance(core, Eq):
            left = _value(core.left, env)
            right = _value(core.right, env)
            if (left == right) != positive:
                return None
            continue
        if isinstance(core, AtomF):
            atom = Atom(core.relation, tuple(_value(t, env) for t in core.args))
            error = db.mu(atom)
            if error == 0:
                # Actual value equals the observed value, deterministically.
                if db.structure.holds(atom) != positive:
                    return None
                continue
            if error == 1:
                # Actual value is the flip of the observed one.
                if db.structure.holds(atom) == positive:
                    return None
                continue
            literals.append(Literal(atom, positive))
            continue
        raise QueryError(
            f"unexpected literal {type(core).__name__} in grounded clause"
        )
    clause = Clause(literals)
    if clause.contradictory:
        return None
    return clause


# Backwards-compatible alias (pre-delta name).
_ground_clause = ground_clause


def _value(term: Term, env: Dict[Var, object]) -> object:
    if isinstance(term, Const):
        return term.value
    try:
        return env[term]
    except KeyError:
        raise QueryError(
            f"variable {term.name!r} is free in a sentence being grounded"
        ) from None


def grounding_probabilities(db: UnreliableDatabase, dnf: DNF):
    """The ``nu`` map restricted to the atoms of a grounded DNF."""
    return {atom: db.nu(atom) for atom in dnf.variables}


def relevant_atoms(db: UnreliableDatabase, query) -> Tuple[Atom, ...]:
    """Uncertain atoms that could influence a query's answer.

    For first-order queries this is the uncertain atoms of the relations
    the formula mentions; for opaque queries (Datalog, second-order, ...)
    it is every uncertain atom.  Used by the exact engine to shrink the
    enumeration space from ``2 ** #uncertain`` to ``2 ** #relevant``.
    """
    formula = None
    if isinstance(query, FOQuery):
        formula = query.formula
    elif isinstance(query, Formula):
        formula = query
    if formula is None:
        return db.uncertain_atoms()

    def compute() -> Tuple[Atom, ...]:
        from repro.logic.fo import relations_used

        used = relations_used(formula)
        return tuple(a for a in db.uncertain_atoms() if a.relation in used)

    key = ("relevant_atoms", db.fingerprint(), formula)
    return compilation_cache.get_or_create(key, compute)
