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

The pass grounds by lookup rather than by the proof's literal product.
Each relation the query mentions gets one lookup table per pass
(:func:`lookup_tables`), from argument tuples to their folded state
(:func:`fold` is the one folding rule).  Each clause template is
compiled once (:class:`ClauseTemplate`): the free variables and then
the existential ones form one nest of levels, and each literal is
tested at the first level that binds all of its variables.  The walk
(:class:`_Walk`) skips every valuation beneath a literal that folds to
false and charges the skipped subtree's ``n ** levels_below`` raw
clauses in one checkpoint, so the counters and the budget ledger are
those of the product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import itemgetter
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

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
from repro.runtime.budget import active_budget, checkpoint
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
    propositional clause.  Each template is compiled once against the
    pass's :func:`lookup tables <lookup_tables>` and walked as one nest of
    levels, the free variables first (see :class:`_Walk`); a literal
    that folds to false skips every valuation beneath it.  The budget
    sees what grounding each instantiation clause by clause would
    charge: one preflight (every instantiation has the same shape), one
    clause per raw clause, and an empty clause ends its tuple.

    Returns ``(width, raw clause count, certain, dnfs)``: the tuples
    whose instantiation is certainly true, and the others' DNFs where
    they are not constant, both in tuple order.  A tuple in neither is
    certainly false.
    """
    variables, matrix = existential_parts(formula)
    clause_templates = dnf_clauses(matrix)
    width = max((len(c) for c in clause_templates), default=0)
    universe = db.structure.universe
    # Refuse a grounding the active budget predicts to be hopeless:
    # |templates| * n ** |variables| clauses per tuple (Theorem 5.4).
    preflight_grounding(len(universe), len(variables), len(clause_templates))
    levels = tuple(free) + variables
    tables = lookup_tables(db, clause_templates)
    walk = _Walk(universe, len(free), len(levels))
    for template in clause_templates:
        if not walk.run(ClauseTemplate(template, levels, tables)):
            break
    position = {value: index for index, value in enumerate(universe)}

    def order(args: TupleOf) -> List[int]:
        return [position[value] for value in args]

    certain = sorted(walk.certain, key=order)
    dnfs: Dict[TupleOf, DNF] = {}
    kept_count = len(certain)  # DNF.true(): one empty clause each
    variable_count = 0
    for args in sorted(walk.grounded, key=order):
        if args in walk.certain:
            continue
        dnf = DNF(walk.grounded[args])
        if dnf.clauses:
            kept_count += len(dnf.clauses)
            variable_count += len(dnf.variables)
            dnfs[args] = dnf
    obs.inc("grounding.clauses_raw", walk.raw)
    obs.inc("grounding.clauses_kept", kept_count)
    obs.inc("grounding.variables", variable_count)
    obs.gauge("grounding.width", width)
    return width, walk.raw, certain, dnfs


def fold(error: Fraction, observed: bool, atom):
    """The folding rule: an atom's actual value, or the atom itself.

    ``True`` / ``False`` when the atom's error probability ``error``
    makes its actual value certain (``mu`` 0 keeps the ``observed``
    value, ``mu`` 1 flips it), else ``atom``: the grounded clause keeps
    it as an uncertain literal.
    """
    if error == 0:
        return observed
    if error == 1:
        return not observed
    return atom


def _state(resolved):
    """A lookup-table entry: a folded value, or ``None`` for an
    uncertain atom not known yet, or an uncertain atom's
    ``(negative, positive)`` literals, indexed by polarity."""
    if resolved is None or resolved is True or resolved is False:
        return resolved
    return (Literal(resolved, False), Literal(resolved, True))


def _relations(
    clause_templates: Tuple[Tuple[Formula, ...], ...]
) -> FrozenSet[str]:
    return frozenset(
        core.relation
        for template in clause_templates
        for core in (p.sub if isinstance(p, Not) else p for p in template)
        if isinstance(core, AtomF)
    )


def lookup_tables(
    db: UnreliableDatabase,
    clause_templates: Tuple[Tuple[Formula, ...], ...],
) -> Dict[str, Tuple[Dict[TupleOf, Any], Any]]:
    """One grounding pass's lookup tables, one per mentioned relation.

    Each is ``(states, miss)``: ``states`` maps the argument tuples of
    the relation's observed rows and error-table entries to their
    :func:`_state`; ``miss`` is the state of every other tuple (not
    observed, error ``default_error``), ``None`` when that leaves it
    uncertain.  Built in one pass over those rows and entries, so no
    ``Fraction`` is compared again during the walk.
    """
    default = db.default_error
    structure = db.structure
    miss = fold(default, False, None)
    observed = fold(default, True, None)
    tables: Dict[str, Tuple[Dict[TupleOf, Any], Any]] = {}
    for name in _relations(clause_templates):
        rows = structure.relation(name)
        if observed is None:
            states = {args: _state(Atom(name, args)) for args in rows}
        else:
            states = dict.fromkeys(rows, observed)
        tables[name] = (states, miss)
    for atom, error in db.error_table().items():
        table = tables.get(atom.relation)
        if table is not None:
            table[0][atom.args] = _state(
                fold(error, structure.holds(atom), atom)
            )
    return tables


class _AtomLookup:
    """A lookup table that resolves each tuple on demand through the
    database: for grounding a few keys, where a whole-relation table
    would cost more than the keys."""

    __slots__ = ("db", "relation")

    def __init__(self, db: UnreliableDatabase, relation: str):
        self.db = db
        self.relation = relation

    def get(self, args: TupleOf, miss=None):
        atom = Atom(self.relation, args)
        db = self.db
        return _state(fold(db.mu(atom), db.structure.holds(atom), atom))


def atom_lookups(
    db: UnreliableDatabase,
    clause_templates: Tuple[Tuple[Formula, ...], ...],
) -> Dict[str, Tuple[_AtomLookup, None]]:
    """Lookup tables that resolve tuples one at a time (see
    :class:`_AtomLookup`), for :class:`ClauseTemplate`."""
    return {
        name: (_AtomLookup(db, name), None)
        for name in _relations(clause_templates)
    }


class ClauseTemplate:
    """One clause template compiled against a nest of variable levels.

    ``levels`` are the variables in walk order (the free variables, then
    the existential ones); ``tables`` resolve each relation's tuples
    (:func:`lookup_tables` or :func:`atom_lookups`).  Each literal becomes a
    test at the first level that binds all of its variables; one that
    mentions no variable is resolved here, and ``dead`` records that one
    folded the whole template to false.  ``values`` holds the walk's
    current valuation, then the template's constants; ``literals`` one
    slot per atom literal, in template order, ``None`` where it folded
    to true.
    """

    __slots__ = (
        "dead", "equalities", "atoms", "values", "literals", "deepest"
    )

    def __init__(
        self,
        template: Tuple[Formula, ...],
        levels: Tuple[Var, ...],
        tables: Mapping[str, Tuple[Any, Any]],
    ):
        position = {var: index for index, var in enumerate(levels)}
        self.dead = False
        self.values: List[Any] = [None] * len(levels)
        self.literals: List[Optional[Literal]] = []
        #: Per level: ``(left, right, positive)`` value positions of each
        #: equality, ``(slot, positive, args, states, miss, relation)``
        #: of each atom literal tested there.
        self.equalities: List[List[Tuple]] = [[] for _ in levels]
        self.atoms: List[List[Tuple]] = [[] for _ in levels]
        #: The deepest level with a test (-1: none).
        self.deepest = -1
        for part in template:
            positive = not isinstance(part, Not)
            core = part if positive else part.sub
            if isinstance(core, (Top, Bottom)):
                if isinstance(core, Top) != positive:
                    self.dead = True
                continue
            if isinstance(core, Eq):
                terms: Tuple[Term, ...] = (core.left, core.right)
            elif isinstance(core, AtomF):
                terms = core.args
            else:
                raise QueryError(
                    f"unexpected literal {type(core).__name__} in grounded "
                    "clause"
                )
            places = [self._place(term, position) for term in terms]
            depth = max(
                (place for place in places if place < len(levels)),
                default=-1,
            )
            self.deepest = max(self.deepest, depth)
            if isinstance(core, Eq):
                test = (places[0], places[1], positive)
                if depth >= 0:
                    self.equalities[depth].append(test)
                elif (self.values[places[0]] == self.values[places[1]]) != (
                    positive
                ):
                    self.dead = True
                continue
            slot = len(self.literals)
            self.literals.append(None)
            states, miss = tables[core.relation]
            test = (slot, positive, _getter(places), states, miss,
                    core.relation)
            if depth >= 0:
                self.atoms[depth].append(test)
            elif not _resolve(test, self.values, self.literals):
                self.dead = True

    def _place(self, term: Term, position: Mapping[Var, int]) -> int:
        if isinstance(term, Const):
            self.values.append(term.value)
            return len(self.values) - 1
        try:
            return position[term]
        except KeyError:
            raise QueryError(
                f"variable {term.name!r} is free in a sentence being grounded"
            ) from None

    def passes(self, depth: int) -> bool:
        """Test the literals of level ``depth`` against ``values``:
        ``False`` when one folds the clause to false."""
        values = self.values
        for left, right, positive in self.equalities[depth]:
            if (values[left] == values[right]) != positive:
                return False
        literals = self.literals
        for test in self.atoms[depth]:
            if not _resolve(test, values, literals):
                return False
        return True

    def clause(self) -> Optional[Clause]:
        """The clause of the literals the walk resolved, or ``None``
        when it is contradictory."""
        clause = Clause(filter(None, self.literals))
        return None if clause.contradictory else clause

    def ground(self, valuation: Sequence[Any]) -> Optional[Clause]:
        """The clause under one full valuation of the levels, or
        ``None`` when it is certainly false."""
        if self.dead:
            return None
        self.values[: len(valuation)] = valuation
        for depth in range(len(valuation)):
            if not self.passes(depth):
                return None
        return self.clause()


def _getter(places: List[int]):
    """The function from a valuation to one atom literal's arguments."""
    if len(places) == 1:
        (place,) = places
        return lambda values: (values[place],)
    if not places:
        return lambda values: ()
    return itemgetter(*places)


def _resolve(test: Tuple, values: List[Any], literals: List) -> bool:
    """Resolve one atom literal under ``values`` into its slot of
    ``literals``: ``False`` when it folds the clause to false."""
    slot, positive, args, states, miss, relation = test
    key = args(values)
    state = states.get(key, miss)
    if state is positive:
        literals[slot] = None
    elif state is None:
        literals[slot] = Literal(Atom(relation, key), positive)
    elif state is True or state is False:
        return False
    else:
        literals[slot] = state[positive]
    return True


class _Walk:
    """The pruned walk of one grounding pass over its compiled templates.

    Levels ``0 .. free_count - 1`` bind the free variables, the rest the
    existential ones; a template's clauses for one free tuple are its
    leaves under that tuple, in valuation order.  A level whose literal
    folds to false skips its subtree and charges the subtree's raw
    clauses in one call (:func:`_charge`); trailing levels with no test
    repeat one clause, charged once for all its copies.  Tuples made
    certain by an earlier template are skipped uncharged, as a
    tuple-by-tuple pass would never reach them.

    ``grounded`` maps each tuple to its clauses in template order,
    ``certain`` holds the tuples whose instantiation is certainly true,
    ``raw`` counts raw clauses.
    """

    def __init__(self, universe: Tuple[Any, ...], free_count: int,
                 level_count: int):
        self.universe = universe
        self.free_count = free_count
        n = len(universe)
        #: Index ``depth + 1``: raw clauses under one value of ``depth``.
        self.weights = [n ** (level_count - 1 - depth)
                        for depth in range(-1, level_count)]
        self.per_tuple = n ** (level_count - free_count)
        self.grounded: Dict[TupleOf, List[Clause]] = {}
        self.certain: Set[TupleOf] = set()
        #: Certain tuples under each free prefix, for subtree charges.
        self.prefixes: Dict[TupleOf, int] = {}
        self.raw = 0
        self.stop = -1

    def run(self, template: ClauseTemplate) -> bool:
        """Walk one template; ``False`` once a sentence (no free
        variable) is certainly true and the pass can stop."""
        if not self.weights[0]:
            return True  # an empty universe: no valuation to ground
        # The level whose values complete a clause: the template's
        # deepest test, or the last free level (each tuple has its own).
        self.stop = max(template.deepest, self.free_count - 1)
        if template.dead:
            self._skip(-1, ())
        elif self.stop < 0:
            self._leaf(template, -1)
        else:
            self._descend(template, 0)
        return not (self.free_count == 0 and self.certain)

    def _descend(self, template: ClauseTemplate, depth: int) -> bool:
        """Walk level ``depth``; ``True`` when the tuple being walked
        became certain (at an existential level: its walk ends)."""
        values = template.values
        free_count = self.free_count
        at_tuple = depth == free_count - 1
        inner = depth >= free_count
        last = depth == self.stop
        certain = self.certain
        for value in self.universe:
            values[depth] = value
            if at_tuple and certain and tuple(values[:free_count]) in certain:
                continue
            if not template.passes(depth):
                self._skip(depth, values)
                continue
            if last:
                if self._leaf(template, depth) and inner:
                    return True
            elif self._descend(template, depth + 1) and inner:
                return True
        return False

    def _leaf(self, template: ClauseTemplate, depth: int) -> bool:
        """Ground the clause the walk reached; ``True`` when it made its
        tuple certain."""
        clause = template.clause()
        if clause is None:
            self._charge(self.weights[depth + 1])
            return False
        args = tuple(template.values[: self.free_count])
        if not clause:
            self._charge(1)
            self.certain.add(args)
            for end in range(self.free_count):
                prefix = args[:end]
                self.prefixes[prefix] = self.prefixes.get(prefix, 0) + 1
            return True
        self._charge(self.weights[depth + 1])
        self.grounded.setdefault(args, []).append(clause)
        return False

    def _skip(self, depth: int, values: Sequence[Any]) -> None:
        """Charge the raw clauses under a value of ``depth`` that folded."""
        free_count = self.free_count
        if depth >= free_count - 1:
            self._charge(self.weights[depth + 1])
            return
        # The subtree spans free tuples: those certain already are not
        # ground again.
        tuples = len(self.universe) ** (free_count - 1 - depth)
        prefix = tuple(values[: depth + 1])
        self._charge(
            (tuples - self.prefixes.get(prefix, 0)) * self.per_tuple
        )

    def _charge(self, clauses: int) -> None:
        """Charge ``clauses`` raw clauses in one checkpoint.

        Under a clause cap, a charge that crosses it charges up to the
        first clause past the cap (one clause on a ledger already past
        it, as a retry's is), where a clause-by-clause pass stops, so
        ``BudgetExceeded`` leaves the same ledger.
        """
        self.raw += clauses
        budget = active_budget()
        cap = budget.max_ground_clauses
        if cap is not None and budget.ground_clauses + clauses > cap:
            clauses = min(clauses, max(cap + 1 - budget.ground_clauses, 1))
        checkpoint(clauses=clauses)


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


def has_wrong_target(formula: Formula) -> bool:
    """Whether :func:`wrong_target` accepts ``formula``: the grounded
    routes take exactly these queries."""
    try:
        wrong_target(formula)
    except QueryError:
        return False
    return True


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
            yield self.cell(args)

    def cell(self, args: TupleOf) -> Cell:
        """One tuple's cell, as :meth:`cells` yields it."""
        observed = self.observed(args)
        dnf = self.dnfs.get(args)
        if dnf is None:
            return args, observed, args in self.certain
        checkpoint()
        obs.inc("reliability.tuples_visited")
        return args, observed, dnf


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
