"""Delta sessions: reliability answers maintained under updates.

A :class:`DeltaSession` holds a Boolean query against an evolving
unreliable database and keeps ``Pr[B |= psi]`` current through
``set_mu`` / ``insert`` / ``delete`` in far less than a recompute:

* the grounded clause map is compiled **once** into a canonical ROBDD
  whose OR tree has one leaf slot per clause-map key, a folded clause
  being ``ZERO`` (cached, persistable under the ``delta_bdd`` kind, as
  just the nodes the tree reaches); the session patches a private copy
  and keeps an explicit bottom-up value table over the nodes reachable
  from its root;
* a *weight-only* update — an uncertain atom's ``mu`` moves but stays
  in ``(0, 1)``, or a tuple with uncertain ``mu`` flips in the observed
  structure, so ``nu`` changes but no clause folds — re-evaluates only
  the reachable nodes at levels at or above the atom's level
  (``delta.nodes_reevaluated`` counts them); children sit strictly
  deeper, so everything below is untouched;
* a *structural* update — ``mu`` crosses 0 or 1, or a deterministic
  tuple flips — regrounds only the clauses the atom unifies into
  (:class:`~repro.delta.reground.DeltaGrounding`) and, when a clause
  actually changed, patches the diagram (``delta.recompiles``): each
  changed slot rebuilds its clause and the ORs on its path to the root
  (:meth:`BDD.patch`), hash-consing and the apply cache share the rest,
  and only the nodes the table holds no value for are evaluated.

The variable order starts sorted and is append-only: an atom new to
the DNF becomes a new bottom level, so existing node ids, levels and
values keep their meaning; the common denominator grows by the new
levels' denominators, one exact multiply of every stored value.
Reference counts keep the reachable set current without a walk, and
once the diagram has created more than :data:`COMPACT_RATIO` times the
nodes its tree still reaches, it is copied down to those
(``delta.compactions``).

Every answer is an exact :class:`~fractions.Fraction`, bit-identical
to ``truth_probability`` on the current database.  The value table
holds integers: numerators over one common denominator, the product of
the per-level denominators of ``nu`` (as in :meth:`BDD.value_table`).
A weight update whose level denominator changes rescales the stored
numerators once, multiplying by the new denominator and dividing
exactly by the old; the one :class:`~fractions.Fraction` is built when
an answer is read.

Updates are atomic: each builds the new database, clause changes, tree
entries and value table aside and commits them last, so an update
aborted at any budget checkpoint leaves the session's answers and state
exactly as they were.  Nodes and levels a patch added to the diagram
before the abort are harmless garbage: no committed entry reaches them,
and an appended level joins the value table only when a later patch
commits.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import (
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro import obs
from repro.delta.reground import DeltaGrounding
from repro.kernels.cache import compilation_cache
from repro.logic.classify import is_existential, is_universal
from repro.logic.evaluator import FOQuery
from repro.logic.fo import Formula, neg
from repro.runtime.budget import checkpoint
from repro.propositional.bdd import BDD, ONE, ZERO, compile_dnf
from repro.relational.atoms import Atom
from repro.reliability.exact import as_query
from repro.reliability.unreliable import UnreliableDatabase
from repro.util.errors import QueryError
from repro.util.rationals import RationalLike, parse_probability


#: A session's diagram is compacted (:meth:`BDD.compacted`) once it has
#: created more than this many times the nodes its OR tree still
#: reaches.  Compaction also drops the apply cache that keeps later
#: patches cheap: over the first 2,000 operations of the update-stream
#: benchmark (seed 1), 16 compacts 12 times in 1,080 session patches,
#: 4 compacts 62 times.
COMPACT_RATIO = 16


class _Table(NamedTuple):
    """The integer value table over the nodes reachable from ``root``.

    ``value`` maps the terminals and every reachable node to a
    numerator over ``value[ONE]``, the product of ``denominators``, one
    per committed level of the order.  ``levels`` groups the reachable
    nodes by level, and ``refs`` counts each one's reachable parents
    (plus one for the root), so a patch adds and drops nodes without
    walking the whole diagram; it is ``None`` until the session's first
    patch.
    """

    root: int
    levels: List[List[int]]
    refs: Optional[Dict[int, int]]
    numerators: List[int]
    denominators: List[int]
    value: Dict[int, int]


class DeltaSession:
    """One Boolean query, one evolving database, O(Δ) answers.

    Supports existential, universal (via negation), and ground
    quantifier-free sentences — the fragment Theorem 5.4 grounds.
    ``arity > 0`` queries and opaque query objects raise
    :class:`QueryError`; use per-tuple sessions for those.
    """

    def __init__(self, db: UnreliableDatabase, query):
        query = as_query(query)
        if getattr(query, "arity", 0) != 0:
            raise QueryError("DeltaSession expects a Boolean (0-ary) query")
        if not isinstance(query, FOQuery):
            raise QueryError(
                "DeltaSession needs a first-order query; opaque query "
                "objects have no clause structure to update incrementally"
            )
        self.query = query
        formula = query.formula
        # Universal sentences ground through their negation:
        # Pr[forall ...] = 1 - Pr[exists ... not ...].
        if is_universal(formula) and not is_existential(formula):
            self._base: Formula = neg(formula)
            self._negate = True
        else:
            self._base = formula
            self._negate = False
        self._db = db
        self._sampler = None
        state = self._build(db)
        self._grounding, self._diagram, self._table = state

    # ------------------------------------------------------------------ #
    # answers
    # ------------------------------------------------------------------ #

    @property
    def db(self) -> UnreliableDatabase:
        """The current database (updates build fresh immutable values)."""
        return self._db

    @property
    def diagram_size(self) -> int:
        """Reachable diagram nodes — the per-update work bound."""
        return sum(len(level) for level in self._table.levels)

    def probability(self) -> Fraction:
        """Exact ``Pr[B |= psi]`` for the current database."""
        value = self._table.value
        p, scale = value[self._table.root], value[ONE]
        return Fraction(scale - p if self._negate else p, scale)

    def wrong_probability(self) -> Fraction:
        """``Pr[Wrong(psi)]`` against the current observed structure."""
        observed = self.query.evaluate(self._db.structure, ())
        p = self.probability()
        return 1 - p if observed else p

    def reliability(self) -> Fraction:
        """``R_psi(D) = 1 - Pr[Wrong(psi)]`` for a Boolean query."""
        return 1 - self.wrong_probability()

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #

    def set_mu(self, atom: Atom, probability: RationalLike) -> None:
        """Change one atom's error probability."""
        new = parse_probability(probability)
        old = self._db.mu(atom)
        if new == old:
            return
        obs.inc("delta.updates")
        db = self._db.with_errors({atom: new})
        if 0 < old < 1 and 0 < new < 1:
            # Folding status unchanged: every clause keeps its shape,
            # only the atom's nu moves.
            self._reweight(db, atom)
        else:
            self._structural(db, atom)

    def insert(self, atom: Atom) -> None:
        """Add a tuple to the observed structure."""
        self._set_observed(atom, True)

    def delete(self, atom: Atom) -> None:
        """Remove a tuple from the observed structure."""
        self._set_observed(atom, False)

    def _set_observed(self, atom: Atom, value: bool) -> None:
        if self._db.structure.holds(atom) == value:
            return
        obs.inc("delta.updates")
        db = self._db.with_structure(self._db.structure.with_atom(atom, value))
        if 0 < db.mu(atom) < 1:
            # nu flips between mu and 1-mu; clause shapes are untouched
            # (folding only inspects deterministic atoms).
            self._reweight(db, atom)
        else:
            self._structural(db, atom)

    def recompute(self) -> Fraction:
        """Rebuild everything from the current database (the cold path).

        Exposed for verification and as the escape hatch after update
        storms; the delta paths are bit-identical to this by
        construction (and by the property suite).
        """
        obs.inc("delta.recomputes")
        state = self._build(self._db)
        self._grounding, self._diagram, self._table = state
        if self._sampler is not None:
            self._sampler.mark_stale()
        return self.probability()

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #

    def attach_karp_luby(self, samples: int, rng, method: str = "coverage"):
        """Draw a reusable Karp–Luby sample set for the current state.

        The returned :class:`~repro.delta.sampling.ReweightableKarpLuby`
        tracks weight-only updates through importance re-weighting; a
        structural update marks it stale (redraw by calling this again).
        """
        from repro.delta.sampling import ReweightableKarpLuby

        dnf = self._grounding.dnf()
        self._sampler = ReweightableKarpLuby(
            dnf,
            {
                atom: float(self._db.nu(atom))
                for atom in sorted(dnf.variables, key=repr)
            },
            samples,
            rng,
            method=method,
            negate=self._negate,
        )
        return self._sampler

    # ------------------------------------------------------------------ #
    # machinery
    # ------------------------------------------------------------------ #

    def _build(
        self, db: UnreliableDatabase
    ) -> Tuple[DeltaGrounding, BDD, _Table]:
        """Ground, compile (or copy the cached compile) and evaluate."""
        grounding = DeltaGrounding(db, self._base)
        key = ("delta_bdd", db.fingerprint(), self._base)
        entry = compilation_cache.get_or_create(
            key, lambda: compile_dnf(grounding.slots())[0]
        )
        diagram = entry.copy()
        empty = _Table(ZERO, [], None, [], [], {ZERO: 0, ONE: 1})
        table, fresh = _grown(diagram, empty, db, diagram.tree[1])
        return grounding, diagram, table._replace(levels=fresh)

    def _count_references(self) -> None:
        """Take the reference counts patches maintain (see :class:`_Table`).

        They are counted at the first patch, so a session no structural
        update reaches never pays for them.
        """
        table = self._table
        refs: Dict[int, int] = {}
        _counted(refs, self._diagram.nodes, table.levels, table.root)
        self._table = table._replace(refs=refs)

    def _reweight(self, db: UnreliableDatabase, atom: Atom) -> None:
        """Weight-only path: re-evaluate the table, then commit."""
        obs.inc("delta.reweights")
        nu = db.nu(atom)
        table = self._reweighted(self._table, atom, nu)
        if self._sampler is not None:
            self._sampler.set_prob(atom, float(nu))
        self._db, self._table = db, table

    def _reweighted(self, table: _Table, atom: Atom, nu: Fraction) -> _Table:
        """A copy of ``table`` with ``atom`` at probability ``nu``.

        Dirty values propagate bottom-up: nodes at the atom's level
        recompute; a node above recomputes only when a child's value
        actually moved.  Untouched branches of the diagram cost one set
        lookup each (and one exact rescale when the level's denominator
        changed) — the per-update bill is the Δ, not the reachable node
        count.  ``table`` itself is left as it was.
        """
        level = self._diagram.level_of(atom)
        if level is None or level >= len(table.numerators):
            # The atom is not in the grounded DNF (relation not
            # mentioned, clause folded by other literals, or a level an
            # aborted update appended): the answer cannot depend on it.
            return table
        levels = table.levels
        old_den = table.denominators[level]
        if table.numerators[level] == nu.numerator and old_den == nu.denominator:
            return table
        if not levels[level]:
            # No reachable node depends on the level.
            return _relevelled(table, level, nu)
        numerators = list(table.numerators)
        denominators = list(table.denominators)
        numerators[level], denominators[level] = nu.numerator, nu.denominator
        new_den = nu.denominator
        rescale = new_den != old_den
        value = dict(table.value)
        if rescale:
            # The common denominator trades old_den for new_den.  Values
            # below the level do not depend on it, so they are multiples
            # of old_den and rescale exactly.  Rescaling is not
            # re-evaluation: it leaves delta.nodes_reevaluated alone.
            value[ONE] = value[ONE] // old_den * new_den
            for nodes in levels[level + 1:]:
                for node in nodes:
                    value[node] = value[node] * new_den // old_den
        nodes = self._diagram.nodes
        dirty: Set[int] = set()
        touched = 0
        for current in range(level, -1, -1):
            checkpoint(worlds=len(levels[current]))
            num, den = numerators[current], denominators[current]
            at_source = current == level
            for node in levels[current]:
                _node_level, low, high = nodes[node]
                old = value[node]
                if not at_source and low not in dirty and high not in dirty:
                    # Unchanged value: exact under the new denominator.
                    if rescale:
                        value[node] = old * new_den // old_den
                    continue
                lo = value[low]
                new = lo + num * (value[high] - lo) // den
                touched += 1
                # ``old`` is still over the old common denominator.
                if (new * old_den != old * new_den) if rescale else new != old:
                    dirty.add(node)
                value[node] = new
        obs.inc("delta.nodes_reevaluated", touched)
        return table._replace(
            numerators=numerators, denominators=denominators, value=value
        )

    def _structural(self, db: UnreliableDatabase, atom: Atom) -> None:
        """Structural path: targeted reground, patch only if needed."""
        grounding = self._grounding
        changes = grounding.reground(db, grounding.affected_keys(atom))
        if not changes:
            # A live variable's nu cannot move without refolding one of
            # its clauses, so this leaves the table as it is; it keeps
            # the table right regardless.
            table = self._reweighted(self._table, atom, db.nu(atom))
        else:
            obs.inc("delta.recompiles")
            if self._table.refs is None:
                self._count_references()
            diagram, table = self._diagram, self._table
            level = diagram.level_of(atom)
            if level is not None and level < len(table.numerators):
                # The atom is deterministic before or after the update,
                # so no node the patch keeps depends on its level (after
                # a freeze, the nodes that did are all dropped): its new
                # nu and an exact rescale serve every node that stays.
                table = _relevelled(table, level, db.nu(atom))
            new = {
                variable
                for clause in changes.values()
                if clause is not None
                for variable in clause.variables
                if diagram.level_of(variable) is None
            }
            for variable in sorted(new, key=repr):
                diagram.add_variable(variable)
            entries = diagram.patch(
                diagram.tree,
                {
                    grounding.index[key]: (
                        ZERO if clause is None else diagram.cube(clause)
                    )
                    for key, clause in changes.items()
                },
            )
            table, fresh = _grown(
                diagram, table, db, entries.get(1, diagram.tree[1])
            )
            obs.inc("delta.nodes_reevaluated", sum(map(len, fresh)))
            # Commit: nothing below reaches a checkpoint.
            _rooted(diagram.nodes, table, fresh, self._table.root)
            for index, node in entries.items():
                diagram.tree[index] = node
        grounding.commit(changes)
        if self._sampler is not None:
            self._sampler.mark_stale()
        self._db, self._table = db, table
        if changes:
            self._compact()

    def _compact(self) -> None:
        """Copy the diagram down to its live nodes (those some tree entry
        reaches) once it holds more than :data:`COMPACT_RATIO` times as
        many."""
        diagram, refs = self._diagram, self._table.refs
        # The nodes the root reaches are live, so the other live nodes
        # need counting only past this bound; a path to one of them
        # never passes a node the root reaches.
        if len(diagram) <= COMPACT_RATIO * len(refs):
            return
        others = diagram.reachable_by_level(*diagram.tree, known=refs)
        live = len(refs) + sum(map(len, others))
        if len(diagram) <= COMPACT_RATIO * live:
            return
        obs.inc("delta.compactions")
        copy, renumber = diagram.compacted()
        table = self._table
        table = table._replace(
            root=renumber[table.root],
            levels=[
                [renumber[node] for node in nodes] for nodes in table.levels
            ],
            refs={renumber[node]: count for node, count in table.refs.items()},
            value={renumber[node]: v for node, v in table.value.items()},
        )
        self._diagram, self._table = copy, table


def _relevelled(table: _Table, level: int, nu: Fraction) -> _Table:
    """``table`` with ``level`` at probability ``nu``, for a level no
    value that matters depends on: each such value is a multiple of the
    level's old denominator, and is rescaled exactly to the new one."""
    numerators = list(table.numerators)
    denominators = list(table.denominators)
    old_den, new_den = denominators[level], nu.denominator
    numerators[level], denominators[level] = nu.numerator, new_den
    value = table.value
    if new_den != old_den:
        value = {node: v * new_den // old_den for node, v in value.items()}
    return table._replace(
        numerators=numerators, denominators=denominators, value=value
    )


def _grown(
    diagram: BDD, table: _Table, db: UnreliableDatabase, root: int
) -> Tuple[_Table, List[List[int]]]:
    """``table`` re-rooted at ``root``, and the nodes it evaluated.

    Levels appended to the order since ``table`` was committed join
    it with their ``nu`` under ``db``, and every stored value is
    multiplied by their denominators.  A node reachable from
    ``root`` that already has a value keeps it; the others (returned
    by level) are evaluated bottom-up.  Nothing of ``table`` is
    mutated: :func:`_rooted` commits the result.
    """
    order = diagram.order
    numerators, denominators = table.numerators, table.denominators
    levels = table.levels
    value = dict(table.value)
    if len(order) > len(numerators):
        added = [db.nu(atom) for atom in order[len(numerators):]]
        numerators = numerators + [nu.numerator for nu in added]
        denominators = denominators + [nu.denominator for nu in added]
        levels = levels + [[] for _ in added]
        growth = prod(nu.denominator for nu in added)
        if growth != 1:
            for node in value:
                value[node] *= growth
    nodes = diagram.nodes
    fresh = diagram.reachable_by_level(root, known=value)
    for level in range(len(fresh) - 1, -1, -1):
        bucket = fresh[level]
        if not bucket:
            continue
        checkpoint(worlds=len(bucket))
        num, den = numerators[level], denominators[level]
        for node in bucket:
            _node_level, low, high = nodes[node]
            lo = value[low]
            value[node] = lo + num * (value[high] - lo) // den
    table = _Table(root, levels, table.refs, numerators, denominators, value)
    return table, fresh


def _counted(
    refs: Dict[int, int],
    nodes: Sequence[Tuple[int, int, int]],
    joining: Iterable[List[int]],
    root: int,
) -> None:
    """Count into ``refs`` the references of the nodes ``joining`` the
    reachable set (bucketed by level) to their children, and the root's
    own reference."""
    count = refs.get
    for bucket in joining:
        for node in bucket:
            _level, low, high = nodes[node]
            if low > ONE:
                refs[low] = count(low, 0) + 1
            if high > ONE:
                refs[high] = count(high, 0) + 1
    if root > ONE:
        refs[root] = count(root, 0) + 1


def _release(
    refs: Dict[int, int],
    nodes: Sequence[Tuple[int, int, int]],
    roots: Iterable[int],
) -> List[int]:
    """Drop one reference per root; the nodes left with none leave
    ``refs``, release their children in turn, and are returned."""
    dropped: List[int] = []
    pending = [node for node in roots if node > ONE]
    while pending:
        node = pending.pop()
        count = refs[node] - 1
        if count:
            refs[node] = count
            continue
        del refs[node]
        dropped.append(node)
        _level, low, high = nodes[node]
        if low > ONE:
            pending.append(low)
        if high > ONE:
            pending.append(high)
    return dropped


def _rooted(
    nodes: Sequence[Tuple[int, int, int]],
    table: _Table,
    fresh: List[List[int]],
    old_root: int,
) -> None:
    """Commit :func:`_grown`'s table in place: count its
    fresh nodes in and drop the nodes only ``old_root`` reached."""
    levels, refs, value = table.levels, table.refs, table.value
    for level, bucket in enumerate(fresh):
        levels[level].extend(bucket)
    _counted(refs, nodes, fresh, table.root)
    thinned = set()
    for node in _release(refs, nodes, (old_root,)):
        thinned.add(nodes[node][0])
        del value[node]
    for level in thinned:
        levels[level] = [node for node in levels[level] if node in refs]
