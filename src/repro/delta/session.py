"""Delta sessions: reliability answers maintained under updates.

A :class:`DeltaSession` holds a Boolean query against an evolving
unreliable database and keeps ``Pr[B |= psi]`` current through
``set_mu`` / ``insert`` / ``delete`` in far less than a recompute:

* the grounded DNF is compiled **once** into a canonical ROBDD
  (cached, persistable under the ``delta_bdd`` kind), with an explicit
  bottom-up value table over its reachable nodes;
* a *weight-only* update — an uncertain atom's ``mu`` moves but stays
  in ``(0, 1)``, or a tuple with uncertain ``mu`` flips in the observed
  structure, so ``nu`` changes but no clause folds — re-evaluates only
  the reachable nodes at levels at or above the atom's level
  (``delta.nodes_reevaluated`` counts them); children sit strictly
  deeper, so everything below is untouched;
* a *structural* update — ``mu`` crosses 0 or 1, or a deterministic
  tuple flips — regrounds only the clauses the atom unifies into
  (:class:`~repro.delta.reground.DeltaGrounding`) and recompiles the
  diagram only when a clause actually changed (``delta.recompiles``).

Every answer is an exact :class:`~fractions.Fraction`, bit-identical
to ``truth_probability`` on the current database.  The value table
holds integers: numerators over one common denominator, the product of
the per-level denominators of ``nu`` (:meth:`BDD.value_table`).  A weight
update whose level denominator changes rescales the stored numerators
once, multiplying by the new denominator and dividing exactly by the
old; the one :class:`~fractions.Fraction` is built when an answer is
read.

Updates are atomic: each builds the new database, clause changes and
value table aside and commits them last, so an update aborted at any
budget checkpoint leaves the session exactly as it was.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Set

from repro import obs
from repro.delta.reground import DeltaGrounding
from repro.kernels.cache import compilation_cache
from repro.logic.classify import is_existential, is_universal
from repro.logic.evaluator import FOQuery
from repro.logic.fo import Formula, neg
from repro.runtime.budget import checkpoint
from repro.propositional.bdd import BDD, ONE, compile_dnf
from repro.propositional.formula import DNF
from repro.relational.atoms import Atom
from repro.reliability.exact import as_query
from repro.reliability.unreliable import UnreliableDatabase
from repro.util.errors import QueryError
from repro.util.rationals import RationalLike, parse_probability


class _Table(NamedTuple):
    """A compiled diagram and its integer value table.

    ``value`` maps the terminals and every reachable node to a
    numerator over ``value[ONE]``, the product of ``denominators``.
    """

    diagram: BDD
    root: int
    levels: List[List[int]]
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
        self._grounding = DeltaGrounding(db, self._base)
        self._sampler = None
        self._table = self._compile(db, self._grounding.dnf())

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
        grounding = DeltaGrounding(self._db, self._base)
        table = self._compile(self._db, grounding.dnf())
        self._grounding, self._table = grounding, table
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

        order = self._table.diagram.order
        self._sampler = ReweightableKarpLuby(
            self._grounding.dnf(),
            {atom: float(self._db.nu(atom)) for atom in order},
            samples,
            rng,
            method=method,
            negate=self._negate,
        )
        return self._sampler

    # ------------------------------------------------------------------ #
    # machinery
    # ------------------------------------------------------------------ #

    def _compile(self, db: UnreliableDatabase, dnf: DNF) -> _Table:
        """Compile ``dnf`` and evaluate its full value table under ``db``."""
        key = ("delta_bdd", db.fingerprint(), self._base)
        diagram, root = compilation_cache.get_or_create(
            key, lambda: compile_dnf(dnf)
        )
        value, levels, numerators, denominators = diagram.value_table(
            root,
            {atom: db.nu(atom) for atom in diagram.order},
            charge=lambda nodes: checkpoint(worlds=nodes),
        )
        return _Table(diagram, root, levels, numerators, denominators, value)

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
        diagram = table.diagram
        level = diagram.level_of(atom)
        if level is None:
            # The atom never made it into the grounded DNF (relation
            # not mentioned, or clause folded by other literals): the
            # answer cannot depend on it.
            return table
        levels = table.levels
        numerators = list(table.numerators)
        denominators = list(table.denominators)
        value = dict(table.value)
        old_den = denominators[level]
        numerators[level], denominators[level] = nu.numerator, nu.denominator
        new_den = nu.denominator
        rescale = new_den != old_den
        if rescale:
            # The common denominator trades old_den for new_den.  Values
            # below the level do not depend on it, so they are multiples
            # of old_den and rescale exactly.  Rescaling is not
            # re-evaluation: it leaves delta.nodes_reevaluated alone.
            value[ONE] = value[ONE] // old_den * new_den
            for nodes in levels[level + 1:]:
                for node in nodes:
                    value[node] = value[node] * new_den // old_den
        node_of = diagram.node
        dirty: Set[int] = set()
        touched = 0
        for current in range(level, -1, -1):
            checkpoint(worlds=len(levels[current]))
            num, den = numerators[current], denominators[current]
            at_source = current == level
            for node in levels[current]:
                _node_level, low, high = node_of(node)
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
        """Structural path: targeted reground, recompile only if needed."""
        changes = self._grounding.reground(
            db, self._grounding.affected_keys(atom)
        )
        if changes:
            obs.inc("delta.recompiles")
            table = self._compile(db, self._grounding.dnf(changes))
        else:
            # A live variable's nu cannot move without refolding one of
            # its clauses, so this leaves the table as it is; it keeps
            # the table right regardless.
            table = self._reweighted(self._table, atom, db.nu(atom))
        self._grounding.commit(changes)
        if self._sampler is not None:
            self._sampler.mark_stale()
        self._db, self._table = db, table
