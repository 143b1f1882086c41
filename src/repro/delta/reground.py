"""Incremental regrounding: from one changed atom to its clauses.

Theorem 5.4's grounding emits one propositional clause per (clause
template, valuation of the existential variables).  A ground atom
``R(a, b)`` can only occur in — or fold away — clauses whose template
mentions relation ``R`` with arguments that *unify* with ``(a, b)``:
constants must match outright and repeated variables must bind
consistently.  Everything else is untouched by an update to that atom.

:class:`DeltaGrounding` materialises the full clause map once (the same
``|templates| * n ** |variables|`` work the batch grounder does), then
answers ``affected_keys(atom)`` by unification: bind the template
literal against the atom, enumerate only the *unbound* existential
variables.  For a single-atom update this is ``O(n ** u)`` with ``u``
the variables the literal does not mention — the Δ, not the whole
grounding.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro import obs
from repro.logic.fo import AtomF, Formula, Not
from repro.logic.normalform import dnf_clauses, existential_parts
from repro.logic.terms import Const, Var
from repro.propositional.formula import DNF, Clause
from repro.relational.atoms import Atom
from repro.reliability.grounding import ground_clause
from repro.reliability.unreliable import UnreliableDatabase
from repro.runtime.budget import checkpoint
from repro.runtime.preflight import preflight_grounding

#: A clause map key: (template index, existential-variable values).
ClauseKey = Tuple[int, Tuple[object, ...]]


class DeltaGrounding:
    """The grounded clause map of one existential sentence, updatable.

    The map covers *every* (template, valuation) pair, including those
    currently folded to ``None`` (certainly-false clauses) — an update
    can resurrect a folded clause, so absence cannot mean "dropped".
    """

    __slots__ = (
        "variables", "templates", "universe", "index", "_clauses", "_literals"
    )

    def __init__(self, db: UnreliableDatabase, sentence: Formula):
        with obs.span("delta.ground"):
            self.variables, matrix = existential_parts(sentence)
            self.templates: Tuple[Tuple[Formula, ...], ...] = dnf_clauses(matrix)
            self.universe = db.structure.universe
            preflight_grounding(
                len(self.universe), len(self.variables), len(self.templates)
            )
            self._clauses: Dict[ClauseKey, Optional[Clause]] = {}
            for index, template in enumerate(self.templates):
                for values in product(
                    self.universe, repeat=len(self.variables)
                ):
                    checkpoint(clauses=1)
                    env = dict(zip(self.variables, values))
                    self._clauses[(index, values)] = ground_clause(
                        db, template, env
                    )
            #: Clause-map key -> its slot: the key's position in the
            #: map, fixed here for the grounding's lifetime.
            self.index: Dict[ClauseKey, int] = {
                key: slot for slot, key in enumerate(self._clauses)
            }
            # relation name -> [(template index, literal argument terms)];
            # the unification index behind affected_keys.
            literals: Dict[str, List[Tuple[int, Tuple]]] = {}
            for index, template in enumerate(self.templates):
                for part in template:
                    core = part.sub if isinstance(part, Not) else part
                    if isinstance(core, AtomF):
                        literals.setdefault(core.relation, []).append(
                            (index, core.args)
                        )
            self._literals = literals

    def __len__(self) -> int:
        return len(self._clauses)

    def affected_keys(self, atom: Atom) -> Set[ClauseKey]:
        """Clause-map keys an update to ``atom`` can possibly change."""
        keys: Set[ClauseKey] = set()
        for index, args in self._literals.get(atom.relation, ()):
            binding = _unify(args, atom.args)
            if binding is None:
                continue
            free = [v for v in self.variables if v not in binding]
            for completion in product(self.universe, repeat=len(free)):
                checkpoint()
                env = dict(binding)
                env.update(zip(free, completion))
                keys.add((index, tuple(env[v] for v in self.variables)))
        return keys

    def reground(
        self, db: UnreliableDatabase, keys: Iterable[ClauseKey]
    ) -> Dict[ClauseKey, Optional[Clause]]:
        """Re-derive the given clauses against ``db``: the ones that changed.

        Nothing is stored; :meth:`commit` applies the result, so an
        update aborted before its commit leaves the clause map intact.
        """
        changes: Dict[ClauseKey, Optional[Clause]] = {}
        for key in keys:
            checkpoint(clauses=1)
            index, values = key
            env = dict(zip(self.variables, values))
            clause = ground_clause(db, self.templates[index], env)
            obs.inc("delta.regrounds")
            if clause != self._clauses[key]:
                changes[key] = clause
        return changes

    def commit(self, changes: Mapping[ClauseKey, Optional[Clause]]) -> None:
        """Store the clauses :meth:`reground` returned."""
        self._clauses.update(changes)

    def slots(self) -> List[Optional[Clause]]:
        """Every key's clause (``None`` if folded), in slot order."""
        return list(self._clauses.values())

    def dnf(self) -> DNF:
        """The grounded DNF (folded clauses omitted)."""
        return DNF(c for c in self._clauses.values() if c is not None)


def _unify(
    terms: Tuple, values: Tuple[object, ...]
) -> Optional[Dict[Var, object]]:
    """Bind template-literal terms against a ground atom's arguments.

    ``None`` means the literal can never ground to this atom (constant
    mismatch or inconsistent repeated variable).
    """
    if len(terms) != len(values):
        return None
    binding: Dict[Var, object] = {}
    for term, value in zip(terms, values):
        if isinstance(term, Const):
            if term.value != value:
                return None
        elif term not in binding:
            binding[term] = value
        elif binding[term] != value:
            return None
    return binding
