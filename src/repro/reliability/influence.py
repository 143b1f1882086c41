"""Atom influence: which facts make a query answer fragile?

Classical reliability theory (Birnbaum importance) carried to the
paper's model: the influence of an uncertain atom ``a`` on a Boolean
query ``psi`` is

    I(a) = Pr[B |= psi | a holds] - Pr[B |= psi | a fails],

the derivative of the truth probability with respect to ``nu(a)``.  For
a monotone query all influences are nonnegative; atoms with the largest
``|I(a)| * variance-ish`` weight are the facts worth re-checking first —
the actionable output a user of an unreliable database wants next to the
reliability number.

Computation rides the Theorem 5.4 grounding: the exact influences of
every atom come from one ROBDD of the grounded DNF in two linear passes
(:func:`~repro.propositional.bdd.influences_via_bdd`).
:func:`wrong_probability_sensitivity` converts influence
into the derivative of the *expected error*, flipping sign when the
observed database satisfies the query.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Union

from repro.logic.evaluator import FOQuery
from repro.logic.fo import Formula
from repro.propositional.bdd import influences_via_bdd
from repro.relational.atoms import Atom
from repro.reliability.exact import as_query
from repro.reliability.grounding import (
    ground_existential_to_dnf,
    grounding_probabilities,
    wrong_target,
)
from repro.reliability.unreliable import UnreliableDatabase
from repro.util.errors import QueryError


def atom_influence(
    db: UnreliableDatabase,
    sentence: Union[str, Formula, FOQuery],
) -> Dict[Atom, Fraction]:
    """Exact influence ``I(a)`` of every relevant uncertain atom on a
    sentence, read off one ROBDD of the grounded DNF.

    The sentence must be existential or universal (universal sentences
    are negated, flipping the sign of every influence back at the end —
    conditioning commutes with complement).
    """
    query = as_query(sentence)
    if not isinstance(query, FOQuery) or query.arity != 0:
        raise QueryError("atom_influence expects a Boolean first-order sentence")
    target = wrong_target(query.formula)
    sign = 1 if target is query.formula else -1
    grounding = ground_existential_to_dnf(db, target)
    dnf = grounding.dnf
    if dnf.is_true() or dnf.is_false():
        return {}
    raw = influences_via_bdd(dnf, grounding_probabilities(db, dnf))
    return {atom: sign * raw[atom] for atom in sorted(raw, key=repr)}


def wrong_probability_sensitivity(
    db: UnreliableDatabase,
    sentence: Union[str, Formula, FOQuery],
) -> Dict[Atom, Fraction]:
    """``d Pr[Wrong(psi)] / d nu(a)`` for every relevant uncertain atom.

    Equal to ``-I(a)`` when the observed database satisfies ``psi`` and
    ``+I(a)`` otherwise.  The atoms with the largest absolute
    sensitivity are the observations whose correction would improve (or
    whose corruption would hurt) the answer's reliability the most.
    """
    query = as_query(sentence)
    observed = query.evaluate(db.structure, ())
    influences = atom_influence(db, sentence)
    if not observed:
        return influences
    return {atom: -value for atom, value in influences.items()}


def most_fragile_atoms(
    db: UnreliableDatabase,
    sentence: Union[str, Formula, FOQuery],
    limit: int = 5,
):
    """The atoms whose uncertainty contributes most to the expected error.

    Ranks by ``|I(a)| * nu(a) * (1 - nu(a))`` — influence weighted by the
    atom's own variance, i.e. each atom's share of the answer's variance
    under independence.  Returns ``(atom, score)`` pairs, largest first.
    """
    influences = atom_influence(db, sentence)
    scored = []
    for atom, influence in influences.items():
        nu = db.nu(atom)
        scored.append((atom, abs(influence) * nu * (1 - nu)))
    scored.sort(key=lambda pair: (-pair[1], repr(pair[0])))
    return scored[:limit]
