"""Absolute reliability: the decision problem ``AR_psi`` of Section 5.

``D in AR_psi`` iff ``R_psi(D) = 1`` — the observed answer is certainly
the actual answer.  The paper's complexity landscape (all reproduced
here as executable procedures):

* Lemma 5.7: quantifier-free ``psi`` — polynomial time (compute
  ``H_psi`` exactly with the Proposition 3.1 engine, compare with 0);
* Lemma 5.8: polynomial-time evaluable ``psi`` — coNP (guess a world,
  check disagreement); implemented as a search over the relevant-atom
  world space;
* Lemma 5.9: some existential query makes ``AR_psi`` coNP-hard (the
  4-colourability reduction lives in
  :mod:`repro.reductions.fourcolouring`).

For existential sentences the witness search is organised on the grounded
DNF: with every uncertain atom strictly between 0 and 1, a disagreeing
world exists iff the DNF is non-trivial in the relevant direction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Any, Optional, Sequence, Union

from repro.logic.classify import is_existential, is_quantifier_free, is_universal
from repro.logic.evaluator import FOQuery
from repro.logic.fo import Formula, neg
from repro.propositional.bdd import ONE, compile_dnf
from repro.reliability.exact import _instantiated, as_query, wrong_probability
from repro.reliability.grounding import (
    ground_existential_to_dnf,
    relevant_atoms,
)
from repro.reliability.unreliable import UnreliableDatabase
from repro.util.errors import QueryError


def is_absolutely_reliable(
    db: UnreliableDatabase, query: Any, method: str = "auto"
) -> bool:
    """Decide ``D in AR_psi``: is the reliability exactly 1?

    ``method``:

    * ``"auto"`` — dispatch per query fragment (QF exact, existential /
      universal via grounded DNF, otherwise world search);
    * ``"exact"`` — compute ``H_psi`` exactly and compare with zero;
    * ``"witness"`` — explicit coNP-style search for a disagreeing world
      over the relevant uncertain atoms (Lemma 5.8's guess, derandomised
      into enumeration).
    """
    if method not in ("auto", "exact", "witness"):
        raise QueryError(f"unknown method {method!r}")
    query = as_query(query)
    if method == "exact":
        return all(
            wrong_probability(db, query, args) == 0
            for args in product(db.structure.universe, repeat=query.arity)
        )
    if method == "witness":
        return not _witness_search(db, query)
    for args in product(db.structure.universe, repeat=query.arity):
        if not _tuple_absolutely_reliable(db, query, args):
            return False
    return True


def _tuple_absolutely_reliable(
    db: UnreliableDatabase, query: Any, args: Sequence[Any]
) -> bool:
    boolean = _instantiated(query, args)
    formula: Optional[Formula] = (
        boolean.formula if isinstance(boolean, FOQuery) else None
    )
    observed = boolean.evaluate(db.structure, ())
    if formula is not None and (is_existential(formula) or is_universal(formula)):
        # Reduce the universal case to the existential one by negation:
        # Wrong(psi) and Wrong(~psi) are the same event.
        target = formula if is_existential(formula) else neg(formula)
        grounding = ground_existential_to_dnf(db, target)
        dnf = grounding.dnf
        target_observed = (
            observed if is_existential(formula) else not observed
        )
        if target_observed:
            # Disagreement iff some positive-probability world falsifies
            # the DNF.  Every grounded atom has 0 < nu < 1, so that is
            # iff the DNF is not a tautology: its ROBDD is not ONE.
            if dnf.is_true():
                return True
            return compile_dnf(dnf)[1] == ONE
        # Disagreement iff some positive-probability world satisfies it;
        # every surviving grounded clause has positive probability, so
        # any clause at all is a witness.
        return dnf.is_false()
    return wrong_probability(db, query, args) == 0


def _witness_search(db: UnreliableDatabase, query: Any) -> bool:
    """Find a world (over relevant atoms) where some answer differs."""
    atoms = relevant_atoms(db, query)
    base = db.observed_world()
    observed_answers = query.answers(db.structure)
    for pattern in product((False, True), repeat=len(atoms)):
        flips = [atom for atom, flip in zip(atoms, pattern) if flip]
        world = base.flip_all(flips) if flips else base
        if query.answers(world) != observed_answers:
            return True
    return False
