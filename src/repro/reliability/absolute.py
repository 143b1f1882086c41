"""Absolute reliability: the decision problem ``AR_psi`` of Section 5.

``D in AR_psi`` iff ``R_psi(D) = 1`` — the observed answer is certainly
the actual answer.  The paper's complexity landscape (all reproduced
here as executable procedures):

* Lemma 5.7: quantifier-free ``psi`` — polynomial time (Proposition
  3.1: each answer tuple's lineage mentions constantly many atoms);
* Lemma 5.8: polynomial-time evaluable ``psi`` — coNP (guess a world,
  check disagreement); implemented as a search over the relevant-atom
  world space;
* Lemma 5.9: some existential query makes ``AR_psi`` coNP-hard (the
  4-colourability reduction lives in
  :mod:`repro.reductions.fourcolouring`).

For quantifier-free, existential and universal queries the search reads
each answer tuple's lineage cell (its wrong target grounded to a DNF,
:func:`~repro.reliability.grounding.ground_answers`): with every
uncertain atom strictly between 0 and 1, a disagreeing world exists iff
the DNF is non-trivial in the relevant direction.
"""

from __future__ import annotations

from typing import Any

from repro.kernels.gray import atom_worlds
from repro.logic.evaluator import FOQuery
from repro.propositional.bdd import ONE, compile_dnf
from repro.reliability.exact import _wrong_probabilities, as_query
from repro.reliability.grounding import (
    Cell,
    ground_answers,
    has_wrong_target,
    relevant_atoms,
)
from repro.reliability.unreliable import UnreliableDatabase
from repro.util.errors import QueryError


def is_absolutely_reliable(
    db: UnreliableDatabase, query: Any, method: str = "auto"
) -> bool:
    """Decide ``D in AR_psi``: is the reliability exactly 1?

    ``method``:

    * ``"auto"`` — read the lineage table of a quantifier-free,
      existential or universal query; otherwise compute each tuple's
      wrong probability exactly;
    * ``"exact"`` — compute ``H_psi`` exactly, tuple by tuple, and
      compare with zero;
    * ``"witness"`` — explicit coNP-style search for a disagreeing world
      over the relevant uncertain atoms (Lemma 5.8's guess, derandomised
      into enumeration).
    """
    if method not in ("auto", "exact", "witness"):
        raise QueryError(f"unknown method {method!r}")
    query = as_query(query)
    if method == "witness":
        return not _witness_search(db, query)
    if (
        method == "auto"
        and isinstance(query, FOQuery)
        and has_wrong_target(query.formula)
    ):
        return all(map(_cell_reliable, ground_answers(db, query).cells()))
    return all(wrong == 0 for wrong in _wrong_probabilities(db, query, "auto"))


def _cell_reliable(cell: Cell) -> bool:
    """Whether the cell's target takes its observed value in every
    positive-probability world."""
    _, observed, target = cell
    if isinstance(target, bool):
        return observed == target
    if observed:
        # Disagreement iff some positive-probability world falsifies
        # the DNF.  Every grounded atom has 0 < nu < 1, so that is iff
        # the DNF is not a tautology: its ROBDD is not ONE.
        return compile_dnf(target)[1] == ONE
    # Disagreement iff some positive-probability world satisfies it;
    # every grounded clause has positive probability, so any clause is
    # a witness.
    return False


def _witness_search(db: UnreliableDatabase, query: Any) -> bool:
    """Find a world (over relevant atoms) where some answer differs.

    The search may visit all ``2 ** len(atoms)`` worlds; it stops at
    the first disagreeing one.
    """
    observed_answers = query.answers(db.structure)
    for world, _weight in atom_worlds(db, relevant_atoms(db, query)):
        if query.answers(world) != observed_answers:
            return True
    return False
