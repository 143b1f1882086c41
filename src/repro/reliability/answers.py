"""Probabilistic answer relations: per-tuple truth probabilities.

The related-work systems the paper cites (Zimányi; Lakshmanan &
Subrahmanian's ProbView) return *probabilistic relations*: each answer
tuple annotated with the probability that it belongs to the actual
answer.  The reliability number of Definition 2.2 is one aggregate of
that table; this module exposes the table itself, computed with the same
engines:

* :func:`answer_probabilities` — exact per-tuple ``nu(psi(a))`` using
  the fragment-dispatched exact engine;
* :func:`estimate_answer_probabilities` — one world-sampling pass that
  prices every tuple simultaneously (each sample yields the whole answer
  relation), with a per-tuple Hoeffding guarantee.

``reliability`` is recoverable from the table, which the tests assert.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from typing import Any, Dict, Tuple, Union

from repro.reliability.exact import as_query, target_cells
from repro.reliability.montecarlo import _sample_budget, sampled_worlds
from repro.reliability.unreliable import UnreliableDatabase
from repro.util.errors import QueryError

TupleOf = Tuple[Any, ...]


def answer_probabilities(
    db: UnreliableDatabase, query: Any, method: str = "auto"
) -> Dict[TupleOf, Fraction]:
    """Exact probabilistic answer relation ``{a: Pr[B |= psi(a)]}``.

    Covers all ``n ** k`` candidate tuples (tuples absent from the table
    in spirit have probability 0 and do appear with their exact value —
    callers filter as they wish).  Tuples whose lineage is constant
    (see :func:`~repro.reliability.exact.target_cells`) get 0 or 1
    without an engine.
    """
    negated, cells = target_cells(db, as_query(query), method, observed=False)
    # A negated target is ~psi(a): its probability is 1 - Pr[psi(a)].
    return {args: 1 - p if negated else p for args, _, p in cells}


def estimate_answer_probabilities(
    db: UnreliableDatabase,
    query: Any,
    rng: random.Random,
    epsilon: float = 0.05,
    delta: float = 0.05,
    samples: int = 0,
) -> Dict[TupleOf, float]:
    """Monte-Carlo probabilistic answer relation.

    One pass of world sampling estimates every tuple's probability at
    once; with ``t = hoeffding_samples(epsilon, delta / n**k)`` samples
    each entry is within ``epsilon`` with probability ``1 - delta``
    overall (union bound).  A positive ``samples`` overrides that count.
    """
    query = as_query(query)
    cells = len(db.structure) ** query.arity
    if cells == 0:
        raise QueryError("no candidate tuples over an empty universe")
    budget = _sample_budget(samples, epsilon, delta / cells)
    counts: Dict[TupleOf, int] = {
        args: 0 for args in product(db.structure.universe, repeat=query.arity)
    }
    for world in sampled_worlds(db, rng, budget):
        for args in query.answers(world):
            counts[args] += 1
    return {args: hits / budget for args, hits in counts.items()}


def most_questionable_answers(
    db: UnreliableDatabase,
    query: Any,
    limit: int = 10,
    method: str = "auto",
):
    """Answer tuples ranked by how likely their classification is wrong.

    For each candidate tuple, the "doubt" is its per-tuple wrong
    probability — ``1 - p`` for observed answers, ``p`` for observed
    non-answers.  Returns up to ``limit`` triples
    ``(args, doubt, in_observed_answer)`` with the largest doubt first:
    the rows of the answer a careful user should double-check.
    """
    negated, cells = target_cells(db, as_query(query), method)
    ranked = []
    for args, observed, p in cells:
        # ``observed`` is the target's value; the tuple is an observed
        # answer unless the target is the query's negation.
        doubt = 1 - p if observed else p
        if doubt > 0:
            ranked.append((args, doubt, observed != negated))
    ranked.sort(key=lambda row: (-row[1], repr(row[0])))
    return ranked[:limit]


def reliability_from_answers(
    db: UnreliableDatabase,
    query: Any,
    table: Dict[TupleOf, Union[Fraction, float]],
):
    """Fold a probabilistic answer relation back into ``R_psi``.

    ``H = sum over tuples of (1 - p)`` for observed answers and ``p`` for
    non-answers; kept exact when the table is exact.
    """
    query = as_query(query)
    observed = query.answers(db.structure)
    cells = len(db.structure) ** query.arity
    if cells == 0:
        raise QueryError("reliability undefined on an empty universe")
    total = Fraction(0) if all(
        isinstance(p, Fraction) for p in table.values()
    ) else 0.0
    for args, probability in table.items():
        wrong = 1 - probability if args in observed else probability
        total = total + wrong
    if isinstance(total, Fraction):
        return 1 - total / cells
    return 1.0 - total / cells
