"""Reliability of metafinite queries — Theorem 6.2 made executable.

For a k-ary metafinite query ``F`` the Hamming distance between ``F^A``
and ``F^B`` counts the tuples where the two functions *differ* (values in
``R`` are compared for equality), generalising the relational symmetric
difference; expected error and reliability are defined exactly as in
Definition 2.2.

Engines:

* :func:`metafinite_reliability_qf` — Theorem 6.2(i): for
  aggregate-free terms, the per-tuple error depends on the constantly
  many entries the instantiated term reads, so enumerating their joint
  distributions is polynomial;
* :func:`metafinite_expected_error` / :func:`metafinite_reliability` —
  the general exact engine: the Theorem 4.2-style world walk (Theorem
  6.2(ii)/(iii)'s algorithm, "guess one of the finitely many databases,
  split by its probability, evaluate");
* :func:`estimate_metafinite_reliability` — Monte Carlo over worlds, the
  Section 5 estimators carried to the metafinite setting.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.logic.terms import Const, Var
from repro.metafinite.database import (
    Entry,
    FunctionalDatabase,
    UnreliableFunctionalDatabase,
)
from repro.metafinite.terms import (
    Apply,
    FuncTerm,
    MetafiniteQuery,
    MTerm,
    MultisetOp,
    NumConst,
    functions_used,
    is_aggregate_free,
)
from repro.reliability.montecarlo import _sample_budget, sampled_worlds
from repro.runtime.budget import checkpoint
from repro.util.errors import QueryError


def _entries_read(term: MTerm, env: Mapping[Var, Any]) -> List[Entry]:
    """Entries ``(f, args)`` an aggregate-free term reads under ``env``."""
    if isinstance(term, NumConst):
        return []
    if isinstance(term, FuncTerm):
        args = []
        for sub in term.args:
            if isinstance(sub, Const):
                args.append(sub.value)
            else:
                args.append(env[sub])
        return [(term.name, tuple(args))]
    if isinstance(term, Apply):
        found: List[Entry] = []
        for sub in term.args:
            found.extend(_entries_read(sub, env))
        return found
    if isinstance(term, MultisetOp):
        raise QueryError("quantifier-free path got an aggregate term")
    raise QueryError(f"unknown metafinite term {type(term).__name__}")


def metafinite_reliability_qf(
    db: UnreliableFunctionalDatabase, query: MetafiniteQuery
) -> Fraction:
    """Theorem 6.2(i): exact reliability of an aggregate-free query in
    polynomial time.

    For each tuple, enumerate the joint value distributions of just the
    entries the instantiated term reads — constantly many for a fixed
    query — and sum the probability that the recomputed value differs
    from the observed one.
    """
    if not is_aggregate_free(query.term):
        raise QueryError("query contains aggregates; use the general engine")
    n = db.universe_size
    cells = n**query.arity
    if cells == 0:
        raise QueryError("reliability undefined on an empty universe")
    total_error = Fraction(0)
    for args in product(db.observed.universe, repeat=query.arity):
        checkpoint()
        total_error += _tuple_error(db, query, args)
    return 1 - total_error / cells


def _tuple_error(
    db: UnreliableFunctionalDatabase, query: MetafiniteQuery, args: Tuple
) -> Fraction:
    """The probability that tuple ``args``'s value differs from the
    observed one, over the joint values of the entries it reads."""
    env = dict(zip(query.free_order, args))
    entries = sorted(set(_entries_read(query.term, env)), key=repr)
    observed_value = query.evaluate(db.observed, args)
    distributions = [db.distribution(name, eargs) for name, eargs in entries]
    error = Fraction(0)
    for combo in product(*(d.items() for d in distributions)):
        probability = Fraction(1)
        updates: Dict[Entry, Any] = {}
        for (name, eargs), (value, p) in zip(entries, combo):
            probability *= p
            updates[(name, eargs)] = value
        if probability == 0:
            continue
        world = db.observed.with_entries(updates) if updates else db.observed
        if query.evaluate(world, args) != observed_value:
            error += probability
    return error


def metafinite_expected_error(
    db: UnreliableFunctionalDatabase, query: MetafiniteQuery
) -> Fraction:
    """Exact ``H_F`` by full world enumeration (Theorem 6.2(ii)'s walk).

    ``db.worlds()`` preflights the support size against the active
    budget's world limit and charges the worlds it yields to it.
    """
    observed_answers = query.answers(db.observed)
    total = Fraction(0)
    for world, probability in db.worlds():
        actual_answers = query.answers(world)
        distance = sum(
            1
            for args, value in observed_answers.items()
            if actual_answers[args] != value
        )
        total += probability * distance
    return total


def metafinite_reliability(
    db: UnreliableFunctionalDatabase, query: MetafiniteQuery
) -> Fraction:
    """Exact ``R_F = 1 - H_F / n**k``."""
    n = db.universe_size
    cells = n**query.arity
    if cells == 0:
        raise QueryError("reliability undefined on an empty universe")
    return 1 - metafinite_expected_error(db, query) / cells


def estimate_metafinite_reliability(
    db: UnreliableFunctionalDatabase,
    query: MetafiniteQuery,
    rng: random.Random,
    epsilon: float = 0.05,
    delta: float = 0.05,
    samples: int = 0,
) -> float:
    """Monte-Carlo ``R_F`` with an additive Hoeffding guarantee.

    The normalised Hamming distance is in ``[0, 1]``, so
    ``t = ln(2/delta) / (2 eps^2)`` samples suffice for
    ``Pr[|est - R_F| > eps] < delta``; a positive ``samples`` overrides
    that count.
    """
    n = db.universe_size
    cells = n**query.arity
    if cells == 0:
        raise QueryError("reliability undefined on an empty universe")
    samples = _sample_budget(samples, epsilon, delta)
    observed_answers = query.answers(db.observed)
    total = 0.0
    for world in sampled_worlds(db, rng, samples):
        actual_answers = query.answers(world)
        distance = sum(
            1
            for args, value in observed_answers.items()
            if actual_answers[args] != value
        )
        total += distance / cells
    return 1.0 - total / samples
