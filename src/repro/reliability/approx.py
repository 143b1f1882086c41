"""Randomized approximation of query probability and reliability.

* :func:`existential_probability` — Theorem 5.4: an FPTRAS for
  ``nu(psi)``, the probability that an existential Boolean query holds in
  the actual database.  Ground to kDNF (Theorem 5.4's construction), then
  run the Karp–Luby FPTRAS (Theorem 5.3 via Theorem 5.2).
* :func:`reliability_additive` — Corollary 5.5: additive (epsilon, delta)
  approximation of the *reliability* of any existential or universal
  query, Boolean or k-ary.  For k-ary queries, each of the ``n ** k``
  per-tuple errors is approximated to ``epsilon / n**k`` with failure
  budget ``delta / n**k``, exactly as the corollary's proof prescribes.

The FPTRAS gives *relative* error on probabilities; since probabilities
are at most one, the same run also gives absolute error — which is why
Corollary 5.5's guarantee is additive.  The converse strengthening is
impossible unless NP ⊆ BPP (Lemma 5.10), demonstrated in experiment E6.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Any, Optional, Sequence, Union

from repro.logic.classify import is_existential, is_universal
from repro.logic.evaluator import FOQuery
from repro.logic.fo import Formula, neg
from repro.propositional.karp_luby import karp_luby
from repro.reliability.exact import as_query
from repro.reliability.grounding import (
    ground_existential_to_dnf,
    grounding_probabilities,
)
from repro.reliability.unreliable import UnreliableDatabase
from repro.runtime.budget import checkpoint
from repro.util.errors import ProbabilityError, QueryError

QueryLike = Union[str, Formula, FOQuery]


@dataclass(frozen=True)
class AdditiveEstimate:
    """An additive (epsilon, delta) estimate with its parameters."""

    value: float
    epsilon: float
    delta: float
    samples: int

    def __float__(self) -> float:
        return self.value


def existential_probability(
    db: UnreliableDatabase,
    sentence: QueryLike,
    epsilon: float,
    delta: float,
    rng: random.Random,
    method: str = "coverage",
    adaptive: bool = False,
) -> AdditiveEstimate:
    """FPTRAS for ``nu(psi)`` of an existential Boolean query (Thm 5.4).

    Relative (epsilon, delta) guarantee:
    ``Pr[|est - nu(psi)| > epsilon * nu(psi)] < delta``.
    ``adaptive`` forwards to :func:`repro.propositional.karp_luby.
    karp_luby`: same guarantee, sequential empirical-Bernstein stopping.
    """
    query = as_query(sentence)
    if not isinstance(query, FOQuery) or query.arity != 0:
        raise QueryError(
            "existential_probability expects a Boolean first-order sentence"
        )
    if not is_existential(query.formula):
        raise QueryError("sentence is not existential")
    grounding = ground_existential_to_dnf(db, query.formula)
    if grounding.dnf.is_true():
        return AdditiveEstimate(1.0, epsilon, delta, 0)
    if grounding.dnf.is_false():
        return AdditiveEstimate(0.0, epsilon, delta, 0)
    probs = grounding_probabilities(db, grounding.dnf)
    run = karp_luby(
        grounding.dnf, probs, epsilon, delta, rng, method, adaptive=adaptive
    )
    return AdditiveEstimate(run.estimate, epsilon, delta, run.samples)


def wrong_target(formula: Formula) -> Formula:
    """The existential sentence Corollary 5.5 estimates for ``formula``.

    A universal sentence is handled through its existential negation:
    ``Wrong(psi) = Wrong(~psi)`` (the truth values differ on exactly the
    same worlds).
    """
    if is_existential(formula):
        return formula
    if is_universal(formula):
        return neg(formula)
    raise QueryError(
        "Corollary 5.5 applies to existential or universal queries only"
    )


def _boolean_wrong_estimate(
    db: UnreliableDatabase,
    formula: Formula,
    epsilon: float,
    delta: float,
    rng: random.Random,
    method: str,
    adaptive: bool = False,
) -> AdditiveEstimate:
    """Additive estimate of ``Pr[Wrong(psi)]`` for existential/universal psi."""
    target = wrong_target(formula)
    observed = FOQuery(target).evaluate(db.structure, ())
    probability = existential_probability(
        db, target, epsilon, delta, rng, method, adaptive=adaptive
    )
    wrong = 1.0 - probability.value if observed else probability.value
    return AdditiveEstimate(wrong, epsilon, delta, probability.samples)


def reliability_additive(
    db: UnreliableDatabase,
    query: QueryLike,
    epsilon: float,
    delta: float,
    rng: random.Random,
    method: str = "coverage",
    adaptive: bool = False,
) -> AdditiveEstimate:
    """Corollary 5.5: ``Pr[|M(D) - R_psi(D)| > epsilon] < delta``.

    ``psi`` may be existential or universal, of any arity.  The k-ary case
    sums per-tuple estimates at accuracy ``epsilon / n**k`` and failure
    probability ``delta / n**k`` (union bound), then converts the error
    sum to a reliability.
    """
    if epsilon <= 0 or delta <= 0 or delta >= 1:
        raise ProbabilityError(
            f"need epsilon > 0 and 0 < delta < 1, got {epsilon}, {delta}"
        )
    fo_query = as_query(query)
    if not isinstance(fo_query, FOQuery):
        raise QueryError(
            "reliability_additive expects a first-order query; use "
            "padded_reliability for general polynomial-time queries"
        )
    n = db.universe_size
    k = fo_query.arity
    if k == 0:
        estimate = _boolean_wrong_estimate(
            db, fo_query.formula, epsilon, delta, rng, method, adaptive
        )
        return AdditiveEstimate(
            1.0 - estimate.value, epsilon, delta, estimate.samples
        )
    cells = n**k
    if cells == 0:
        raise QueryError("reliability undefined on an empty universe")
    per_epsilon = epsilon  # relative eps per cell; see note below
    per_delta = delta / cells
    total_wrong = 0.0
    total_samples = 0
    for args in product(db.structure.universe, repeat=k):
        checkpoint()
        instantiated = fo_query.instantiated(args)
        estimate = _boolean_wrong_estimate(
            db, instantiated, per_epsilon, per_delta, rng, method, adaptive
        )
        total_wrong += estimate.value
        total_samples += estimate.samples
    # Each per-tuple estimate is within epsilon (relative, hence absolute
    # since wrong-probabilities are <= 1) of its target with probability
    # 1 - delta / n^k; summing and dividing by n^k keeps the absolute
    # error at epsilon with probability 1 - delta.
    return AdditiveEstimate(
        1.0 - total_wrong / cells, epsilon, delta, total_samples
    )
