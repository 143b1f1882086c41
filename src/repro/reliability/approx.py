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
  The tuples' targets are grounded in one pass
  (:func:`~repro.reliability.grounding.ground_answers`); a tuple whose
  lineage is constant has a known error and draws no samples.

The FPTRAS gives *relative* error on probabilities; since probabilities
are at most one, the same run also gives absolute error — which is why
Corollary 5.5's guarantee is additive.  The converse strengthening is
impossible unless NP ⊆ BPP (Lemma 5.10), demonstrated in experiment E6.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple, Union

from repro.logic.classify import is_existential
from repro.logic.evaluator import FOQuery
from repro.logic.fo import Formula
from repro.propositional.karp_luby import karp_luby
from repro.reliability.exact import as_query
from repro.reliability.grounding import (
    ground_answers,
    ground_existential_to_dnf,
    grounding_probabilities,
    wrong_target,
)
from repro.reliability.unreliable import UnreliableDatabase
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
    _, target = karp_luby_target(db, query, "probability")
    grounding = ground_existential_to_dnf(db, target)
    if grounding.dnf.is_true():
        return AdditiveEstimate(1.0, epsilon, delta, 0)
    if grounding.dnf.is_false():
        return AdditiveEstimate(0.0, epsilon, delta, 0)
    probs = grounding_probabilities(db, grounding.dnf)
    run = karp_luby(
        grounding.dnf, probs, epsilon, delta, rng, method, adaptive=adaptive
    )
    return AdditiveEstimate(run.estimate, epsilon, delta, run.samples)


def karp_luby_target(
    db: UnreliableDatabase, query: FOQuery, quantity: str = "reliability"
) -> Tuple[int, Formula]:
    """``(cells, target)``: the existential sentence Karp–Luby
    estimates for ``quantity``, and the number of answer cells, each
    estimated at failure probability ``delta / cells``.

    That is a Boolean query itself for ``probability`` (Theorem 5.4),
    and its :func:`wrong_target` for reliability.  A k-ary target keeps
    the query's free variables; :func:`ground_answers` grounds one
    instantiation per answer tuple (Corollary 5.5).
    """
    if quantity == "probability":
        if not is_existential(query.formula):
            raise QueryError("sentence is not existential")
        return 1, query.formula
    cells = db.universe_size**query.arity
    if cells == 0:
        raise QueryError("reliability undefined on an empty universe")
    return cells, wrong_target(query.formula)


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
    cells, _ = karp_luby_target(db, fo_query)
    per_epsilon = epsilon  # relative eps per cell; see note below
    per_delta = delta / cells
    total_wrong = 0.0
    total_samples = 0
    # Constant tuples add their 0/1 error in tuple order, so the float
    # sum rounds exactly as a per-tuple loop would.
    for _, observed, target in ground_answers(db, fo_query).cells():
        if isinstance(target, bool):
            total_wrong += float(observed != target)
            continue
        run = karp_luby(
            target, grounding_probabilities(db, target), per_epsilon,
            per_delta, rng, method, adaptive=adaptive,
        )
        total_wrong += 1.0 - run.estimate if observed else run.estimate
        total_samples += run.samples
    # Each per-tuple estimate is within epsilon (relative, hence absolute
    # since wrong-probabilities are <= 1) of its target with probability
    # 1 - delta / n^k; summing and dividing by n^k keeps the absolute
    # error at epsilon with probability 1 - delta.
    return AdditiveEstimate(
        1.0 - total_wrong / cells, epsilon, delta, total_samples
    )
