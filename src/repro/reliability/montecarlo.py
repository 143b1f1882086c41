"""Plain Monte-Carlo estimators over the possible-world space.

These are the baselines the paper's refined estimators are measured
against:

* :func:`estimate_truth_probability` — sample worlds, evaluate the query,
  average; Hoeffding gives an additive (epsilon, delta) bound.
* :func:`estimate_reliability_hamming` — estimate ``H_psi`` directly by
  sampling worlds and measuring the Hamming distance ``|psi^A Δ psi^B|``;
  one world sample prices *all* ``n ** k`` tuples at once, which makes it
  the practical work-horse for k-ary queries (and a baseline for E7).

Both require only that the query is polynomial-time evaluable, like
Theorem 5.12 — but unlike Theorem 5.12 they offer no lower bound on the
estimated quantity, which is what the xi-padding construction adds.
"""

from __future__ import annotations

import math
import random
from functools import partial
from typing import Any, Sequence, Union

from repro import obs
from repro.kernels.plan import compile_hamming_plan, compile_truth_plan
from repro.kernels.sampling import (
    hamming_moments,
    sample_hamming_batches,
    sample_truth_batches,
    truth_moments,
)
from repro.logic.evaluator import FOQuery
from repro.logic.fo import Formula
from repro.reliability.exact import as_query
from repro.reliability.unreliable import UnreliableDatabase
from repro.runtime.budget import CHECKPOINT_CHUNK, checkpoint
from repro.runtime.preflight import preflight_samples
from repro.util.errors import ProbabilityError, QueryError
from repro.util.rng import Seed, as_rng

QueryLike = Union[str, Formula, FOQuery, Any]
RngLike = Union[random.Random, Seed]

# Convergence traces partition the sample budget into at most this many
# running-estimate events (see docs/OBSERVABILITY.md).
TRACE_BATCHES = 64


def _half_width(count: int, delta: float) -> float:
    """Hoeffding half-width of a [0,1]-mean after ``count`` samples."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * count))


def _sample_budget(samples: int, epsilon: float, delta: float) -> int:
    """An explicit positive budget, or the Hoeffding count when 0.

    A *negative* ``samples`` is rejected rather than silently treated
    as "use Hoeffding": a caller computing a budget that underflows
    should hear about it, not get a surprise default.
    """
    if samples < 0:
        raise ProbabilityError(
            f"sample budget must be >= 0, got {samples} "
            "(0 means: derive from epsilon/delta)"
        )
    budget = samples if samples > 0 else hoeffding_samples(epsilon, delta)
    # Refuse up front when the active budget cannot fit the run.
    return preflight_samples(budget)


def hoeffding_samples(epsilon: float, delta: float) -> int:
    """Samples for an additive (epsilon, delta) bound on a [0,1] mean.

    ``t >= ln(2/delta) / (2 epsilon^2)`` by Hoeffding's inequality.
    """
    if epsilon <= 0 or delta <= 0 or delta >= 1:
        raise ProbabilityError(
            f"need epsilon > 0 and 0 < delta < 1, got {epsilon}, {delta}"
        )
    return max(1, math.ceil(math.log(2.0 / delta) / (2.0 * epsilon**2)))


def estimate_truth_probability(
    db: UnreliableDatabase,
    query: QueryLike,
    rng: RngLike,
    epsilon: float = 0.05,
    delta: float = 0.05,
    samples: int = 0,
    args: Sequence[Any] = (),
    adaptive: bool = False,
) -> float:
    """Estimate ``Pr[B |= psi(args)]`` by direct world sampling.

    ``samples`` overrides the Hoeffding count when positive (benchmark
    sweeps fix budgets explicitly).  ``rng`` may be a ``random.Random``
    or a bare seed.

    First-order queries compile to the bit-parallel batched kernel
    (see docs/PERFORMANCE.md); queries that do not compile (Datalog,
    second-order, opaque query objects) run the per-world loop.

    ``adaptive`` switches the batched kernel to the sequential
    empirical-Bernstein stopper (:mod:`repro.runtime.adaptive`): same
    additive (epsilon, delta) contract, but the run stops — and stops
    charging the budget — as soon as the empirical variance certifies
    it.  Adaptive draws follow their own fixed block schedule, so the
    value differs from (while agreeing within guarantee with) the
    fixed-budget value of the same seed.
    """
    query = as_query(query)
    args = tuple(args)
    if len(args) != query.arity:
        raise QueryError(
            f"query has arity {query.arity}, got {len(args)} arguments"
        )
    rng = as_rng(rng)
    budget = _sample_budget(samples, epsilon, delta)
    trace = obs.enabled()
    stride = max(1, budget // TRACE_BATCHES)
    with obs.span("montecarlo.truth_probability", budget=budget):
        plan = compile_truth_plan(db, query, args)
        if plan is not None:
            if adaptive and plan.constant is None:
                from repro.runtime.adaptive import adaptive_mean

                draw = partial(truth_moments, plan)
                mean = adaptive_mean(draw, rng, budget, epsilon, delta).mean
                return 1.0 - mean if plan.negate else mean
            return sample_truth_batches(plan, rng, budget, delta)
        hits = 0
        pending = 0
        for drawn in range(1, budget + 1):
            pending += 1
            if pending >= CHECKPOINT_CHUNK or drawn == budget:
                checkpoint(samples=pending)
                pending = 0
            world = db.sample(rng)
            if query.evaluate(world, args):
                hits += 1
            if trace and (drawn % stride == 0 or drawn == budget):
                obs.event(
                    "montecarlo.batch",
                    samples=drawn,
                    estimate=hits / drawn,
                    half_width=_half_width(drawn, delta),
                )
        obs.inc("montecarlo.samples", budget)
    return hits / budget


def estimate_reliability_hamming(
    db: UnreliableDatabase,
    query: QueryLike,
    rng: RngLike,
    epsilon: float = 0.05,
    delta: float = 0.05,
    samples: int = 0,
    adaptive: bool = False,
) -> float:
    """Estimate ``R_psi`` by sampling worlds and averaging Hamming distance.

    The normalised distance ``|psi^A Δ psi^B| / n**k`` lies in ``[0, 1]``,
    so Hoeffding's bound applies to the mean and the returned value is
    within ``epsilon`` of ``R_psi`` with probability at least
    ``1 - delta``.  ``rng`` may be a ``random.Random`` or a bare seed.
    First-order queries run the batched bit-parallel loop, as in
    :func:`estimate_truth_probability` (all ``n ** k`` per-tuple plans
    share each sampled column batch); ``adaptive`` selects the
    sequential empirical-Bernstein stopper on the batched path.
    """
    query = as_query(query)
    n = db.universe_size
    cells = n**query.arity
    if cells == 0:
        raise QueryError("reliability undefined on an empty universe")
    rng = as_rng(rng)
    budget = _sample_budget(samples, epsilon, delta)
    trace = obs.enabled()
    stride = max(1, budget // TRACE_BATCHES)
    with obs.span("montecarlo.hamming", budget=budget, cells=cells):
        plan = compile_hamming_plan(db, query)
        if plan is not None:
            if adaptive:
                from repro.runtime.adaptive import adaptive_mean

                draw = partial(hamming_moments, plan)
                return 1.0 - adaptive_mean(draw, rng, budget, epsilon, delta).mean
            return sample_hamming_batches(plan, rng, budget, delta)
        observed_answers = query.answers(db.structure)
        total = 0.0
        pending = 0
        for drawn in range(1, budget + 1):
            pending += 1
            if pending >= CHECKPOINT_CHUNK or drawn == budget:
                checkpoint(samples=pending)
                pending = 0
            world = db.sample(rng)
            actual_answers = query.answers(world)
            distance = len(observed_answers.symmetric_difference(actual_answers))
            total += distance / cells
            if trace and (drawn % stride == 0 or drawn == budget):
                obs.event(
                    "montecarlo.hamming_batch",
                    samples=drawn,
                    estimate=1.0 - total / drawn,
                    half_width=_half_width(drawn, delta),
                )
        obs.inc("montecarlo.samples", budget)
    return 1.0 - total / budget
