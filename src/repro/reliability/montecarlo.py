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

Queries that do not compile to the batched kernels draw whole worlds
through :func:`sampled_worlds`, the one per-world sample loop, which
Theorem 5.12's padding, the sampled answer table and the metafinite
estimator share.
"""

from __future__ import annotations

import math
import random
from functools import partial
from typing import Any, Iterator, Sequence, Union

from repro import obs
from repro.kernels.plan import compile_hamming_plan, compile_truth_plan
from repro.kernels.sampling import dnf_moments, hamming_moments
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


def sampled_worlds(db: Any, rng: random.Random, count: int) -> Iterator[Any]:
    """``count`` worlds drawn with ``db.sample(rng)``: the one per-world
    sample loop.

    Each run of up to :data:`~repro.runtime.budget.CHECKPOINT_CHUNK`
    worlds is charged with ``checkpoint(samples=...)`` before its first
    draw, as :func:`~repro.kernels.sampling.run_batches` charges each
    batch, so a capped budget stops the loop within one chunk, and is
    counted in ``montecarlo.samples``.  ``count`` is the caller's
    resolved and preflighted sample budget.
    """
    for start in range(0, count, CHECKPOINT_CHUNK):
        chunk = min(CHECKPOINT_CHUNK, count - start)
        checkpoint(samples=chunk)
        obs.inc("montecarlo.samples", chunk)
        for _ in range(chunk):
            yield db.sample(rng)


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
    it.  Both modes draw the same batches, so an adaptive run's value
    is the fixed-budget value of a prefix of the same sample stream.
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
            return _sample_truth(plan, rng, budget, epsilon, delta, adaptive)
        hits = 0
        for drawn, world in enumerate(sampled_worlds(db, rng, budget), 1):
            if query.evaluate(world, args):
                hits += 1
            if trace and (drawn % stride == 0 or drawn == budget):
                obs.event(
                    "montecarlo.batch",
                    samples=drawn,
                    estimate=hits / drawn,
                    half_width=_half_width(drawn, delta),
                )
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
            return _sample_hamming(plan, rng, budget, epsilon, delta, adaptive)
        observed_answers = query.answers(db.structure)
        total = 0.0
        for drawn, world in enumerate(sampled_worlds(db, rng, budget), 1):
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
    return 1.0 - total / budget


def _sample_truth(plan, rng, budget, epsilon, delta, adaptive) -> float:
    """The batched path of :func:`estimate_truth_probability`."""
    from repro.runtime.adaptive import adaptive_mean

    if plan.constant is not None:
        checkpoint(samples=budget)
        if obs.enabled():
            obs.event(
                "montecarlo.batch",
                samples=budget,
                estimate=plan.constant,
                half_width=_half_width(budget, delta),
            )
        obs.inc("montecarlo.samples", budget)
        return plan.constant

    def event(tally) -> None:
        estimate = tally.total / tally.drawn
        obs.event(
            "montecarlo.batch",
            samples=tally.drawn,
            estimate=1.0 - estimate if plan.negate else estimate,
            half_width=_half_width(tally.drawn, delta),
        )

    run = adaptive_mean(
        partial(dnf_moments, plan.plan.clauses, plan.bits),
        rng,
        budget,
        epsilon,
        delta,
        lanes=len(plan.bits),
        adaptive=adaptive,
        event=event,
    )
    obs.inc("montecarlo.samples", run.drawn)
    return 1.0 - run.mean if plan.negate else run.mean


def _sample_hamming(plan, rng, budget, epsilon, delta, adaptive) -> float:
    """The batched path of :func:`estimate_reliability_hamming`."""
    from repro.runtime.adaptive import adaptive_mean

    def event(tally) -> None:
        obs.event(
            "montecarlo.hamming_batch",
            samples=tally.drawn,
            estimate=1.0 - tally.total / tally.drawn,
            half_width=_half_width(tally.drawn, delta),
        )

    run = adaptive_mean(
        partial(hamming_moments, plan),
        rng,
        budget,
        epsilon,
        delta,
        lanes=len(plan.bits),
        adaptive=adaptive,
        event=event,
    )
    obs.inc("montecarlo.samples", run.drawn)
    return 1.0 - run.mean
