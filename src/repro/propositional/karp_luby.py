"""The Karp–Luby FPTRAS for (weighted) DNF probability.

Karp and Luby (FOCS 1983) gave a fully polynomial-time randomized
approximation scheme for #DNF; the same importance-sampling construction
applies verbatim to ``Prob-DNF`` with independent variable probabilities,
which is the form the paper uses in Theorems 5.3/5.4.

The estimator works in the *clause cover* space.  Write ``W_i`` for the
probability that clause ``i``'s literals all hold and ``W = sum(W_i)``.
Sampling a pair ``(i, sigma)`` with ``i ~ W_i / W`` and ``sigma`` drawn
from the variable distribution conditioned on clause ``i`` being true
gives a uniform-over-cover sample.  Two classic unbiased estimators of
``Pr[dnf] / W`` are implemented:

* ``coverage`` (the "self-adjusting" estimator): ``X = 1 / #covered``,
  where ``#covered`` is the number of clauses ``sigma`` satisfies.  Always
  in ``[1/m, 1]``, so relative error concentrates with
  ``t = O(m log(1/delta) / eps^2)`` samples.
* ``canonical``: ``X = [i is the lowest-index clause satisfied by sigma]``.
  Same expectation, slightly higher variance, simpler analysis.

Both yield ``Pr[dnf] = W * E[X]``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro import obs
from repro.kernels.bitops import column_bits
from repro.kernels.plan import compile_dnf_plan
from repro.kernels.sampling import (
    KlPlan,
    sample_kl_batches,
    sample_naive_batches,
)
from repro.propositional.formula import DNF, Variable
from repro.runtime.budget import checkpoint
from repro.runtime.preflight import preflight_samples
from repro.util.errors import ProbabilityError, QueryError
from repro.util.rng import Seed, as_rng

ProbLike = Union[float, Fraction]
RngLike = Union[random.Random, Seed]

# Convergence traces partition the sample budget into at most this many
# running-estimate events (see docs/OBSERVABILITY.md).
TRACE_BATCHES = 64

# The scalar fallback loops charge the runtime budget in chunks of this
# many samples; BudgetExceeded is accurate to within one chunk.
CHECKPOINT_CHUNK = 64


def _clause_weights(dnf: DNF, probs: Mapping[Variable, ProbLike]) -> List[float]:
    weights = []
    for clause in dnf.clauses:
        weight = 1.0
        for literal in clause:
            p = float(probs[literal.variable])
            weight *= p if literal.positive else 1.0 - p
        weights.append(weight)
    return weights


def sample_count(
    clause_count: int, epsilon: float, delta: float, method: str = "coverage"
) -> int:
    """Samples sufficient for a relative (epsilon, delta) guarantee.

    For the coverage estimator the per-sample value lies in ``[1/m, 1]``
    with mean ``mu >= 1/m``; the zero–one estimator theorem of Karp–Luby
    (Lemma 5.11 in the paper, applied with values scaled into ``[0, 1]``)
    gives ``t >= 9 m ln(2/delta) / (2 eps^2)``.  The canonical estimator is
    a Bernoulli variable with the same mean, so the same bound applies.
    """
    if epsilon <= 0 or delta <= 0 or delta >= 1:
        raise ProbabilityError(
            f"need epsilon > 0 and 0 < delta < 1, got {epsilon}, {delta}"
        )
    if method not in ("coverage", "canonical"):
        raise QueryError(f"unknown Karp-Luby method {method!r}")
    m = max(clause_count, 1)
    return max(1, math.ceil(9.0 * m * math.log(2.0 / delta) / (2.0 * epsilon**2)))


@dataclass(frozen=True)
class KarpLubyEstimate:
    """Result of a Karp–Luby run: the estimate plus diagnostics."""

    estimate: float
    samples: int
    clause_weight_total: float
    method: str

    def __float__(self) -> float:
        return self.estimate


def karp_luby(
    dnf: DNF,
    probs: Mapping[Variable, ProbLike],
    epsilon: float,
    delta: float,
    rng: RngLike,
    method: str = "coverage",
    adaptive: bool = False,
) -> KarpLubyEstimate:
    """FPTRAS for ``Pr[dnf]`` with relative (epsilon, delta) guarantee.

    Runtime is ``O(t * m * k)`` with ``t = sample_count(m, eps, delta)`` —
    polynomial in the formula size, ``1/epsilon`` and ``log(1/delta)``,
    which is what "fully polynomial" demands.  ``adaptive`` switches
    the batched kernel to the sequential empirical-Bernstein stopper
    (:mod:`repro.runtime.adaptive`): the same relative guarantee, but
    the run stops as soon as the empirical variance of the coverage
    estimator certifies it, with ``sample_count`` as the never-exceeded
    worst case.
    """
    samples = sample_count(len(dnf.clauses), epsilon, delta, method)
    return karp_luby_samples(
        dnf,
        probs,
        samples,
        rng,
        method,
        epsilon=epsilon,
        delta=delta,
        adaptive=adaptive,
    )


def karp_luby_samples(
    dnf: DNF,
    probs: Mapping[Variable, ProbLike],
    samples: int,
    rng: RngLike,
    method: str = "coverage",
    kernel: str = "batched",
    shards: int = 1,
    epsilon: Optional[float] = None,
    delta: Optional[float] = None,
    adaptive: bool = False,
) -> KarpLubyEstimate:
    """Karp–Luby with an explicit sample budget (for benchmark sweeps).

    ``kernel="batched"`` (the default) draws and evaluates samples in
    bit-parallel column batches (see docs/PERFORMANCE.md);
    ``kernel="scalar"`` keeps the per-sample loop for comparison.
    ``shards`` fans batches out over worker processes; results are
    identical for a fixed seed regardless of shard count.  A one-clause
    DNF is answered exactly (``Pr = W``) with no samples drawn, after
    the same argument and budget checks as a sampled run.

    ``adaptive`` treats ``samples`` as the worst case and stops at the
    first canonical checkpoint where the empirical-Bernstein interval
    certifies a relative ``epsilon`` at confidence ``delta`` (both then
    required); it needs the batched kernel and runs its own fixed
    block schedule sequentially (``shards`` is ignored).
    """
    if method not in ("coverage", "canonical"):
        raise QueryError(f"unknown Karp-Luby method {method!r}")
    if kernel not in ("batched", "scalar"):
        raise QueryError(f"unknown Karp-Luby kernel {kernel!r}")
    if samples <= 0:
        raise ProbabilityError(f"sample budget must be positive, got {samples}")
    if adaptive:
        if kernel != "batched":
            raise QueryError(
                "adaptive Karp-Luby requires the batched kernel"
            )
        if epsilon is None or delta is None:
            raise ProbabilityError(
                "adaptive Karp-Luby needs epsilon and delta to stop on"
            )
    if dnf.is_true():
        return KarpLubyEstimate(1.0, 0, 1.0, method)
    if dnf.is_false():
        return KarpLubyEstimate(0.0, 0, 0.0, method)
    # Refuse up front when the active budget cannot fit the run.
    preflight_samples(samples)
    for variable in dnf.variables:
        if variable not in probs:
            raise ProbabilityError(f"no probability given for {variable!r}")
    rng = as_rng(rng)

    weights = _clause_weights(dnf, probs)
    total_weight = sum(weights)
    if total_weight <= 0.0:
        return KarpLubyEstimate(0.0, 0, 0.0, method)
    if len(weights) == 1:
        # One clause: Pr[dnf] = W exactly (every estimator sample is 1).
        return KarpLubyEstimate(total_weight, 0, total_weight, method)

    variables = sorted(dnf.variables, key=repr)
    float_probs = {v: float(probs[v]) for v in variables}

    obs.inc("karp_luby.runs")
    obs.gauge("karp_luby.cover_weight", total_weight)
    obs.gauge("karp_luby.clauses", len(dnf.clauses))
    trace = obs.enabled()
    stride = max(1, samples // TRACE_BATCHES)

    if kernel == "batched":
        plan = compile_dnf_plan(dnf)
        kl_plan = KlPlan(
            plan.clauses,
            tuple(column_bits(float_probs[v]) for v in plan.variables),
            weights,
            total_weight,
            method,
        )
        if adaptive:
            from repro.runtime.adaptive import adaptive_kl_accumulate

            run = adaptive_kl_accumulate(
                kl_plan, rng, samples, epsilon, delta
            )
            obs.inc("karp_luby.samples", run.drawn)
            estimate = total_weight * run.mean
            return KarpLubyEstimate(
                min(estimate, 1.0), run.drawn, total_weight, method
            )
        accumulator = sample_kl_batches(kl_plan, rng, samples, shards=shards)
        obs.inc("karp_luby.samples", samples)
        estimate = total_weight * accumulator / samples
        return KarpLubyEstimate(
            min(estimate, 1.0), samples, total_weight, method
        )

    cumulative: List[float] = []
    running = 0.0
    for weight in weights:
        running += weight
        cumulative.append(running)
    accumulator = 0.0
    pending = 0
    for drawn in range(1, samples + 1):
        pending += 1
        if pending >= CHECKPOINT_CHUNK or drawn == samples:
            checkpoint(samples=pending)
            pending = 0
        # Pick a clause proportionally to its weight.
        target = rng.random() * total_weight
        index = _bisect(cumulative, target)
        clause = dnf.clauses[index]
        # Sample an assignment conditioned on that clause being true.
        assignment: Dict[Variable, bool] = {}
        for variable in variables:
            if variable in clause:
                assignment[variable] = clause.polarity(variable)
            else:
                assignment[variable] = rng.random() < float_probs[variable]
        if method == "coverage":
            covered = dnf.satisfied_count(assignment)
            accumulator += 1.0 / covered
        else:
            first = _first_satisfied(dnf, assignment)
            accumulator += 1.0 if first == index else 0.0
        if trace and (drawn % stride == 0 or drawn == samples):
            obs.event(
                "karp_luby.batch",
                samples=drawn,
                estimate=min(total_weight * accumulator / drawn, 1.0),
                cover_weight=total_weight,
            )

    obs.inc("karp_luby.samples", samples)
    estimate = total_weight * accumulator / samples
    return KarpLubyEstimate(min(estimate, 1.0), samples, total_weight, method)


def _bisect(cumulative: Sequence[float], target: float) -> int:
    low, high = 0, len(cumulative) - 1
    while low < high:
        mid = (low + high) // 2
        if cumulative[mid] <= target:
            low = mid + 1
        else:
            high = mid
    return low


def _first_satisfied(dnf: DNF, assignment: Mapping[Variable, bool]) -> int:
    for index, clause in enumerate(dnf.clauses):
        if clause.satisfied_by(assignment):
            return index
    raise AssertionError("sampled assignment satisfies no clause")


def naive_probability_estimate(
    dnf: DNF,
    probs: Mapping[Variable, ProbLike],
    samples: int,
    rng: RngLike,
    kernel: str = "batched",
    shards: int = 1,
) -> float:
    """Plain Monte Carlo baseline: sample assignments, count hits.

    Gives an *additive* guarantee by Hoeffding; its relative error on
    small-probability formulas blows up — the failure mode Karp–Luby was
    invented to avoid and the contrast measured in experiment E9.
    """
    if kernel not in ("batched", "scalar"):
        raise QueryError(f"unknown sampling kernel {kernel!r}")
    if samples <= 0:
        raise ProbabilityError(f"sample budget must be positive, got {samples}")
    rng = as_rng(rng)
    variables = sorted(dnf.variables, key=repr)
    float_probs = {v: float(probs[v]) for v in variables}
    if kernel == "batched":
        plan = compile_dnf_plan(dnf)
        bits = tuple(column_bits(float_probs[v]) for v in plan.variables)
        return sample_naive_batches(
            plan.clauses, bits, rng, samples, shards=shards
        )
    trace = obs.enabled()
    stride = max(1, samples // TRACE_BATCHES)
    hits = 0
    pending = 0
    for drawn in range(1, samples + 1):
        pending += 1
        if pending >= CHECKPOINT_CHUNK or drawn == samples:
            checkpoint(samples=pending)
            pending = 0
        assignment = {
            variable: rng.random() < float_probs[variable]
            for variable in variables
        }
        if dnf.satisfied_by(assignment):
            hits += 1
        if trace and (drawn % stride == 0 or drawn == samples):
            obs.event("naive_mc.batch", samples=drawn, estimate=hits / drawn)
    obs.inc("naive_mc.samples", samples)
    return hits / samples
