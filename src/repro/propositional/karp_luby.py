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
from functools import partial
from typing import List, Mapping, Optional, Union

from repro import obs
from repro.kernels.bitops import column_bits
from repro.kernels.plan import compile_dnf_plan
from repro.kernels.sampling import (
    KlPlan,
    kl_block_moments,
    sample_kl_batches,
    sample_naive_batches,
)
from repro.propositional.counting import _check_probs
from repro.propositional.formula import DNF, Variable
from repro.runtime.preflight import preflight_samples
from repro.util.errors import ProbabilityError, QueryError
from repro.util.rng import Seed, as_rng

ProbLike = Union[float, Fraction]
RngLike = Union[random.Random, Seed]


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
    epsilon: Optional[float] = None,
    delta: Optional[float] = None,
    adaptive: bool = False,
) -> KarpLubyEstimate:
    """Karp–Luby with an explicit sample budget (for benchmark sweeps).

    Samples are drawn and evaluated in bit-parallel column batches
    (see docs/PERFORMANCE.md).  A one-clause DNF is answered exactly
    (``Pr = W``) with no samples drawn, after the same argument and
    budget checks as a sampled run.

    ``adaptive`` treats ``samples`` as the worst case and stops at the
    first canonical checkpoint where the empirical-Bernstein interval
    certifies a relative ``epsilon`` at confidence ``delta`` (both then
    required), drawing its own fixed block schedule.
    """
    if method not in ("coverage", "canonical"):
        raise QueryError(f"unknown Karp-Luby method {method!r}")
    if samples <= 0:
        raise ProbabilityError(f"sample budget must be positive, got {samples}")
    if adaptive and (epsilon is None or delta is None):
        raise ProbabilityError(
            "adaptive Karp-Luby needs epsilon and delta to stop on"
        )
    if dnf.is_true():
        return KarpLubyEstimate(1.0, 0, 1.0, method)
    if dnf.is_false():
        return KarpLubyEstimate(0.0, 0, 0.0, method)
    # Refuse up front when the active budget cannot fit the run.
    preflight_samples(samples)
    _check_probs(dnf, probs)
    rng = as_rng(rng)

    weights = _clause_weights(dnf, probs)
    total_weight = sum(weights)
    if total_weight <= 0.0:
        return KarpLubyEstimate(0.0, 0, 0.0, method)
    if len(weights) == 1:
        # One clause: Pr[dnf] = W exactly (every estimator sample is 1).
        return KarpLubyEstimate(total_weight, 0, total_weight, method)

    obs.inc("karp_luby.runs")
    obs.gauge("karp_luby.cover_weight", total_weight)
    obs.gauge("karp_luby.clauses", len(dnf.clauses))

    plan = compile_dnf_plan(dnf)
    kl_plan = KlPlan(
        plan.clauses,
        tuple(column_bits(float(probs[v])) for v in plan.variables),
        weights,
        total_weight,
        method,
    )
    if adaptive:
        from repro.runtime.adaptive import adaptive_mean

        run = adaptive_mean(
            partial(kl_block_moments, kl_plan),
            rng,
            samples,
            epsilon,
            delta,
            mode="relative",
            kind="karp_luby",
        )
        obs.inc("karp_luby.samples", run.drawn)
        estimate = total_weight * run.mean
        return KarpLubyEstimate(
            min(estimate, 1.0), run.drawn, total_weight, method
        )
    accumulator = sample_kl_batches(kl_plan, rng, samples)
    obs.inc("karp_luby.samples", samples)
    estimate = total_weight * accumulator / samples
    return KarpLubyEstimate(min(estimate, 1.0), samples, total_weight, method)


def naive_probability_estimate(
    dnf: DNF,
    probs: Mapping[Variable, ProbLike],
    samples: int,
    rng: RngLike,
) -> float:
    """Plain Monte Carlo baseline: sample assignments, count hits.

    Gives an *additive* guarantee by Hoeffding; its relative error on
    small-probability formulas blows up — the failure mode Karp–Luby was
    invented to avoid and the contrast measured in experiment E9.
    """
    if samples <= 0:
        raise ProbabilityError(f"sample budget must be positive, got {samples}")
    # Refuse up front when the active budget cannot fit the run.
    preflight_samples(samples)
    _check_probs(dnf, probs)
    rng = as_rng(rng)
    plan = compile_dnf_plan(dnf)
    bits = tuple(column_bits(float(probs[v])) for v in plan.variables)
    return sample_naive_batches(plan.clauses, bits, rng, samples)
