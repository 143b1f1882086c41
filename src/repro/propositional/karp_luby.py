"""The Karp–Luby FPTRAS for (weighted) DNF probability.

Karp and Luby (FOCS 1983) gave a fully polynomial-time randomized
approximation scheme for #DNF; the same importance-sampling construction
applies verbatim to ``Prob-DNF`` with independent variable probabilities,
which is the form the paper uses in Theorems 5.3/5.4.

The estimator works in the *clause cover* space.  Write ``W_i`` for the
probability that clause ``i``'s literals all hold and ``W = sum(W_i)``.
Sampling a pair ``(i, sigma)`` with ``i ~ W_i / W`` and ``sigma`` drawn
from the variable distribution conditioned on clause ``i`` being true
gives a uniform-over-cover sample.  The estimator is the coverage
("self-adjusting") one: ``X = 1 / #covered``, where ``#covered`` is the
number of clauses ``sigma`` satisfies.  ``X`` is an unbiased estimate of
``Pr[dnf] / W``, so ``Pr[dnf] = W * E[X]``, and it always lies in
``[1/m, 1]``, so relative error concentrates with
``t = O(m log(1/delta) / eps^2)`` samples.
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
from repro.kernels.sampling import KlPlan, dnf_moments, kl_block_moments
from repro.propositional.counting import _check_probs
from repro.propositional.formula import DNF, Variable
from repro.runtime.preflight import preflight_samples
from repro.util.errors import ProbabilityError
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


def sample_count(clause_count: int, epsilon: float, delta: float) -> int:
    """Samples sufficient for a relative (epsilon, delta) guarantee.

    For the coverage estimator the per-sample value lies in ``[1/m, 1]``
    with mean ``mu >= 1/m``; the zero–one estimator theorem of Karp–Luby
    (Lemma 5.11 in the paper, applied with values scaled into ``[0, 1]``)
    gives ``t >= 9 m ln(2/delta) / (2 eps^2)``.
    """
    if epsilon <= 0 or delta <= 0 or delta >= 1:
        raise ProbabilityError(
            f"need epsilon > 0 and 0 < delta < 1, got {epsilon}, {delta}"
        )
    m = max(clause_count, 1)
    return max(1, math.ceil(9.0 * m * math.log(2.0 / delta) / (2.0 * epsilon**2)))


@dataclass(frozen=True)
class KarpLubyEstimate:
    """Result of a Karp–Luby run: the estimate plus diagnostics."""

    estimate: float
    samples: int
    clause_weight_total: float

    def __float__(self) -> float:
        return self.estimate


def karp_luby(
    dnf: DNF,
    probs: Mapping[Variable, ProbLike],
    epsilon: float,
    delta: float,
    rng: RngLike,
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
    samples = sample_count(len(dnf.clauses), epsilon, delta)
    return karp_luby_samples(
        dnf,
        probs,
        samples,
        rng,
        epsilon=epsilon,
        delta=delta,
        adaptive=adaptive,
    )


def karp_luby_samples(
    dnf: DNF,
    probs: Mapping[Variable, ProbLike],
    samples: int,
    rng: RngLike,
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
    first check of the sample layout where the empirical-Bernstein
    interval certifies a relative ``epsilon`` at confidence ``delta``
    (both then required).  Both modes draw the same batches, through
    :func:`sample_kl_batches`.
    """
    if samples <= 0:
        raise ProbabilityError(f"sample budget must be positive, got {samples}")
    if adaptive and (epsilon is None or delta is None):
        raise ProbabilityError(
            "adaptive Karp-Luby needs epsilon and delta to stop on"
        )
    if dnf.is_true():
        return KarpLubyEstimate(1.0, 0, 1.0)
    if dnf.is_false():
        return KarpLubyEstimate(0.0, 0, 0.0)
    # Refuse up front when the active budget cannot fit the run.
    preflight_samples(samples)
    _check_probs(dnf, probs)
    rng = as_rng(rng)

    weights = _clause_weights(dnf, probs)
    total_weight = sum(weights)
    if total_weight <= 0.0:
        return KarpLubyEstimate(0.0, 0, 0.0)
    if len(weights) == 1:
        # One clause: Pr[dnf] = W exactly (every estimator sample is 1).
        return KarpLubyEstimate(total_weight, 0, total_weight)

    obs.inc("karp_luby.runs")
    obs.gauge("karp_luby.cover_weight", total_weight)
    obs.gauge("karp_luby.clauses", len(dnf.clauses))

    plan = compile_dnf_plan(dnf)
    kl_plan = KlPlan(
        plan.clauses,
        tuple(column_bits(float(probs[v])) for v in plan.variables),
        weights,
        total_weight,
    )
    run = sample_kl_batches(kl_plan, rng, samples, epsilon, delta, adaptive)
    obs.inc("karp_luby.samples", run.drawn)
    estimate = total_weight * run.mean
    return KarpLubyEstimate(min(estimate, 1.0), run.drawn, total_weight)


def sample_kl_batches(
    plan: KlPlan,
    rng: random.Random,
    samples: int,
    epsilon: Optional[float] = None,
    delta: Optional[float] = None,
    adaptive: bool = False,
):
    """The one Karp–Luby driver: the coverage estimator's
    :class:`~repro.runtime.adaptive.AdaptiveRun` over at most
    ``samples`` samples, stopped on a relative ``epsilon`` at
    confidence ``delta`` when ``adaptive``."""
    from repro.runtime.adaptive import adaptive_mean

    def event(tally) -> None:
        obs.event(
            "karp_luby.batch",
            samples=tally.drawn,
            estimate=min(plan.total_weight * tally.total / tally.drawn, 1.0),
            cover_weight=plan.total_weight,
        )

    return adaptive_mean(
        partial(kl_block_moments, plan),
        rng,
        samples,
        epsilon,
        delta,
        mode="relative",
        kind="karp_luby",
        lanes=len(plan.bits),
        adaptive=adaptive,
        event=event,
    )


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
    from repro.runtime.adaptive import adaptive_mean

    rng = as_rng(rng)
    plan = compile_dnf_plan(dnf)
    bits = tuple(column_bits(float(probs[v])) for v in plan.variables)

    def event(tally) -> None:
        obs.event(
            "naive_mc.batch",
            samples=tally.drawn,
            estimate=tally.total / tally.drawn,
        )

    run = adaptive_mean(
        partial(dnf_moments, plan.clauses, bits),
        rng,
        samples,
        kind="naive_mc",
        lanes=len(bits),
        adaptive=False,
        event=event,
    )
    obs.inc("naive_mc.samples", samples)
    return run.mean
