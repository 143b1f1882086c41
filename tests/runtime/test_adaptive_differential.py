"""Differential tests for adaptive sampling against the fixed budget.

Two claims, each tested by running two independent code paths and
demanding agreement:

* *answers* — for pinned fuzzed instances, the adaptive estimate and
  the fixed worst-case estimate both land within the guarantee band of
  the exact value (they may differ from each other: the adaptive run
  consumes its own fixed block schedule);
* *forecasts* — with adaptivity (and a deliberately warmed surrogate)
  enabled, ``plan_chain`` still selects exactly the engine
  ``run_with_fallback`` ends up answering with, because both wrap the
  cost model in the same :class:`SurrogateAdjustedModel`.
"""

from functools import partial

import pytest

from repro.kernels.bitops import column_bits
from repro.kernels.plan import compile_dnf_plan
from repro.kernels.sampling import KlPlan, kl_block_moments
from repro.logic.evaluator import FOQuery
from repro.propositional.counting import probability_exact
from repro.propositional.karp_luby import (
    _clause_weights,
    karp_luby,
    karp_luby_samples,
    sample_count,
)
from repro.reliability.exact import reliability, truth_probability
from repro.reliability.montecarlo import estimate_truth_probability
from repro.runtime.adaptive import CostSurrogate, adaptive_mean, use_surrogate
from repro.runtime.budget import Budget
from repro.runtime.costmodel import calibrate, plan_chain
from repro.runtime.executor import run_with_fallback
from repro.util.errors import FallbackExhausted
from repro.util.rng import make_rng
from repro.workloads.random_db import random_unreliable_database
from repro.workloads.random_dnf import random_kdnf, random_probabilities

EPSILON = 0.1
DELTA = 0.05


def _db(seed, size=4):
    return random_unreliable_database(
        make_rng(seed), size=size, relations={"E": 2, "S": 1},
        density=0.4, error="1/8",
    )


def _kl_plan(dnf, probs):
    """The compiled Karp-Luby plan, as ``karp_luby_samples`` builds it."""
    weights = _clause_weights(dnf, probs)
    plan = compile_dnf_plan(dnf)
    return KlPlan(
        plan.clauses,
        tuple(column_bits(float(probs[v])) for v in plan.variables),
        weights,
        sum(weights),
        "coverage",
    )


def test_kl_plan_helper_builds_the_library_plan():
    """Driving the helper's plan gives ``karp_luby_samples``' answer."""
    rng = make_rng(3)
    dnf = random_kdnf(rng, variables=8, clauses=4, width=3)
    probs = random_probabilities(rng, dnf)
    with use_surrogate(CostSurrogate()):
        run = adaptive_mean(
            partial(kl_block_moments, _kl_plan(dnf, probs)),
            make_rng(4), 2000, 0.2, 0.1, mode="relative", kind="karp_luby",
        )
        library = karp_luby_samples(
            dnf, probs, 2000, make_rng(4), epsilon=0.2, delta=0.1,
            adaptive=True,
        )
    assert run.drawn == library.samples
    total = library.clause_weight_total
    assert min(total * run.mean, 1.0) == library.estimate


# --------------------------------------------------------------------- #
# Fuzzed adaptive-vs-fixed agreement within the guarantee band
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", range(12))
def test_truth_adaptive_and_fixed_agree_within_guarantee(seed):
    query = FOQuery("exists x. exists y. E(x, y) & S(y)")
    db = _db(100 + seed)
    exact = float(truth_probability(db, query, method="dnf"))
    with use_surrogate(CostSurrogate()):
        fixed = estimate_truth_probability(
            db, query, make_rng(seed), EPSILON, DELTA, adaptive=False
        )
        adaptive = estimate_truth_probability(
            db, query, make_rng(seed), EPSILON, DELTA, adaptive=True
        )
    assert abs(fixed - exact) <= EPSILON
    assert abs(adaptive - exact) <= EPSILON
    assert abs(fixed - adaptive) <= 2 * EPSILON


@pytest.mark.parametrize("seed", range(8))
def test_karp_luby_adaptive_and_fixed_agree_within_guarantee(seed):
    rng = make_rng(300 + seed)
    dnf = random_kdnf(rng, variables=8, clauses=4, width=3)
    probs = random_probabilities(rng, dnf)
    exact = float(probability_exact(dnf, probs))
    with use_surrogate(CostSurrogate()):
        fixed = karp_luby(
            dnf, probs, 0.2, 0.2, make_rng(seed), adaptive=False
        )
        adaptive = karp_luby(
            dnf, probs, 0.2, 0.2, make_rng(seed), adaptive=True
        )
    assert fixed.samples == sample_count(len(dnf.clauses), 0.2, 0.2)
    assert adaptive.samples <= fixed.samples
    assert abs(fixed.estimate - exact) <= 0.2 * exact
    assert abs(adaptive.estimate - exact) <= 0.2 * exact


# --------------------------------------------------------------------- #
# plan_chain forecasts vs run_with_fallback selection, adaptivity on
# --------------------------------------------------------------------- #


def test_analyze_run_agreement_with_adaptivity_and_warm_surrogate():
    model = calibrate(seed=0, repeats=1)
    surrogate = CostSurrogate()
    # Warm the surrogate asymmetrically: a forecast wrapper that only
    # one of the two paths saw would now break engine selection.
    surrogate.observe("karp_luby", 200, 2000)
    surrogate.observe("montecarlo", 1500, 2000)
    queries = [
        FOQuery("exists x. S(x) | (exists y. E(x, y) & S(y))"),
        FOQuery("exists x. exists y. E(x, y) & S(y) | exists x. S(x)"),
    ]
    with use_surrogate(surrogate):
        for index in range(4):
            db = random_unreliable_database(
                make_rng(500 + index), size=6, relations={"E": 2, "S": 1},
                density=0.6, uncertain_fraction=1.0,
            )
            query = queries[index % len(queries)]
            kwargs = dict(
                budget=Budget(max_atoms=16),
                epsilon=0.2,
                delta=0.2,
                cost_model=model,
                adaptive=True,
            )
            plan = plan_chain(db, query, **kwargs)
            try:
                result = run_with_fallback(db, query, rng=index, **kwargs)
                selected = result.engine
            except FallbackExhausted:
                selected = None
            assert plan.selected == selected, index


def test_adaptive_forecast_shows_expected_samples():
    """A warm surrogate surfaces expected-vs-worst sample forecasts."""
    surrogate = CostSurrogate()
    surrogate.observe("karp_luby", 100, 1000)
    surrogate.observe("montecarlo", 100, 1000)
    db = _db(11)
    # Disjunctive, so the dichotomy router cannot answer it exactly and
    # the chain walk reaches the sampling engines.
    query = FOQuery("exists x. S(x) | (exists y. E(x, y) & S(y))")
    with use_surrogate(surrogate):
        plan = plan_chain(
            db, query, budget=Budget(max_atoms=4),
            epsilon=0.2, delta=0.2, adaptive=True,
        )
    forecasts = {f.engine: f for f in plan.forecasts}
    sampled = [
        f for f in forecasts.values() if f.worst_samples is not None
    ]
    assert sampled, plan.describe()
    for forecast in sampled:
        assert 1 <= forecast.expected_samples <= forecast.worst_samples
    assert "expected/worst" in plan.describe()


def test_fixed_budget_answers_untouched_by_adaptive_flag_default():
    """adaptive=None (the default) must leave pinned values unchanged."""
    query = FOQuery("exists x. exists y. E(x, y) & S(y)")
    db = _db(12)
    with use_surrogate(CostSurrogate()):
        default = run_with_fallback(db, query, epsilon=0.2, delta=0.2, rng=1)
        explicit = run_with_fallback(
            db, query, epsilon=0.2, delta=0.2, rng=1, adaptive=False
        )
    assert default.value == explicit.value
    assert default.engine == explicit.engine


def test_reliability_exact_reference_for_fuzz_family():
    """The fuzz family's exact reference itself is internally coherent."""
    query = FOQuery("E(x, y) & ~S(x) | S(y)", ("x", "y"))
    db = _db(8, size=5)
    value = reliability(db, query, method="qf")
    assert 0 < value <= 1
