"""Cross-engine differential harness (the headline deliverable).

Fuzzes seeded random databases, queries, budgets, accuracy targets, and
cost models, then asserts three contracts:

(a) **analyze/run agreement** — the engine :func:`plan_chain` forecasts
    (the one ``repro analyze`` prints) is exactly the engine
    :func:`run_with_fallback` selects under the same inputs, and a
    forecast of "nothing runs" coincides with :class:`FallbackExhausted`.
(b) **tier safety** — model ordering permutes engines only within
    guarantee tiers; every exact-tier attempt precedes every approximate
    attempt, under every model including adversarial ones.
(c) **oracle agreement** — whichever engine answers agrees with the
    unbudgeted exact oracle within its advertised guarantee (exactly,
    relatively, or additively), and so does each engine forced solo.

Budgets are restricted to ``max_atoms``/``max_samples`` caps — the
combinations :func:`plan_chain` simulates exactly (deadlines are racy
by nature and documented as best-effort).
"""

import random

import pytest

from repro.logic.evaluator import FOQuery
from repro.reliability.exact import reliability, truth_probability
from repro.runtime.budget import Budget
from repro.runtime.costmodel import CostModel, engine_guarantee, plan_chain
from repro.runtime.executor import DEFAULT_CHAIN, run_with_fallback
from repro.util.errors import FallbackExhausted
from repro.workloads.random_db import random_unreliable_database
from tests.cost_tables import TableModel

# (text, free variables, allow-probability) — spans the safe-plan
# fragment, unsafe CQs, non-CQ connectives, universal sentences, k-ary
# queries, and quantifier-free formulas.
QUERY_POOL = [
    ("exists x. S(x)", [], True),
    ("exists x. exists y. E(x, y)", [], True),
    ("exists x. exists y. E(x, y) & S(y)", [], True),
    ("exists x. exists y. E(x, y) & S(x) & S(y)", [], True),
    ("exists x. S(x) | (exists y. E(y, y))", [], True),
    ("forall x. exists y. E(x, y)", [], True),
    ("exists y. E(x, y)", ["x"], False),
    ("S(x) & ~S(y)", ["x", "y"], False),
]

CASE_COUNT = 220


def _synthetic_model(rng):
    """A plausible model with randomized per-engine seconds."""
    return TableModel(
        {engine: rng.uniform(1e-4, 1e-1) for engine in DEFAULT_CHAIN}
    )


def _adversarial_model(rng):
    """Hostile predictions (inf/NaN/huge) for a random engine subset."""
    hostile = [float("inf"), float("-inf"), float("nan"), 1e300, -1e300, 0.0]
    return TableModel(
        {
            engine: rng.choice(hostile)
            for engine in DEFAULT_CHAIN
            if rng.random() < 0.7
        }
    )


def _make_case(index):
    rng = random.Random(1000 + index)
    size = rng.randint(3, 4)
    density = rng.uniform(0.2, 0.5)
    db = random_unreliable_database(
        rng, size=size, relations={"E": 2, "S": 1}, density=density
    )
    text, free, allows_probability = QUERY_POOL[index % len(QUERY_POOL)]
    query = FOQuery(text, free)
    quantity = (
        "probability"
        if allows_probability and rng.random() < 0.3
        else "reliability"
    )
    epsilon = rng.choice([0.2, 0.3, 0.4])
    delta = rng.choice([0.2, 0.3])
    budget_kind = rng.choice(["none", "atoms", "samples", "both", "starved"])
    if budget_kind == "none":
        budget = None
    elif budget_kind == "atoms":
        budget = Budget(max_atoms=rng.randint(4, 14))
    elif budget_kind == "samples":
        budget = Budget(max_samples=rng.randint(2_000, 60_000))
    elif budget_kind == "both":
        budget = Budget(
            max_atoms=rng.randint(4, 12),
            max_samples=rng.randint(2_000, 60_000),
        )
    else:  # starved: likely nothing can run except (maybe) lifted
        budget = Budget(max_atoms=rng.randint(1, 2), max_samples=rng.randint(1, 5))
    model_kind = rng.choice(["none", "cold", "table", "adversarial"])
    if model_kind == "none":
        model = None
    elif model_kind == "cold":
        model = CostModel()
    elif model_kind == "table":
        model = _synthetic_model(rng)
    else:
        model = _adversarial_model(rng)
    return dict(
        db=db,
        query=query,
        quantity=quantity,
        epsilon=epsilon,
        delta=delta,
        budget=budget,
        model=model,
        seed=index,
        kind=f"{budget_kind}/{model_kind}",
    )


def _oracle(db, query, quantity):
    if quantity == "probability":
        return float(truth_probability(db, query))
    return float(reliability(db, query))


def _check_guarantee(value, oracle, guarantee, epsilon):
    """Advertised-accuracy check; slack 3x absorbs the delta tail."""
    if guarantee == "exact":
        assert value == pytest.approx(oracle, abs=1e-9)
    elif guarantee == "relative":
        assert abs(value - oracle) <= 3.0 * epsilon * oracle + 1e-9
    else:
        assert guarantee == "additive"
        assert abs(value - oracle) <= 3.0 * epsilon + 1e-9


@pytest.mark.parametrize("index", range(CASE_COUNT))
def test_analyze_agrees_with_run(index):
    case = _make_case(index)
    plan = plan_chain(
        case["db"],
        case["query"],
        budget=case["budget"],
        quantity=case["quantity"],
        epsilon=case["epsilon"],
        delta=case["delta"],
        cost_model=case["model"],
    )
    try:
        result = run_with_fallback(
            case["db"],
            case["query"],
            budget=case["budget"],
            quantity=case["quantity"],
            epsilon=case["epsilon"],
            delta=case["delta"],
            rng=case["seed"],
            cost_model=case["model"],
        )
    except FallbackExhausted as exc:
        # (a) exhaustion must have been forecast, with matching outcomes.
        assert plan.selected is None, (
            f"[{case['kind']}] run exhausted but analyze forecast "
            f"{plan.selected!r}"
        )
        assert [a.engine for a in exc.attempts] == [
            f.engine for f in plan.forecasts
        ]
        assert [a.outcome for a in exc.attempts] == [
            f.outcome for f in plan.forecasts
        ]
        return

    # (a) the recommendation is the engine that actually answered.
    assert plan.selected == result.engine, (
        f"[{case['kind']}] analyze recommended {plan.selected!r} but run "
        f"selected {result.engine!r}"
    )
    # ... and the whole attempt walk matches the forecast, step by step.
    tried = [f for f in plan.forecasts if f.outcome != "not_tried"]
    assert [a.engine for a in result.attempts] == [f.engine for f in tried]
    assert [a.outcome for a in result.attempts] == [f.outcome for f in tried]

    # (b) tier safety of the executed order.
    ranks = [
        {"exact": 0, "relative": 1, "additive": 2}[
            engine_guarantee(a.engine, case["quantity"])
        ]
        for a in result.attempts
    ]
    assert ranks == sorted(ranks), (
        f"[{case['kind']}] attempts crossed guarantee tiers: "
        f"{[a.engine for a in result.attempts]}"
    )
    # The planned chain is always a permutation of the default chain.
    assert sorted(plan.chain) == sorted(DEFAULT_CHAIN)

    # (c) the answer honors the selected engine's advertised guarantee.
    oracle = _oracle(case["db"], case["query"], case["quantity"])
    _check_guarantee(
        result.value, oracle, result.guarantee, case["epsilon"]
    )
    assert result.guarantee == engine_guarantee(
        result.engine, case["quantity"]
    )


@pytest.mark.parametrize("engine", DEFAULT_CHAIN)
@pytest.mark.parametrize("index", range(0, CASE_COUNT, 10))
def test_each_engine_agrees_with_oracle_solo(engine, index):
    """(c) strengthened: force every engine alone against the oracle."""
    case = _make_case(index)
    try:
        result = run_with_fallback(
            case["db"],
            case["query"],
            chain=(engine,),
            budget=case["budget"],
            quantity=case["quantity"],
            epsilon=case["epsilon"],
            delta=case["delta"],
            rng=case["seed"],
            cost_model=case["model"],
        )
    except FallbackExhausted:
        return  # engine refused (fragment or cost) — nothing to compare
    oracle = _oracle(case["db"], case["query"], case["quantity"])
    _check_guarantee(result.value, oracle, result.guarantee, case["epsilon"])


def test_fuzz_covers_every_engine_and_exhaustion():
    """The case generator actually exercises the space it claims to."""
    selected = set()
    exhausted = 0
    kinds = set()
    for index in range(CASE_COUNT):
        case = _make_case(index)
        kinds.add(case["kind"])
        plan = plan_chain(
            case["db"],
            case["query"],
            budget=case["budget"],
            quantity=case["quantity"],
            epsilon=case["epsilon"],
            delta=case["delta"],
            cost_model=case["model"],
        )
        if plan.selected is None:
            exhausted += 1
        else:
            selected.add(plan.selected)
    assert selected == set(DEFAULT_CHAIN)
    assert exhausted >= 5
    assert len(kinds) >= 12  # budget x model grid is genuinely mixed


def test_reordering_changes_selection_only_within_tiers():
    """A model that inverts additive costs flips KL<->MC, never tiers."""
    rng = random.Random(42)
    db = random_unreliable_database(
        rng, size=4, relations={"E": 2, "S": 1}, density=0.4
    )
    query = FOQuery("forall x. exists y. E(x, y)")  # non-CQ: lifted out
    budget = Budget(max_atoms=2)  # exact out too
    cheap_mc = TableModel({"karp_luby": 1.0, "montecarlo": 0.001})
    plan = plan_chain(db, query, budget=budget, cost_model=cheap_mc)
    result = run_with_fallback(
        db, query, budget=Budget(max_atoms=2), rng=7, cost_model=cheap_mc
    )
    assert plan.selected == result.engine == "montecarlo"
    assert plan.chain.index("montecarlo") > plan.chain.index("safe_lifted")
