"""The one plan behind run, analyze and serve admission.

Pins properties of :mod:`repro.runtime.plan` that the differential
harnesses do not: a forecast has no side effects, a
walk forecast charges a refused engine's draws to the engines after
it, a plain run stays lazy, and a run classifies its query exactly
once.
"""

import pytest

from repro import obs
from repro.logic import safety
from repro.logic.evaluator import FOQuery
from repro.reliability.montecarlo import hoeffding_samples
from repro.runtime import costmodel
from repro.runtime.budget import Budget
from repro.runtime.costmodel import plan_chain
from repro.runtime.executor import DEFAULT_CHAIN, run_with_fallback
from repro.util.errors import FallbackExhausted
from repro.util.rng import make_rng
from repro.workloads.random_db import random_unreliable_database
from tests.cost_tables import TableModel

SAFE = "exists x. exists y. E(x, y) & S(y)"
UNSAFE = "exists x. exists y. E(x, y) & S(x) & S(y)"


def _db():
    return random_unreliable_database(
        make_rng(5), size=4, relations={"E": 2, "S": 1}, density=0.5
    )


def _table_model():
    """Priced for every engine, cheapest first: planning never reorders
    the chain."""
    return TableModel(dict(zip(DEFAULT_CHAIN, (1e-4, 1e-3, 1e-2, 1e-1))))


@pytest.mark.parametrize("with_model", [True, False], ids=["walk", "walk-no_model"])
def test_forecast_has_no_side_effects(with_model):
    db = _db()
    budget = Budget(max_atoms=2, max_samples=200_000, max_ground_clauses=10_000)
    model = _table_model() if with_model else None
    sink = obs.ListSink()
    with obs.use(obs.StatsRecorder(sink=sink)) as recorder:
        plan = plan_chain(db, UNSAFE, budget=budget, cost_model=model)
    assert plan.selected is not None
    counters = recorder.summary()["counters"]
    emitted = list(counters) + [
        str(record.get("name", "")) for record in sink.events
    ]
    assert not [
        name for name in emitted if name.startswith(("runtime.", "costmodel."))
    ]
    assert (budget.samples, budget.worlds, budget.ground_clauses) == (0, 0, 0)


def test_plain_run_never_computes_plan_features(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("plan_features on the lazy run path")

    monkeypatch.setattr(costmodel, "plan_features", refuse)
    assert not obs.enabled()
    result = run_with_fallback(_db(), UNSAFE, rng=0)
    assert 0.0 <= result.value <= 1.0


def test_run_classifies_the_query_once(monkeypatch):
    calls = []
    classify = safety.classify_dichotomy

    def counting(query):
        calls.append(query)
        return classify(query)

    monkeypatch.setattr(safety, "classify_dichotomy", counting)
    result = run_with_fallback(_db(), SAFE)
    assert result.engine == "safe_lifted"
    assert len(calls) == 1


def test_walk_forecast_charges_a_refused_engines_draws():
    # Karp–Luby draws for the first answer tuples, then refuses one; the
    # Monte Carlo that follows has only what is left of the cap, in the
    # forecast as in the run.  A fixed-budget run draws exactly what
    # the forecast charges, so the two agree outcome for outcome.
    db = random_unreliable_database(
        make_rng(0), size=3, relations={"E": 2, "S": 1}, density=0.5
    )
    query = FOQuery("exists y. E(x, y)", ["x"])
    cap = 16_256

    def budget():
        return Budget(max_atoms=2, max_samples=cap)

    plan = plan_chain(
        db, query, budget=budget(), epsilon=0.05, delta=0.3, adaptive=False
    )
    fates = {f.engine: f for f in plan.forecasts}
    assert fates["karp_luby"].outcome == "cost_refused"
    drawn = fates["karp_luby"].worst_samples
    assert cap - drawn < hoeffding_samples(0.05, 0.3) <= cap
    assert fates["montecarlo"].outcome == "cost_refused"
    with pytest.raises(FallbackExhausted) as exc:
        run_with_fallback(
            db, query, budget=budget(), epsilon=0.05, delta=0.3, rng=0,
            adaptive=False,
        )
    assert [(a.engine, a.outcome) for a in exc.value.attempts] == [
        (f.engine, f.outcome) for f in plan.forecasts
    ]


@pytest.mark.parametrize("seed", range(12))
def test_adaptive_run_never_selects_later_than_its_forecast(seed):
    # Under a sample cap the forecast charges each sampling attempt its
    # worst case and an adaptive run only what it draws: the run may
    # answer earlier in the chain than forecast, never later.
    rng = make_rng(seed)
    db = random_unreliable_database(
        rng, size=rng.randint(2, 4), relations={"E": 2, "S": 1},
        density=0.5,
    )
    text = rng.choice(["exists y. E(x, y)", "exists y. E(x, y) & S(y)"])
    query = FOQuery(text, ["x"])
    # A cap around Karp–Luby's worst-case total, where its forecast flips.
    uncapped = plan_chain(
        db, query, budget=Budget(max_atoms=2), epsilon=0.05, delta=0.3
    )
    (worst,) = [
        f.worst_samples for f in uncapped.forecasts if f.engine == "karp_luby"
    ]
    cap = rng.randint(worst // 2, worst + worst // 2)

    def budget():
        return Budget(max_atoms=2, max_samples=cap)

    plan = plan_chain(db, query, budget=budget(), epsilon=0.05, delta=0.3)
    chain = list(plan.chain)
    try:
        result = run_with_fallback(
            db, query, budget=budget(), epsilon=0.05, delta=0.3, rng=seed
        )
    except FallbackExhausted:
        assert plan.selected is None
        return
    if plan.selected is not None:
        assert chain.index(result.engine) <= chain.index(plan.selected)
