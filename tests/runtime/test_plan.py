"""The one plan behind run, analyze, race forecasts and serve admission.

Pins properties of :mod:`repro.runtime.plan` that the differential
harnesses do not: a forecast, walk or race, has no side effects, a
walk forecast charges a refused engine's draws to the engines after
it, a plain run stays lazy, and a run classifies its query exactly
once.
"""

import threading

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

SAFE = "exists x. exists y. E(x, y) & S(y)"
UNSAFE = "exists x. exists y. E(x, y) & S(x) & S(y)"


def _db():
    return random_unreliable_database(
        make_rng(5), size=4, relations={"E": 2, "S": 1}, density=0.5
    )


def _racer_threads():
    return {
        thread
        for thread in threading.enumerate()
        if thread.name.startswith("repro-vracer-")
    }


def _fitted_model():
    """Calibrated for every engine, cheapest first: forecasts never fall
    back to the closed form, and planning never reorders the chain."""
    features = {name: 1.0 for name in costmodel.FEATURE_NAMES}
    return costmodel.fit([
        costmodel.CostObservation(engine, scale * jitter, dict(features))
        for engine, scale in zip(DEFAULT_CHAIN, (1e-4, 1e-3, 1e-2, 1e-1))
        for jitter in (0.8, 1.0, 1.25)
    ])


@pytest.mark.parametrize(
    "race, fitted",
    [(None, True), (0.25, True), (None, False), (0.25, False)],
    ids=["walk", "race", "walk-no_model", "race-no_model"],
)
def test_race_forecast_has_no_side_effects(race, fitted):
    db = _db()
    budget = Budget(max_atoms=2, max_samples=200_000, max_ground_clauses=10_000)
    model = _fitted_model() if fitted else None
    before = _racer_threads()
    sink = obs.ListSink()
    with obs.use(obs.StatsRecorder(sink=sink)) as recorder:
        plan = plan_chain(db, UNSAFE, budget=budget, cost_model=model, race=race)
    assert plan.selected is not None
    if race is not None:
        assert plan.race is not None and len(plan.race.launch_order) >= 2
    counters = recorder.summary()["counters"]
    emitted = list(counters) + [
        str(record.get("name", "")) for record in sink.events
    ]
    assert not [
        name for name in emitted if name.startswith(("runtime.", "costmodel."))
    ]
    assert (budget.samples, budget.worlds, budget.ground_clauses) == (0, 0, 0)
    assert _racer_threads() <= before


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
    # forecast as in the run.
    db = random_unreliable_database(
        make_rng(0), size=3, relations={"E": 2, "S": 1}, density=0.5
    )
    query = FOQuery("exists y. E(x, y)", ["x"])
    cap = 16_256

    def budget():
        return Budget(max_atoms=2, max_samples=cap)

    plan = plan_chain(db, query, budget=budget(), epsilon=0.05, delta=0.3)
    fates = {f.engine: f for f in plan.forecasts}
    assert fates["karp_luby"].outcome == "cost_refused"
    drawn = fates["karp_luby"].worst_samples
    assert cap - drawn < hoeffding_samples(0.05, 0.3) <= cap
    assert fates["montecarlo"].outcome == "cost_refused"
    with pytest.raises(FallbackExhausted) as exc:
        run_with_fallback(
            db, query, budget=budget(), epsilon=0.05, delta=0.3, rng=0
        )
    assert [(a.engine, a.outcome) for a in exc.value.attempts] == [
        (f.engine, f.outcome) for f in plan.forecasts
    ]
