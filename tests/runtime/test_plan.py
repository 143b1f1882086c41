"""The one plan behind run, analyze, race forecasts and serve admission.

Pins properties of :mod:`repro.runtime.plan` that the differential
harnesses do not: the race forecast has no side effects, a plain run
stays lazy, and a run classifies its query exactly once.
"""

import threading

from repro import obs
from repro.logic import safety
from repro.runtime import costmodel
from repro.runtime.budget import Budget
from repro.runtime.costmodel import plan_chain
from repro.runtime.executor import run_with_fallback
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


def test_race_forecast_has_no_side_effects():
    db = _db()
    budget = Budget(max_atoms=2, max_samples=200_000, max_ground_clauses=10_000)
    before = _racer_threads()
    sink = obs.ListSink()
    with obs.use(obs.StatsRecorder(sink=sink)) as recorder:
        plan = plan_chain(db, UNSAFE, budget=budget, race=0.25)
    assert plan.race is not None and len(plan.race.launch_order) >= 2
    counters = recorder.summary()["counters"]
    assert not [name for name in counters if name.startswith("runtime.")]
    assert not [
        record for record in sink.events
        if str(record.get("name", "")).startswith("runtime.")
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
