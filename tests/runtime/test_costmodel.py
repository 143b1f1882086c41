"""Cost-model unit tests: features, the closed-form scorer, ordering."""

import math
import random

from repro import obs
from repro.logic.evaluator import FOQuery
from repro.obs.recorder import StatsRecorder
from repro.obs.sink import ListSink
from repro.runtime.budget import Budget
from repro.runtime.costmodel import (
    CLOSED_FORM_UNIT_SECONDS,
    FEATURE_NAMES,
    CostModel,
    engine_guarantee,
    plan_chain,
    plan_features,
    static_cost,
)
from repro.runtime.executor import DEFAULT_CHAIN, run_with_fallback
from repro.workloads.random_db import random_unreliable_database
from tests.cost_tables import TableModel

EXISTENTIAL = "exists x. exists y. E(x, y) & S(y)"


def small_db(seed=7, size=4):
    return random_unreliable_database(
        random.Random(seed), size=size, relations={"E": 2, "S": 1}, density=0.4
    )


class TestPlanFeatures:
    def test_features_are_finite_floats(self):
        db = small_db()
        features = plan_features(db, FOQuery(EXISTENTIAL))
        assert set(features) == set(FEATURE_NAMES)
        for value in features.values():
            assert isinstance(value, float) and math.isfinite(value)

    def test_nonexistential_query_gets_zero_clauses(self):
        db = small_db()
        features = plan_features(db, FOQuery("forall x. exists y. E(x, y)"))
        # forall-exists prefix: outside the Theorem 5.4 grounding fragment.
        assert features["clauses"] == 0.0

    def test_kary_query_prices_cells(self):
        db = small_db(size=5)
        features = plan_features(db, FOQuery("exists y. E(x, y)", ["x"]))
        assert features["cells"] == 5.0

    def test_features_never_raise_on_opaque_queries(self):
        db = small_db()

        class Opaque:
            arity = 0

            def evaluate(self, structure, args):
                return True

            def answers(self, structure):
                return {()}

        features = plan_features(db, Opaque())
        assert features["clauses"] == 0.0

    def test_executor_emits_attempt_cost_events(self):
        db = small_db()
        sink = ListSink()
        with obs.use(StatsRecorder(sink=sink)):
            run_with_fallback(db, EXISTENTIAL, rng=3)
        events = sink.by_name("runtime.attempt.cost")
        assert events, "executor should trace attempt costs when recording"
        fields = events[-1]["fields"]
        assert fields["outcome"] == "ok"
        assert set(FEATURE_NAMES) <= set(fields)


class TestGuaranteeTiers:
    def test_karp_luby_tier_depends_on_quantity(self):
        assert engine_guarantee("karp_luby", "probability") == "relative"
        assert engine_guarantee("karp_luby", "reliability") == "additive"

    def test_exact_engines_share_the_exact_tier(self):
        assert engine_guarantee("exact") == "exact"
        assert engine_guarantee("lifted") == "exact"
        assert engine_guarantee("montecarlo") == "additive"


class TestClosedForm:
    def test_model_prices_static_cost(self):
        features = plan_features(small_db(), FOQuery(EXISTENTIAL))
        model = CostModel()
        for engine in DEFAULT_CHAIN:
            assert model.predict_seconds(engine, features) == (
                static_cost(engine, features) * CLOSED_FORM_UNIT_SECONDS
            )


class TestOrderChain:
    def test_no_model_means_no_reordering(self):
        db = small_db()
        sink = ListSink()
        with obs.use(StatsRecorder(sink=sink)):
            result = run_with_fallback(db, EXISTENTIAL, rng=2)
        assert tuple(a.engine for a in result.attempts)[0] == "safe_lifted"

    def test_static_model_preserves_guarantee_tiers(self):
        db = random_unreliable_database(
            random.Random(0),
            size=6,
            relations={"E": 2, "S": 1},
            density=0.8,
        )
        assert len(db.uncertain_atoms()) > 20  # exact must be refused
        result = run_with_fallback(
            db, EXISTENTIAL, rng=1, cost_model=CostModel()
        )
        # The closed forms may swap engines *within* a tier (lifted's
        # polynomial beats exact's 2^atoms) but never across tiers:
        # every exact-tier attempt must precede every approximate one.
        tiers = [
            engine_guarantee(a.engine, "reliability") for a in result.attempts
        ]
        first_approx = next(
            (i for i, tier in enumerate(tiers) if tier != "exact"), len(tiers)
        )
        assert all(tier == "exact" for tier in tiers[:first_approx])
        assert all(tier != "exact" for tier in tiers[first_approx:])

    def test_order_chain_respects_tiers_with_adversarial_weights(self):
        model = TableModel({"exact": math.inf, "montecarlo": -1e300})
        features = {name: 1.0 for name in FEATURE_NAMES}
        ordered = model.order_chain(DEFAULT_CHAIN, features, "reliability")
        tiers = [engine_guarantee(name, "reliability") for name in ordered]
        assert tiers == ["exact", "exact", "additive", "additive"]
        assert sorted(ordered) == sorted(DEFAULT_CHAIN)

    def test_calibrated_model_reorders_within_additive_tier(self):
        # montecarlo priced far below karp_luby: it must move ahead of
        # karp_luby, but never ahead of the exact tier.
        features = {name: 1.0 for name in FEATURE_NAMES}
        model = TableModel({"montecarlo": 0.001, "karp_luby": 1.0})
        ordered = model.order_chain(DEFAULT_CHAIN, features, "reliability")
        assert ordered == ("safe_lifted", "exact", "montecarlo", "karp_luby")
        # On probabilities Karp-Luby is *relative*: a stronger tier than
        # montecarlo's additive, so the swap is forbidden.
        ordered = model.order_chain(DEFAULT_CHAIN, features, "probability")
        assert ordered == DEFAULT_CHAIN

    def test_executor_uses_calibrated_order(self):
        db = small_db()
        # Engine i of the default chain costs i seconds.
        model = TableModel(
            {engine: float(i) for i, engine in enumerate(DEFAULT_CHAIN, 1)}
        )
        features = plan_features(db, FOQuery(EXISTENTIAL))
        ordered = model.order_chain(DEFAULT_CHAIN, features, "reliability")
        result = run_with_fallback(db, EXISTENTIAL, rng=5, cost_model=model)
        assert tuple(a.engine for a in result.attempts) == ordered[: len(
            result.attempts
        )]


class TestPlanChain:
    def test_plan_matches_run_on_default_budget(self):
        db = small_db()
        plan = plan_chain(db, FOQuery(EXISTENTIAL))
        result = run_with_fallback(db, EXISTENTIAL, rng=0)
        assert plan.selected == result.engine

    def test_plan_does_not_consume_the_budget(self):
        db = small_db()
        budget = Budget(max_samples=10**7)
        plan_chain(db, FOQuery(EXISTENTIAL), budget=budget)
        assert budget.samples == 0
        assert budget.ground_clauses == 0

    def test_plan_reports_not_tried_tail(self):
        db = small_db()
        plan = plan_chain(db, FOQuery(EXISTENTIAL))
        outcomes = [forecast.outcome for forecast in plan.forecasts]
        assert "ok" in outcomes
        selected_at = outcomes.index("ok")
        assert all(o == "not_tried" for o in outcomes[selected_at + 1 :])
        assert "exact" in plan.describe()

    def test_static_cost_covers_every_engine(self):
        features = {name: 2.0 for name in FEATURE_NAMES}
        for engine in DEFAULT_CHAIN:
            cost = static_cost(engine, features)
            assert math.isfinite(cost) and cost > 0
