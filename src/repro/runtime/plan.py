"""One plan per call: the engine decisions of a request, made once.

:func:`make_plan` validates the arguments of
:func:`~repro.runtime.executor.run_with_fallback` and
:func:`~repro.runtime.costmodel.plan_chain` and decides, before any
engine runs, the cost model (wrapped by the adaptive surrogate), the
cost-ordered chain and the static Dalvi–Suciu verdict.  The executor
runs the :class:`Plan`; :func:`forecast` predicts its walk or race for
``repro analyze``, ``run --race`` forecasts and serve admission.

Each engine has one forecast function (:meth:`Plan.forecast`): its
fragment check plus the refusal arithmetic of
:mod:`repro.runtime.preflight`.  The race driver reserves samples with
it, and :func:`forecast` runs the executor's own walk or race with
stub engines that replay it, so the order, skips, fair shares and
exhaustion it predicts are the executor's by construction.

Under ``max_atoms`` / ``max_samples`` caps a forecast is exact: the
selected engine is the engine the run answers with, as long as each
forecast function predicts its engine's preflight (the differential
harness checks this).  Deadlines are racy and running world/clause
caps depend on cache state, so those can diverge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.logic import safety
from repro.logic.evaluator import FOQuery
from repro.logic.normalform import dnf_clauses, existential_parts
from repro.propositional.karp_luby import sample_count
from repro.reliability.approx import karp_luby_target
from repro.reliability.exact import as_query
from repro.reliability.grounding import (
    ground_answers,
    ground_existential_to_dnf,
    relevant_atoms,
)
from repro.reliability.montecarlo import hoeffding_samples
from repro.runtime import costmodel, executor, racing
from repro.runtime.budget import Budget, active_budget, apply, checkpoint
from repro.runtime.preflight import (
    grounding_refusal,
    samples_refusal,
    worlds_refusal,
)
from repro.util.errors import (
    CostRefused,
    FallbackExhausted,
    QueryError,
    ResourceError,
)

__all__ = [
    "Plan",
    "make_plan",
    "race_overlap",
    "forecast",
    "EngineForecast",
    "RaceForecast",
    "ChainPlan",
]

#: A forecast: ``(outcome, detail, samples the attempt would draw)``.
Forecast = Tuple[str, str, int]

_OK: Forecast = ("ok", "", 0)


@dataclass(frozen=True)
class Plan:
    """The validated inputs and static decisions of one call.

    ``chain`` is ordered by ``model`` within guarantee tiers (as given
    without a model).  ``verdict`` is the dichotomy verdict, set
    whenever a decision reads it: a statically gated engine in the
    chain, a race, or a forecast.  ``features`` are the cost-model
    features, set when a model, a recorder or a forecast reads them —
    a plain run with neither computes nothing it does not use.
    """

    db: Any
    query: Any
    quantity: str
    epsilon: float
    delta: float
    chain: Tuple[str, ...]
    model: Optional[costmodel.CostModel]
    features: Optional[Mapping[str, float]]
    verdict: Any
    overlap: Optional[float]
    adaptive: bool

    def forecast(self, name: str, budget, samples_used: int = 0) -> Forecast:
        """Engine ``name``'s predicted fate under ``budget``, after
        earlier attempts drew ``samples_used``; the returned sample
        count is this attempt's own draw (a racer's reservation)."""
        return _FORECASTS[name](self, budget, samples_used)


def make_plan(
    db,
    query,
    chain: Sequence[str],
    quantity: str,
    epsilon: float,
    delta: float,
    cost_model=None,
    race=None,
    adaptive=None,
    forecast: bool = False,
    features: Optional[Mapping[str, float]] = None,
    verdict: Any = None,
) -> Plan:
    """Validate one call's inputs and make its static decisions.

    ``forecast`` marks a plan built to be forecast: it always carries
    features and a verdict.  ``features`` and ``verdict`` are the
    static half of an earlier plan of the same ``(db, query, quantity,
    epsilon, delta)``, which a caller that keeps them (a serve
    :class:`~repro.serve.admission.PlanCache`) passes back instead of
    having them recomputed; the model and the chain order are still
    decided here, per call.
    """
    executor.check_quantity(quantity)
    if not chain:
        raise ResourceError("engine chain is empty")
    chain = tuple(chain)
    unknown = [name for name in chain if name not in executor.ENGINES]
    if unknown:
        raise ResourceError(
            f"unknown engines {unknown}; available: {sorted(executor.ENGINES)}"
        )
    query = as_query(query)
    if quantity == "probability" and getattr(query, "arity", 0) != 0:
        raise QueryError(
            "quantity='probability' needs a Boolean (0-ary) query; "
            "use quantity='reliability' for k-ary queries"
        )
    overlap = race_overlap(race)
    model = costmodel.resolve_model(cost_model)
    adaptive = bool(adaptive)
    if adaptive and model is not None:
        from repro.runtime.adaptive import surrogate_adjusted

        model = surrogate_adjusted(model)
    if features is None and (forecast or model is not None or obs.enabled()):
        features = costmodel.plan_features(db, query, quantity, epsilon, delta)
    if model is not None:
        chain = model.order_chain(chain, features, quantity)
    if verdict is None and (
        forecast
        or overlap is not None
        or any(name in executor.STATIC_SAFE_ENGINES for name in chain)
    ):
        verdict = safety.classify_dichotomy(query)
    return Plan(
        db, query, quantity, epsilon, delta, chain, model, features,
        verdict, overlap, adaptive,
    )


def race_overlap(race) -> Optional[float]:
    """The stagger fraction a ``race`` argument asks for (``None``: walk)."""
    if race is None or race is False:
        return None
    overlap = racing.DEFAULT_OVERLAP if race is True else float(race)
    if not (overlap >= 0.0 and math.isfinite(overlap)):
        raise ResourceError(
            f"race overlap must be a finite fraction >= 0, got {race!r}"
        )
    return overlap


# ---------------------------------------------------------------------- #
# per-engine forecasts
# ---------------------------------------------------------------------- #


def _refused(refusal: Optional[CostRefused], samples: int = 0):
    return None if refusal is None else ("cost_refused", str(refusal), samples)


def _left(budget, used: int) -> Optional[int]:
    """The samples ``budget`` has left once ``used`` more are drawn."""
    remaining = budget.remaining_samples()
    return None if remaining is None else max(0, remaining - used)


def _forecast_exact(plan: Plan, budget, samples_used: int) -> Forecast:
    atoms = (
        len(relevant_atoms(plan.db, plan.query))
        if plan.features is None
        else int(plan.features["atoms"])
    )
    return _refused(worlds_refusal(atoms, budget)) or _OK


def _forecast_karp_luby(plan: Plan, budget, samples_used: int) -> Forecast:
    """The grounding preflight, then the sample preflight per target.

    Grounding done to predict a run runs under an uncapped budget, so
    the caller's clause allowance is untouched; the compiled grounding
    (a k-ary query's lineage table) is cached, and the real run reuses
    it rather than paying twice.
    """
    db = plan.db
    consumed = 0
    try:
        if not isinstance(plan.query, FOQuery):
            raise QueryError("karp_luby engine requires a first-order query")
        cells, target = karp_luby_target(db, plan.query, plan.quantity)
        per_delta = plan.delta / cells
        if budget.max_ground_clauses is not None:
            # Every answer tuple's target has the open target's shape.
            variables, matrix = existential_parts(target)
            refusal = grounding_refusal(
                db.universe_size, len(variables), len(dnf_clauses(matrix)),
                budget,
            )
            if refusal is not None:
                return _refused(refusal)
        with apply(Budget(max_atoms=None)):
            if plan.quantity == "reliability":
                dnfs = ground_answers(db, plan.query).dnfs.values()
            else:
                dnfs = (ground_existential_to_dnf(db, target).dnf,)
        for dnf in dnfs:
            if dnf.is_true() or dnf.is_false():
                continue
            needed = sample_count(len(dnf.clauses), plan.epsilon, per_delta)
            refusal = samples_refusal(
                needed, _left(budget, samples_used + consumed)
            )
            if refusal is not None:
                return _refused(refusal, consumed)
            consumed += needed
    except QueryError as exc:
        return "fragment_mismatch", str(exc), consumed
    return "ok", "", consumed


def _forecast_montecarlo(plan: Plan, budget, samples_used: int) -> Forecast:
    if plan.quantity == "reliability":
        arity = int(getattr(plan.query, "arity", 0))
        if plan.db.universe_size**arity == 0:
            return (
                "fragment_mismatch",
                "reliability undefined on an empty universe",
                0,
            )
    needed = hoeffding_samples(plan.epsilon, plan.delta)
    refusal = samples_refusal(needed, _left(budget, samples_used))
    return _refused(refusal) or ("ok", "", needed)


def _forecast_ok(plan: Plan, budget, samples_used: int) -> Forecast:
    """The lifted engines: the static router skips them on an unsafe
    verdict before any forecast runs, and a safe verdict admits them."""
    return _OK


_FORECASTS = {
    "safe_lifted": _forecast_ok,
    "exact": _forecast_exact,
    "lifted": _forecast_ok,
    "karp_luby": _forecast_karp_luby,
    "montecarlo": _forecast_montecarlo,
}


# ---------------------------------------------------------------------- #
# the forecast of a whole plan
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class EngineForecast:
    """One engine's predicted fate in a chain walk."""

    engine: str
    guarantee: str
    #: "ok" | "cost_refused" | "fragment_mismatch" | "skipped_static"
    #: (the dichotomy router excludes the engine statically) |
    #: "not_tried"
    outcome: str
    predicted_seconds: float
    detail: str = ""
    #: Sampling engines only, under ``plan_chain(..., adaptive=True)``:
    #: the surrogate's expected draw count versus the worst-case bound
    #: the preflight reserves.  ``None`` elsewhere.
    expected_samples: Optional[int] = None
    worst_samples: Optional[int] = None


@dataclass(frozen=True)
class RaceForecast:
    """The forecast race: who launches when, who wins, who is wasted.

    Produced by ``plan_chain(..., race=...)``, which races the plan
    through :func:`repro.runtime.executor.execute` on a virtual clock
    over the model's predicted per-engine seconds.  ``outcomes`` maps every
    engine in the chain to its predicted fate: ``"won"``,
    ``"preempted"``, ``"cancelled"``, ``"not_launched"``,
    ``"skipped_static"`` (excluded by the dichotomy router before
    launch), or a failure outcome (``"cost_refused"``,
    ``"fragment_mismatch"``, ``"budget_exceeded"``).
    ``finish_seconds`` gives each launched engine's predicted completion
    time on the race clock; ``elapsed_seconds`` is the predicted race
    wall-clock (the winner's decision time).
    """

    winner: Optional[str]
    overlap: float
    launch_order: Tuple[str, ...]
    outcomes: Mapping[str, str]
    finish_seconds: Mapping[str, float]
    elapsed_seconds: float


@dataclass(frozen=True)
class ChainPlan:
    """The forecast walk: ordered chain, forecasts, selected engine.

    ``dichotomy`` carries the static Dalvi–Suciu verdict
    (:class:`repro.logic.safety.SafeVerdict` /
    :class:`~repro.logic.safety.UnsafeVerdict`) the router consulted:
    the #P-hardness witness of an unsafe query travels with its
    forecast, and ``analyze --explain-dichotomy`` renders it.
    """

    chain: Tuple[str, ...]
    selected: Optional[str]
    forecasts: Tuple[EngineForecast, ...]
    features: Mapping[str, float]
    race: Optional[RaceForecast] = None
    dichotomy: Optional[Any] = None

    def describe(self) -> str:
        lines = []
        for forecast in self.forecasts:
            mark = "->" if forecast.engine == self.selected else "  "
            line = (
                f"{mark} {forecast.engine}: {forecast.outcome} "
                f"[{forecast.guarantee}] "
                f"~{forecast.predicted_seconds:.3g}s"
            )
            if forecast.worst_samples is not None:
                expected = forecast.expected_samples
                if expected is not None and expected < forecast.worst_samples:
                    line += (
                        f" samples~{expected}/{forecast.worst_samples}"
                        " expected/worst"
                    )
                else:
                    line += f" samples<={forecast.worst_samples}"
            if forecast.detail:
                line += f" — {forecast.detail}"
            lines.append(line)
        if self.race is not None:
            lines.append(
                f"race (overlap={self.race.overlap:g}): "
                f"winner={self.race.winner or 'none'} "
                f"~{self.race.elapsed_seconds:.3g}s, "
                f"launched {', '.join(self.race.launch_order) or 'nothing'}"
            )
        if self.dichotomy is not None:
            lines.append(f"dichotomy: {self.dichotomy.summary()}")
        return "\n".join(lines)


def forecast(plan: Plan, budget) -> ChainPlan:
    """Predict ``plan``'s walk — or race — under ``budget``.

    Runs the executor's own dispatch,
    :func:`repro.runtime.executor.execute`, over a shadow of
    ``budget``'s caps and sample ledger, with stub engines that refuse
    as :meth:`Plan.forecast` predicts or answer.  A walk's stub takes no
    time and charges its draw to the shadow's ledger (the walk forecast
    is deadline-blind); a race's takes its predicted seconds on a
    :class:`~repro.runtime.faults.VirtualScheduler`, its racer's sample
    headroom doing the reserving.

    Read-only: no engine runs, ``budget``'s ledgers are not charged,
    and the executor reports to ``obs.NULL``.  Under ``plan.adaptive``
    the predicted seconds of the sampling engines price the surrogate's
    expected stopping, while the sample preflights stay worst-case —
    exactly what the run reserves — and sampling forecasts carry
    ``expected_samples``/``worst_samples``.
    """
    surrogate = None
    if plan.adaptive:
        from repro.runtime.adaptive import active_surrogate, surrogate_adjusted

        surrogate = active_surrogate()
    scorer = plan.model
    if scorer is None:
        # Display-side only: with no model there is no reordering to
        # keep in agreement, but forecasts (and serve admission's
        # deadline arithmetic) should still price expected stopping.
        scorer = costmodel.CostModel()
        if surrogate is not None:
            scorer = surrogate_adjusted(scorer, surrogate)
    predicted = {
        name: scorer.predict_seconds(name, plan.features) for name in plan.chain
    }
    race = plan.overlap is not None
    caps = (
        budget.max_worlds, budget.max_ground_clauses, budget.max_samples,
        budget.max_atoms,
    )
    scheduler = None
    if race:
        from repro.runtime.faults import VirtualScheduler

        scheduler = VirtualScheduler()
        shadow = Budget(budget.deadline_seconds, *caps, clock=scheduler.now)
    else:
        shadow = Budget(None, *caps)
    left = budget.remaining_samples()
    if left is not None:
        shadow.samples = shadow.max_samples - left
    samples: Dict[str, int] = {}
    finish: Dict[str, float] = {}

    def stub(db, query, request):
        name = request.engine
        view = active_budget() if race else shadow
        outcome, detail, spent = plan.forecast(name, view)
        samples[name] = spent
        try:
            if not race:
                view.consume(samples=spent)
            if outcome == "cost_refused":
                raise CostRefused(detail)
            if outcome != "ok":
                raise QueryError(detail)
            if race:
                racing.race_sleep(predicted[name])
                checkpoint()
        finally:
            if race:
                finish[name] = scheduler.now()
        guarantee = executor.engine_guarantee(name, plan.quantity)
        return executor._Answer(0.0, guarantee, None, None)

    try:
        result = executor.execute(
            plan, shadow.start(), 0, engines=dict.fromkeys(plan.chain, stub),
            emit=obs.NULL, scheduler=scheduler,
        )
        winner, attempts, elapsed = result.engine, result.attempts, result.elapsed
    except FallbackExhausted as exc:
        winner, attempts = None, exc.attempts
        elapsed = scheduler.now() if race else 0.0
    # One conversion of the attempt log for both modes.  An engine the
    # executor never reached is not_tried in a walk, not_launched in a
    # race; a statically skipped one is forecast at 0 s.
    log: Dict[str, list] = {}
    for attempt in attempts:
        log.setdefault(attempt.engine, []).append(attempt)
    forecasts = []
    for name in plan.chain:
        tier = executor.engine_guarantee(name, plan.quantity)
        tried = log.get(name)
        if not tried:
            unreached = "not_launched" if race else "not_tried"
            forecasts.append(EngineForecast(name, tier, unreached, predicted[name]))
            continue
        attempt = tried.pop(0)
        outcome = "won" if race and name == winner else attempt.outcome
        spent = samples.get(name, 0)
        expected: Optional[int] = None
        worst: Optional[int] = None
        if name in ("karp_luby", "montecarlo") and spent > 0:
            worst = spent
            if surrogate is not None:
                fraction = surrogate.expected_fraction(name)
                expected = max(1, math.ceil(spent * fraction))
        forecasts.append(
            EngineForecast(
                name, tier, outcome,
                0.0 if outcome == "skipped_static" else predicted[name],
                attempt.detail,
                expected_samples=expected,
                worst_samples=worst,
            )
        )
    race_forecast = None
    if race:
        race_forecast = RaceForecast(
            winner=winner,
            overlap=plan.overlap,
            launch_order=tuple(name for name in plan.chain if name in finish),
            outcomes={f.engine: f.outcome for f in forecasts},
            finish_seconds=finish,
            elapsed_seconds=elapsed,
        )
    return ChainPlan(
        plan.chain, winner, tuple(forecasts), plan.features,
        race=race_forecast, dichotomy=plan.verdict,
    )
