"""Admission control: forecasts, deadlines, and the degradation ladder.

Every request is assessed *before* it may queue, by forecasting the
same plan the executor would run (:func:`repro.runtime.costmodel.
plan_chain`, the forecast ``repro analyze`` prints) — admission and
execution share one validation, one cost model and one dichotomy
verdict, so a request the forecast refuses is a request the executor
would have refused.

The :class:`DegradationLadder` is the overload policy the paper's
guarantee tiers make principled: under pressure the server does not
fail requests, it *weakens their guarantee*.  As backlog depth grows,
new admissions are capped at ``relative`` and then ``additive`` tier —
their chains drop the expensive exact engines and go straight to the
samplers (Corollary 5.5 / Hoeffding).  The tier is fixed at admission:
a request never downgrades (or upgrades) mid-flight, so degradation is
monotone and observable per request; as the backlog drains, later
admissions recover stronger tiers automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.runtime import costmodel
from repro.runtime.budget import Budget
from repro.runtime.executor import GUARANTEE_RANK, engine_guarantee
from repro.util.errors import QueryError, ResourceError

from repro.serve import request as rq


@dataclass(frozen=True)
class DegradationLadder:
    """Backlog-depth thresholds for admission-time guarantee tiers.

    Depth below ``relative_at`` admits at full strength (``exact``);
    depth in ``[relative_at, additive_at)`` admits at ``relative``;
    depth at or above ``additive_at`` admits at ``additive``.  ``None``
    disables a rung.
    """

    relative_at: Optional[int] = 4
    additive_at: Optional[int] = 8

    def __post_init__(self):
        if (
            self.relative_at is not None
            and self.additive_at is not None
            and self.additive_at < self.relative_at
        ):
            raise ResourceError(
                "additive_at must be >= relative_at "
                f"({self.additive_at} < {self.relative_at})"
            )

    def tier_for_depth(self, depth: int) -> str:
        if self.additive_at is not None and depth >= self.additive_at:
            return "additive"
        if self.relative_at is not None and depth >= self.relative_at:
            return "relative"
        return "exact"


def tier_filter(
    chain: Tuple[str, ...], quantity: str, tier: str
) -> Tuple[str, ...]:
    """Engines of ``chain`` whose guarantee is no stronger than ``tier``.

    Degrading to ``additive`` drops the exact engines (the expensive
    ones — that is the load the ladder sheds).  A chain that cannot
    degrade (no engine at or below the tier) is returned unchanged:
    degradation must never turn a servable request into an unservable
    one, so such a request is simply served at its native strength.
    """
    floor = GUARANTEE_RANK[tier]
    filtered = tuple(
        engine
        for engine in chain
        if GUARANTEE_RANK[engine_guarantee(engine, quantity)] >= floor
    )
    return filtered if filtered else chain


@dataclass(frozen=True)
class AdmissionDecision:
    """The verdict on one arriving request.

    ``code`` is ``"admitted"`` or a rejection code from
    :mod:`repro.serve.request`; ``tier`` the admitted guarantee tier;
    ``chain`` the tier-filtered engine chain the run will walk;
    ``predicted_seconds`` the forecast cost of the selected engine.
    """

    code: str
    tier: str
    chain: Tuple[str, ...]
    detail: str = ""
    predicted_seconds: float = 0.0


ADMITTED = "admitted"


def assess(
    db,
    request: "rq.ServeRequest",
    chain: Tuple[str, ...],
    depth: int,
    ladder: DegradationLadder,
    budget: Budget,
    cost_model=None,
    adaptive: bool = False,
) -> AdmissionDecision:
    """Decide one request's admission against the current backlog depth.

    Order of checks: ladder tier for the depth, then the ``plan_chain``
    forecast of the tier-filtered chain under the request's own budget
    (no engine forecast ``ok`` → ``cost_refused``), then the selected
    engine's predicted seconds against the deadline, falling forward to
    the ``not_tried`` engines that fit (``deadline_unmeetable`` when
    none does).  Malformed queries surface as ``invalid``.  The
    caller's budget is never consumed — the forecast is read-only,
    exactly as ``repro analyze`` is.

    ``adaptive`` forwards to the ``plan_chain`` forecast: predicted
    seconds for the sampling engines then price the surrogate's
    expected early stopping, so a warm surrogate admits requests a
    worst-case forecast would refuse under the same deadline.
    """
    tier = ladder.tier_for_depth(depth)
    filtered = tier_filter(chain, request.quantity, tier)
    # The ladder sheds the expensive exact engines, but a statically
    # safe query's lifted plan is polynomial — cheaper than the
    # samplers a degraded tier falls back to.  The static tier is
    # planned along, and kept only when the plan's verdict is safe.
    keep_static = "safe_lifted" in chain and "safe_lifted" not in filtered
    try:
        plan = costmodel.plan_chain(
            db,
            request.resolved_query(),
            chain=("safe_lifted",) + filtered if keep_static else filtered,
            budget=budget,
            quantity=request.quantity,
            epsilon=request.epsilon,
            delta=request.delta,
            cost_model=cost_model,
            adaptive=adaptive,
        )
    except QueryError as exc:
        return AdmissionDecision(rq.INVALID, tier, filtered, str(exc))
    forecasts = plan.forecasts
    if keep_static and plan.dichotomy.safe:
        filtered = ("safe_lifted",) + filtered
    elif keep_static:
        forecasts = tuple(f for f in forecasts if f.engine != "safe_lifted")
    planned = tuple(f.engine for f in forecasts)
    if plan.selected is None:
        reasons = "; ".join(
            f"{f.engine}: {f.detail or f.outcome}" for f in forecasts
        )
        return AdmissionDecision(
            rq.COST_REFUSED, tier, filtered, f"no engine admissible ({reasons})"
        )
    forecast = {f.engine: f.predicted_seconds for f in forecasts}
    predicted = forecast[plan.selected]
    remaining = budget.remaining_time()
    if remaining is None or predicted <= remaining:
        return AdmissionDecision(ADMITTED, tier, planned, "", predicted)
    # The preferred engine cannot finish in time.  Before refusing,
    # fall forward through the plan: admit on the engines the forecast
    # leaves runnable (``not_tried``) whose own forecasts fit the
    # deadline (deadline pressure is just another degradation axis —
    # serve a weaker answer rather than none).
    fitting = tuple(
        f.engine for f in forecasts
        if f.outcome == "not_tried" and f.predicted_seconds <= remaining
    )
    if fitting:
        return AdmissionDecision(
            ADMITTED, tier, fitting, "", forecast[fitting[0]]
        )
    return AdmissionDecision(
        rq.DEADLINE_UNMEETABLE,
        tier,
        filtered,
        f"engine {plan.selected!r} forecast {predicted:.3g}s exceeds "
        f"the {remaining:.3g}s deadline, and no cheaper engine fits",
        predicted,
    )
