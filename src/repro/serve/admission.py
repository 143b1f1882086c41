"""Admission control: forecasts, deadlines, and the degradation ladder.

Every request is planned once, here, *before* it may queue: admission
builds its :class:`~repro.runtime.plan.Plan` and forecasts it with
:func:`repro.runtime.plan.forecast` (the forecast ``repro analyze``
prints), and the worker runs that same plan, narrowed to the admitted
chain — so a request the forecast refuses is a request the executor
would have refused, by construction.  A server's :class:`PlanCache`
keeps the static half of its hot plans (the parsed query, its
dichotomy verdict and its cost features); the cost model, the chain
order and the forecast against the request's own budget are decided
per request.

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

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Mapping, NamedTuple, Optional, Tuple

from repro.runtime import plan as planner
from repro.runtime.budget import Budget
from repro.runtime.executor import GUARANTEE_RANK, engine_guarantee
from repro.util.errors import QueryError, ResourceError

from repro.serve import metrics
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
    ``predicted_seconds`` the forecast cost of the selected engine;
    ``plan`` the plan the worker runs (an admitted request's only one),
    its chain narrowed to ``chain``.
    """

    code: str
    tier: str
    chain: Tuple[str, ...]
    detail: str = ""
    predicted_seconds: float = 0.0
    plan: Optional[planner.Plan] = None


ADMITTED = "admitted"

#: Static plan halves one :class:`PlanCache` holds at most.
PLAN_CACHE_SIZE = 256


class _StaticHalf(NamedTuple):
    query: Any
    verdict: Any
    features: Mapping[str, float]


class PlanCache:
    """The static half of a server's hot plans, least recently used out.

    Keyed by ``(query text, free, quantity, epsilon, delta, chain,
    adaptive)`` over the server's fixed database; holds the parsed
    query, its dichotomy verdict and its cost features — never a cost
    model or surrogate, so the model active at each request still
    orders that request's chain.  At most :data:`PLAN_CACHE_SIZE`
    entries; a request whose query is not text is planned uncached.
    """

    def __init__(self):
        self._entries: "OrderedDict[tuple, _StaticHalf]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def plan(self, db, request, chain, cost_model, adaptive) -> planner.Plan:
        """The forecast-ready plan of ``request`` over ``chain``."""
        if not isinstance(request.query, str):
            return _plan(db, request, chain, cost_model, adaptive)
        free = tuple(request.free) if request.free else None
        key = (
            request.query, free, request.quantity, request.epsilon,
            request.delta, chain, adaptive,
        )
        static = self._entries.get(key)
        if static is not None:
            metrics.count(metrics.PLAN_CACHE_HITS)
            self._entries.move_to_end(key)
            return _plan(db, request, chain, cost_model, adaptive, static)
        metrics.count(metrics.PLAN_CACHE_MISSES)
        plan = _plan(db, request, chain, cost_model, adaptive)
        self._entries[key] = _StaticHalf(
            plan.query, plan.verdict, plan.features
        )
        while len(self._entries) > PLAN_CACHE_SIZE:
            self._entries.popitem(last=False)
        return plan


def _plan(
    db, request, chain, cost_model, adaptive,
    static: Optional[_StaticHalf] = None,
) -> planner.Plan:
    if static is None:
        static = _StaticHalf(request.resolved_query(), None, None)
    return planner.make_plan(
        db, static.query, chain, request.quantity, request.epsilon,
        request.delta, cost_model, adaptive=adaptive, forecast=True,
        features=static.features, verdict=static.verdict,
    )


def assess(
    db,
    request: "rq.ServeRequest",
    chain: Tuple[str, ...],
    depth: int,
    ladder: DegradationLadder,
    budget: Budget,
    cost_model=None,
    adaptive: bool = True,
    plans: Optional[PlanCache] = None,
) -> AdmissionDecision:
    """Decide one request's admission against the current backlog depth.

    Order of checks: ladder tier for the depth, then the forecast of
    the tier-filtered chain's plan under the request's own budget
    (no engine forecast ``ok`` → ``cost_refused``), then the selected
    engine's predicted seconds against the deadline, falling forward to
    the ``not_tried`` engines that fit (``deadline_unmeetable`` when
    none does).  Malformed queries surface as ``invalid``.  The
    caller's budget is never consumed — the forecast is read-only,
    exactly as ``repro analyze`` is.  An admitted decision carries the
    plan to run; ``plans`` supplies its static half when the server
    keeps one.

    ``adaptive`` plans the surrogate's expected early stopping:
    predicted seconds for the sampling engines then price it, so a warm
    surrogate admits requests a worst-case forecast would refuse under
    the same deadline.
    """
    tier = ladder.tier_for_depth(depth)
    filtered = tier_filter(chain, request.quantity, tier)
    # The ladder sheds the expensive exact engines, but a statically
    # safe query's lifted plan is polynomial — cheaper than the
    # samplers a degraded tier falls back to.  The static tier is
    # planned along, and kept only when the plan's verdict is safe.
    keep_static = "safe_lifted" in chain and "safe_lifted" not in filtered
    planned_chain = ("safe_lifted",) + filtered if keep_static else filtered
    try:
        if plans is None:
            plan = _plan(db, request, planned_chain, cost_model, adaptive)
        else:
            plan = plans.plan(db, request, planned_chain, cost_model, adaptive)
    except QueryError as exc:
        return AdmissionDecision(rq.INVALID, tier, filtered, str(exc))
    walk = planner.forecast(plan, budget)
    forecasts = walk.forecasts
    if keep_static and plan.verdict.safe:
        filtered = ("safe_lifted",) + filtered
    elif keep_static:
        forecasts = tuple(f for f in forecasts if f.engine != "safe_lifted")
    planned = tuple(f.engine for f in forecasts)
    if walk.selected is None:
        reasons = "; ".join(
            f"{f.engine}: {f.detail or f.outcome}" for f in forecasts
        )
        return AdmissionDecision(
            rq.COST_REFUSED, tier, filtered, f"no engine admissible ({reasons})"
        )
    forecast = {f.engine: f.predicted_seconds for f in forecasts}
    predicted = forecast[walk.selected]
    remaining = budget.remaining_time()
    if remaining is None or predicted <= remaining:
        return AdmissionDecision(
            ADMITTED, tier, planned, "", predicted,
            replace(plan, chain=planned),
        )
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
            ADMITTED, tier, fitting, "", forecast[fitting[0]],
            replace(plan, chain=fitting),
        )
    return AdmissionDecision(
        rq.DEADLINE_UNMEETABLE,
        tier,
        filtered,
        f"engine {walk.selected!r} forecast {predicted:.3g}s exceeds "
        f"the {remaining:.3g}s deadline, and no cheaper engine fits",
        predicted,
    )
