"""One-call reliability analysis: dispatch, compute, explain.

:func:`analyze` is the library's concierge: given an unreliable database
and a query, it classifies the query, picks the strongest applicable
engine (exact where feasible, the right estimator otherwise), computes
the reliability, decides absolute reliability when cheap, and surfaces
the most fragile atoms — returning a structured
:class:`ReliabilityReport` that renders as a readable summary.

The dispatch mirrors the paper's complexity landscape:

=====================  ==========================================
query fragment          engine
=====================  ==========================================
quantifier-free         Proposition 3.1 exact (polynomial)
safe conjunctive        lifted safe-plan exact (polynomial)
existential/universal   grounded-DNF exact if small, else
                        Corollary 5.5 additive estimator
other (PTIME)           world enumeration if small, else
                        Theorem 5.12 xi-padding estimator
=====================  ==========================================
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, List, Optional, Tuple, Union

from repro.logic.classify import classify, is_existential, is_universal
from repro.logic.evaluator import FOQuery
from repro.reliability.absolute import is_absolutely_reliable
from repro.reliability.approx import reliability_additive
from repro.reliability.exact import as_query, reliability
from repro.reliability.grounding import relevant_atoms
from repro.reliability.influence import most_fragile_atoms
from repro.reliability.padding import padded_reliability
from repro.reliability.unreliable import UnreliableDatabase
from repro.util.errors import QueryError

logger = logging.getLogger(__name__)

# Above this many relevant uncertain atoms, exact world enumeration is
# off the table and we switch to estimators.
EXACT_WORLD_LIMIT = 18
# Above this many relevant uncertain atoms, the grounded DNF's ROBDD
# is considered risky for interactive use.
EXACT_DNF_LIMIT = 48


@dataclass
class ReliabilityReport:
    """Structured result of :func:`analyze`.

    ``recommended_engine``/``recommended_chain`` come from the forecast
    (:func:`repro.runtime.costmodel.plan_chain`) of the plan ``repro
    run`` would execute under the same budget and cost model, so the
    recommendation names the engine a ``run`` of the same request would
    actually answer with (``None`` when the whole chain would be
    refused).  ``plan`` is the full :class:`~repro.runtime.plan.ChainPlan`
    with per-engine forecasts and predicted seconds.
    """

    fragment: str
    engine: str
    value: float
    exact: Optional[Fraction]
    epsilon: Optional[float]
    delta: Optional[float]
    samples: int
    absolutely_reliable: Optional[bool]
    fragile_atoms: List[Tuple[Any, float]] = field(default_factory=list)
    recommended_engine: Optional[str] = None
    recommended_chain: Tuple[str, ...] = ()
    plan: Optional[Any] = None
    #: The static Dalvi-Suciu dichotomy verdict
    #: (:class:`~repro.logic.safety.SafeVerdict` with the hierarchy
    #: plan, or :class:`~repro.logic.safety.UnsafeVerdict` carrying the
    #: #P-hardness witness) — the same object the executor's router
    #: consulted, forwarded from ``plan.dichotomy``.
    dichotomy: Optional[Any] = None

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    def explain_dichotomy(self) -> str:
        """Multi-line rendering of the static dichotomy verdict."""
        if self.dichotomy is None:
            return "dichotomy: (not classified)"
        return self.dichotomy.explain()

    def render(self) -> str:
        lines = [
            f"fragment:  {self.fragment}",
            f"engine:    {self.engine}",
        ]
        if self.is_exact:
            lines.append(f"reliability = {self.exact} ({self.value:.6f}) [exact]")
        else:
            lines.append(
                f"reliability ~ {self.value:.6f} "
                f"(+/- {self.epsilon} with prob >= {1 - self.delta}; "
                f"{self.samples} samples)"
            )
        if self.absolutely_reliable is not None:
            lines.append(f"absolutely reliable: {self.absolutely_reliable}")
        if self.fragile_atoms:
            lines.append("most fragile atoms:")
            for atom, score in self.fragile_atoms:
                lines.append(f"  {atom}  (score {score:.4f})")
        if self.recommended_chain:
            recommended = self.recommended_engine or "(chain exhausted)"
            lines.append(
                f"run would select: {recommended} "
                f"(chain: {' > '.join(self.recommended_chain)})"
            )
            if self.plan is not None:
                lines.append(self.plan.describe())
        return "\n".join(lines)


def analyze(
    db: UnreliableDatabase,
    query: Any,
    rng: Optional[random.Random] = None,
    epsilon: float = 0.05,
    delta: float = 0.05,
    fragile_limit: int = 3,
    chain: Optional[Any] = None,
    budget: Optional[Any] = None,
    cost_model: Optional[Any] = None,
    race: Optional[Any] = None,
    adaptive: Optional[Any] = None,
) -> ReliabilityReport:
    """Classify, dispatch, compute — the one-call entry point.

    ``rng`` is only needed when an estimator ends up being used; omitting
    it forces exact computation and raises :class:`QueryError` when no
    exact engine is feasible within the interactive limits.

    The report additionally carries a budget-aware *recommendation*:
    the engine :func:`repro.runtime.run_with_fallback` would select for
    the same request, forecast under ``budget`` (the active budget by
    default), ``chain`` (the default chain by default) and
    ``cost_model`` (a :class:`~repro.runtime.costmodel.CostModel`, a
    calibration-file path, or the active model) — so advice and
    execution cannot drift apart.  ``race`` (``True`` or an overlap
    fraction) makes the recommendation forecast the speculative race
    a ``run --race`` of the same request would hold: the recommended
    engine is then the predicted race *winner* and ``report.plan.race``
    carries the full :class:`~repro.runtime.plan.RaceForecast`.
    ``adaptive`` makes the recommendation price the sequential
    empirical-Bernstein stopper a ``run --adaptive`` would use: the
    plan's sampling-engine forecasts then show expected versus
    worst-case sample counts and surrogate-adjusted seconds.
    """
    from repro.runtime.costmodel import plan_chain

    query = as_query(query)
    plan = plan_chain(
        db,
        query,
        chain=chain,
        budget=budget,
        quantity="reliability",
        epsilon=epsilon,
        delta=delta,
        cost_model=cost_model,
        race=race,
        adaptive=adaptive,
    )
    formula = query.formula if isinstance(query, FOQuery) else None
    relevant = relevant_atoms(db, query)
    fragment = classify(formula) if formula is not None else "opaque (PTIME)"

    engine: str
    exact_value: Optional[Fraction] = None
    epsilon_out: Optional[float] = None
    delta_out: Optional[float] = None
    samples = 0

    if formula is not None and fragment == "quantifier-free":
        engine = "exact/qf (Prop 3.1)"
        exact_value = reliability(db, query, method="qf")
    elif fragment == "conjunctive" and plan.dichotomy.safe:
        engine = "exact/lifted (safe plan)"
        exact_value = reliability(db, query)
    elif formula is not None and (
        is_existential(formula) or is_universal(formula)
    ):
        if len(relevant) <= EXACT_DNF_LIMIT:
            engine = "exact/grounded-DNF (Thm 5.4 grounding)"
            exact_value = reliability(db, query)
        else:
            if rng is None:
                raise QueryError(
                    f"{len(relevant)} relevant uncertain atoms: exact "
                    "grounding is risky; pass an rng to allow estimation"
                )
            engine = "estimate/Karp-Luby (Cor 5.5)"
            estimate = reliability_additive(db, query, epsilon, delta, rng)
            value = estimate.value
            epsilon_out, delta_out = epsilon, delta
            samples = estimate.samples
    else:
        if len(relevant) <= EXACT_WORLD_LIMIT:
            engine = "exact/world-enumeration (Thm 4.2)"
            exact_value = reliability(db, query, method="worlds")
        else:
            if rng is None:
                raise QueryError(
                    f"{len(relevant)} relevant uncertain atoms: world "
                    "enumeration infeasible; pass an rng to allow estimation"
                )
            engine = "estimate/xi-padding (Thm 5.12)"
            estimate = padded_reliability(db, query, epsilon, delta, rng)
            value = estimate.value
            epsilon_out, delta_out = epsilon, delta
            samples = estimate.samples

    if exact_value is not None:
        value = float(exact_value)

    absolute: Optional[bool] = None
    if exact_value is not None:
        absolute = exact_value == 1

    fragile: List[Tuple[Any, float]] = []
    if (
        formula is not None
        and query.arity == 0
        and (is_existential(formula) or is_universal(formula))
        and len(relevant) <= EXACT_DNF_LIMIT
    ):
        try:
            fragile = [
                (atom, float(score))
                for atom, score in most_fragile_atoms(
                    db, formula, limit=fragile_limit
                )
            ]
        except QueryError as exc:
            # Fragile-atom ranking is best-effort decoration; keep the
            # report but leave an attributable record of the failure.
            logger.warning("fragile-atom analysis skipped: %s", exc)
            fragile = []

    return ReliabilityReport(
        fragment=fragment,
        engine=engine,
        value=value,
        exact=exact_value,
        epsilon=epsilon_out,
        delta=delta_out,
        samples=samples,
        absolutely_reliable=absolute,
        fragile_atoms=fragile,
        recommended_engine=plan.selected,
        recommended_chain=plan.chain,
        plan=plan,
        dichotomy=plan.dichotomy,
    )
