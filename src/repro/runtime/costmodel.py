"""The closed-form cost model of the fallback executor.

The executor's static chain (safe_lifted > exact > karp_luby >
montecarlo) orders engines by *guarantee strength*, and its preflights
refuse hopeless runs from worst-case closed forms.  The paper prices
each route the same way: Proposition 3.1 evaluates n^k constant-size
cells, Theorem 4.2 enumerates 2^atoms worlds, and Theorem 5.4 /
Corollary 5.5 fix the sample counts.  This module turns those shapes
into one scorer:

* :func:`plan_features` — cheap, closed-form features of a (db, query,
  epsilon, delta) plan: relevant-atom count, domain size, answer cells,
  predicted grounded clauses, and the two estimators' sample counts.
* :func:`static_cost` — each engine's closed-form work over those
  features.
* :class:`CostModel` — predicts seconds per engine from
  :func:`static_cost` and orders a chain by predicted cost **within
  guarantee tiers only**: the exact > relative > additive ordering of
  :data:`repro.runtime.executor.GUARANTEE_ORDER` is never violated.
  Forecasts and serve admission price engines with it; a chain is
  reordered only when a caller installs or passes a model.
* :func:`plan_chain` — the forecast of the executor's own plan
  (:mod:`repro.runtime.plan` builds and forecasts it), so
  :func:`repro.reliability.report.analyze` and serve admission
  *recommend* exactly the engine
  :func:`~repro.runtime.executor.run_with_fallback` would select.

Guarantee tiers are quantity-dependent, mirroring the engines
themselves: Karp–Luby is *relative* on probabilities (Theorem 5.4) but
*additive* on reliability (Corollary 5.5), so under the default
``quantity="reliability"`` it shares the additive tier with Monte
Carlo — the one tier in the default chain where ordering can change
a route.

See docs/ROBUSTNESS.md ("Chain order").
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro import obs
from repro.logic.evaluator import FOQuery
from repro.logic.normalform import dnf_clauses, existential_parts
from repro.propositional.karp_luby import sample_count
from repro.reliability.exact import as_query
from repro.reliability.grounding import relevant_atoms, wrong_target
from repro.reliability.montecarlo import hoeffding_samples
from repro.runtime.budget import Budget, active_budget
from repro.runtime.executor import DEFAULT_CHAIN, engine_guarantee
from repro.runtime.preflight import grounding_cost
from repro.util.errors import QueryError

__all__ = [
    "FEATURE_NAMES",
    "CLOSED_FORM_UNIT_SECONDS",
    "CostModel",
    "plan_features",
    "static_cost",
    "active_model",
    "set_model",
    "use_model",
    "plan_chain",
]

#: The keys of :func:`plan_features`.
FEATURE_NAMES: Tuple[str, ...] = (
    "atoms",
    "domain",
    "cells",
    "clauses",
    "kl_samples",
    "mc_samples",
)

#: Seconds one closed-form work unit is taken to cost.  The absolute
#: value is irrelevant for ordering; it puts predictions on the
#: seconds axis that serve admission compares against deadlines.
CLOSED_FORM_UNIT_SECONDS = 1e-6

#: Cap on feature magnitudes so ``float`` conversion of the closed
#: forms (big ints like ``n ** k``) can never overflow.
_FEATURE_CAP = 1e18


def _capped(value) -> float:
    try:
        result = float(value)
    except (OverflowError, ValueError):
        return _FEATURE_CAP
    if not math.isfinite(result):
        return _FEATURE_CAP
    return min(max(result, 0.0), _FEATURE_CAP)


# ---------------------------------------------------------------------- #
# plan features and guarantee tiers
# ---------------------------------------------------------------------- #


def plan_features(
    db,
    query: Any,
    quantity: str = "reliability",
    epsilon: float = 0.05,
    delta: float = 0.05,
) -> Dict[str, float]:
    """Closed-form features of one (db, query, epsilon, delta) plan.

    All features are computable in microseconds from the query and
    database shape (``relevant_atoms`` and the DNF matrix are memoised
    in the compilation cache); nothing here samples or grounds.
    ``clauses`` is the *per-cell* Theorem 5.4 grounding bound
    (``|templates| * n ** |vars|``); ``kl_samples`` the Karp–Luby
    count for that many clauses; ``mc_samples`` the Hoeffding count.
    A query outside the existential/universal fragment simply gets
    ``clauses = 0`` — features never raise.
    """
    query = as_query(query)
    atoms = len(relevant_atoms(db, query))
    domain = db.universe_size
    arity = int(getattr(query, "arity", 0))
    cells = _capped(domain**arity) if arity else 1.0
    clauses = 0.0
    formula = query.formula if isinstance(query, FOQuery) else None
    if formula is not None:
        try:
            variables, matrix = existential_parts(wrong_target(formula))
            templates = dnf_clauses(matrix)
            clauses = _capped(
                grounding_cost(domain, len(variables), len(templates))
            )
        except QueryError:
            clauses = 0.0
    try:
        kl = float(sample_count(max(1, int(min(clauses, 1e9))), epsilon, delta))
        mc = float(hoeffding_samples(epsilon, delta))
    except Exception:  # invalid epsilon/delta: features stay orderable
        kl = mc = _FEATURE_CAP
    return {
        "atoms": float(atoms),
        "domain": float(domain),
        "cells": cells,
        "clauses": clauses,
        "kl_samples": _capped(kl),
        "mc_samples": _capped(mc),
    }


def static_cost(engine: str, features: Mapping[str, float]) -> float:
    """Closed-form work units for an engine.

    These are the same shapes the preflights reason about: worlds for
    exact, a small polynomial for lifted plans, grounding plus FPTRAS
    samples for Karp–Luby, Hoeffding samples priced per answer cell
    for Monte Carlo.  Units are abstract; only relative order matters,
    and only *within* a guarantee tier.
    """
    atoms = features.get("atoms", 0.0)
    domain = features.get("domain", 0.0)
    cells = max(features.get("cells", 1.0), 1.0)
    clauses = features.get("clauses", 0.0)
    kl = features.get("kl_samples", 0.0)
    mc = features.get("mc_samples", 0.0)
    if engine == "exact":
        return _capped(2.0 ** min(atoms, 400.0))
    if engine == "safe_lifted":
        # Same polynomial shape as the lifted plan, minus the
        # attempt-and-catch overhead: the static classifier decided
        # admissibility for free.
        return _capped(domain * domain + atoms)
    if engine == "lifted":
        return _capped(domain * domain + atoms + 1.0)
    if engine == "karp_luby":
        return _capped(cells * (clauses + kl))
    if engine == "montecarlo":
        return _capped(mc * (atoms + cells))
    return _FEATURE_CAP


# ---------------------------------------------------------------------- #
# the model: predict and order
# ---------------------------------------------------------------------- #


class CostModel:
    """The closed-form scorer, with tier-safe chain ordering.

    Predicts :func:`static_cost` at :data:`CLOSED_FORM_UNIT_SECONDS`
    per work unit.  A subclass may predict differently;
    :meth:`order_chain` never reorders across guarantee tiers however
    degenerate its predictions are.
    """

    __slots__ = ()

    def predict_seconds(
        self, engine: str, features: Mapping[str, float]
    ) -> float:
        """Predicted wall-clock seconds (finite, non-negative, sortable)."""
        return static_cost(engine, features) * CLOSED_FORM_UNIT_SECONDS

    def order_chain(
        self,
        chain: Sequence[str],
        features: Mapping[str, float],
        quantity: str = "reliability",
    ) -> Tuple[str, ...]:
        """Sort a chain by predicted cost within guarantee tiers only.

        The chain is split into maximal consecutive runs of equal
        guarantee tier; each run is stably sorted by prediction; runs
        are concatenated in their original order.  The tier *sequence*
        of the output is therefore identical to the input's — the
        exact > relative > additive contract survives any predictions,
        including adversarial ones (NaN predictions sort last).
        """
        ordered: List[str] = []
        run: List[str] = []
        run_tier: Optional[str] = None

        def flush() -> None:
            if not run:
                return
            keyed = [
                (self.predict_seconds(name, features), index, name)
                for index, name in enumerate(run)
            ]
            keyed.sort(
                key=lambda item: (
                    1 if math.isnan(item[0]) else 0,
                    item[0],
                    item[1],
                )
            )
            ordered.extend(name for _, _, name in keyed)
            run.clear()

        for name in chain:
            tier = engine_guarantee(name, quantity)
            if tier != run_tier:
                flush()
                run_tier = tier
            run.append(name)
        flush()
        result = tuple(ordered)
        if result != tuple(chain):
            obs.inc("costmodel.reordered")
        return result


# ---------------------------------------------------------------------- #
# active-model registry (mirrors obs recorder / runtime budget patterns)
# ---------------------------------------------------------------------- #

_active_model: Optional[CostModel] = None


def active_model() -> Optional[CostModel]:
    """The model the executor consults when none is passed explicitly."""
    return _active_model


def set_model(model: Optional[CostModel]) -> Optional[CostModel]:
    """Install ``model`` as the active one; returns the previous."""
    global _active_model
    previous = _active_model
    _active_model = model
    return previous


@contextmanager
def use_model(model: Optional[CostModel]):
    """Scope-install a cost model (restored on exit)."""
    previous = set_model(model)
    try:
        yield model
    finally:
        set_model(previous)


# ---------------------------------------------------------------------- #
# plan_chain: forecast the executor's plan
# ---------------------------------------------------------------------- #


def plan_chain(
    db,
    query: Any,
    chain: Optional[Sequence[str]] = None,
    budget: Optional[Budget] = None,
    quantity: str = "reliability",
    epsilon: float = 0.05,
    delta: float = 0.05,
    cost_model: Optional[CostModel] = None,
    adaptive: Union[None, bool] = None,
):
    """Forecast the fallback executor's walk without running an engine.

    Builds the plan :func:`~repro.runtime.executor.run_with_fallback`
    would run for the same arguments and forecasts it with
    :func:`repro.runtime.plan.forecast` — the executor's own walk with
    stub engines — against ``budget`` (the active one when ``None``),
    which is never consumed.  The returned
    :class:`~repro.runtime.plan.ChainPlan` names the selected engine —
    under ``max_atoms`` / ``max_samples`` caps, the engine the run
    answers with.  ``adaptive`` (default on, as in the run) prices the
    surrogate's expected stopping.
    """
    from repro.runtime import plan

    built = plan.make_plan(
        db, query, DEFAULT_CHAIN if chain is None else chain,
        quantity, epsilon, delta, cost_model, adaptive,
        forecast=True,
    )
    return plan.forecast(built, budget if budget is not None else active_budget())
