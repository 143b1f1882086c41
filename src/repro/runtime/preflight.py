"""Cost preflight: estimate an engine's work before committing to it.

The exact engines have *predictable* blow-ups: Theorem 4.2's world
enumeration evaluates exactly ``2 ** |relevant atoms|`` worlds, and
Theorem 5.4's grounding instantiates ``|clause templates| * n **
|variables|`` clauses before folding.  Both numbers are computable in
microseconds from the query and database shape — so instead of starting
a run that cannot finish, an engine *preflights*: it compares the
estimate against the active :class:`~repro.runtime.budget.Budget` and
raises :class:`~repro.util.errors.CostRefused` (carrying the estimate
and the limit) when the run is hopeless.

``CostRefused`` is cheap to catch — nothing was computed — which is what
lets the fallback executor walk a chain of engines without paying for
the ones that would have blown up.  Each ``*_refusal`` function is the
same check without the raise or the ``preflight.*`` counter: forecasts
(:mod:`repro.runtime.plan`) read it to predict a refusal before any
engine runs.
"""

from __future__ import annotations

from typing import Optional

from repro import obs
from repro.runtime.budget import Budget, active_budget
from repro.util.errors import CostRefused

__all__ = [
    "worlds_cost",
    "worlds_refusal",
    "preflight_worlds",
    "grounding_cost",
    "grounding_refusal",
    "preflight_grounding",
    "samples_refusal",
    "preflight_samples",
    "delta_update_cost",
    "preflight_delta",
]


def _enforce(refusal: Optional[CostRefused], counter: str) -> None:
    if refusal is not None:
        obs.inc(counter)
        raise refusal


def worlds_cost(atom_count: int) -> int:
    """Worlds Theorem 4.2's enumeration evaluates: ``2 ** atom_count``."""
    return 1 << atom_count


def worlds_refusal(atom_count: int, budget: Budget) -> Optional[CostRefused]:
    """The refusal :func:`preflight_worlds` would raise, or ``None``."""
    limit = budget.world_limit()
    estimate = worlds_cost(atom_count)
    if limit is None or estimate <= limit:
        return None
    return CostRefused(
        f"world enumeration over {atom_count} uncertain atoms needs "
        f"2^{atom_count} = {estimate} worlds, over the budget limit "
        f"of {limit}; raise Budget(max_worlds=...) / "
        f"Budget(max_atoms=...) or use a sampling engine",
        estimate=estimate,
        limit=limit,
    )


def preflight_worlds(atom_count: int, budget: Optional[Budget] = None) -> int:
    """Refuse a world enumeration the budget predicts to be hopeless.

    Returns the estimated world count (``2 ** atom_count``) when it fits
    under the budget's effective world limit (``max_worlds`` if set,
    else ``2 ** max_atoms``); raises :class:`CostRefused` otherwise.
    ``budget`` defaults to the active one.
    """
    budget = budget if budget is not None else active_budget()
    _enforce(worlds_refusal(atom_count, budget), "preflight.worlds_refused")
    return worlds_cost(atom_count)


def grounding_cost(
    universe_size: int, variable_count: int, template_count: int
) -> int:
    """Clauses Theorem 5.4's grounding instantiates before folding.

    Each of the ``|clause templates|`` DNF clauses of the matrix is
    grounded once per valuation of the existential variables —
    ``n ** |variables|`` valuations — giving the paper's
    ``n^width * |clauses|`` bound.
    """
    return template_count * universe_size**variable_count


def grounding_refusal(
    universe_size: int,
    variable_count: int,
    template_count: int,
    budget: Budget,
) -> Optional[CostRefused]:
    """The refusal :func:`preflight_grounding` would raise, or ``None``."""
    limit = budget.max_ground_clauses
    estimate = grounding_cost(universe_size, variable_count, template_count)
    if limit is None or estimate <= limit:
        return None
    return CostRefused(
        f"grounding would instantiate {template_count} clause "
        f"templates * {universe_size}^{variable_count} = {estimate} "
        f"clauses, over the budget limit of {limit}; raise "
        f"Budget(max_ground_clauses=...) or use a sampling engine",
        estimate=estimate,
        limit=limit,
    )


def preflight_grounding(
    universe_size: int,
    variable_count: int,
    template_count: int,
    budget: Optional[Budget] = None,
) -> int:
    """Refuse a grounding the budget predicts to be hopeless.

    Returns the estimated raw clause count when it fits under the
    budget's ``max_ground_clauses`` (no default cap — grounding is
    polynomial in ``n`` for a fixed query); raises
    :class:`CostRefused` otherwise.
    """
    budget = budget if budget is not None else active_budget()
    _enforce(
        grounding_refusal(universe_size, variable_count, template_count, budget),
        "preflight.grounding_refused",
    )
    return grounding_cost(universe_size, variable_count, template_count)


def delta_update_cost(node_count: int, update_count: int) -> int:
    """Worst-case node re-evaluations for a delta update stream.

    A weight-only update re-evaluates at most every reachable diagram
    node once — ``O(|BDD|)``, not ``O(2 ** atoms)`` — so a stream of
    ``m`` updates costs at most ``m * |BDD|`` exact multiplies.  This
    is the closed-form the cost model and admission control use for
    :class:`~repro.delta.session.DeltaSession` streams.
    """
    return node_count * update_count


def preflight_delta(
    node_count: int,
    update_count: int,
    budget: Optional[Budget] = None,
) -> int:
    """Refuse a delta update stream the budget predicts to be hopeless.

    Reuses the budget's world limit as the work cap: one node
    re-evaluation is one exact multiply, the same unit one enumerated
    world costs, so a stream whose ``m * |BDD|`` bound exceeds the
    limit would be better served by cold recomputes under a larger
    budget.  Returns the estimate when it fits.
    """
    budget = budget if budget is not None else active_budget()
    limit = budget.world_limit()
    estimate = delta_update_cost(node_count, update_count)
    if limit is not None and estimate > limit:
        obs.inc("preflight.delta_refused")
        raise CostRefused(
            f"delta stream of {update_count} updates over a "
            f"{node_count}-node diagram needs up to {estimate} node "
            f"re-evaluations, over the budget limit of {limit}; raise "
            f"Budget(max_worlds=...) or split the stream",
            estimate=estimate,
            limit=limit,
        )
    return estimate


def samples_refusal(
    sample_count: int, remaining: Optional[int]
) -> Optional[CostRefused]:
    """The refusal :func:`preflight_samples` would raise, or ``None``.

    ``remaining`` is the sample allowance left (``None``: uncapped).
    """
    if remaining is None or sample_count <= remaining:
        return None
    return CostRefused(
        f"estimator needs {sample_count} samples but only "
        f"{remaining} remain under the budget's max_samples cap; "
        f"loosen epsilon/delta or raise Budget(max_samples=...)",
        estimate=sample_count,
        limit=remaining,
    )


def preflight_samples(sample_count: int, budget: Optional[Budget] = None) -> int:
    """Refuse a sampling run whose budget cannot fit its sample count.

    An estimator knows exactly how many samples its (epsilon, delta)
    guarantee needs before drawing the first one; if that exceeds what
    is left of the budget's ``max_samples`` allowance, refuse up front
    rather than burning the allowance and failing anyway.  Returns
    ``sample_count`` when it fits (or the budget is uncapped).
    """
    budget = budget if budget is not None else active_budget()
    _enforce(
        samples_refusal(sample_count, budget.remaining_samples()),
        "preflight.samples_refused",
    )
    return sample_count
