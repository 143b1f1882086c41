"""The fallback executor: degrade gracefully instead of hanging or dying.

Operationalizes the paper's complexity landscape as an execution policy.
The engines, in decreasing order of guarantee strength:

``safe_lifted``
    the dichotomy-routed top tier: the static Dalvi–Suciu classifier
    (:func:`repro.logic.safety.classify_dichotomy`) proves the query
    safe *before* anything runs, and the lifted plan answers exactly in
    polynomial time.  On any other query the tier is *statically
    skipped* (outcome ``"skipped_static"``, never counted as a
    failure) — a statically-safe query therefore never touches
    enumeration or sampling, and an unsafe one costs nothing here.
``exact``
    the exact dispatcher (Propositions 3.1, Theorem 4.2/5.4 machinery);
    answers with an exact :class:`~fractions.Fraction`.  Preflighted by
    the Theorem 4.2 world bound ``2 ** |relevant atoms|``.
``lifted``
    safe-plan lifted inference — exact and polynomial, but only for
    safe (hierarchical, self-join-free) Boolean conjunctive queries.
    Kept for explicit chains; the default chain routes safe queries
    through ``safe_lifted`` instead.
``karp_luby``
    the Theorem 5.4 FPTRAS / Corollary 5.5 estimator — *relative*
    (epsilon, delta) on probabilities, *additive* on reliability;
    existential/universal queries only.
``montecarlo``
    direct world sampling with a Hoeffding *additive* (epsilon, delta)
    bound — works for any polynomial-time evaluable query.

:func:`run_with_fallback` walks such a chain under one shared
:class:`~repro.runtime.budget.Budget`: an engine that raises
:class:`CostRefused` (preflight), :class:`BudgetExceeded` (cooperative
checkpoint) or :class:`QueryError` (fragment mismatch) is recorded and
the next engine gets its turn.  The returned :class:`RuntimeResult`
carries the value, the engine that answered, its guarantee type, and
the full attempt log; everything is mirrored into :mod:`repro.obs`
(``runtime.*`` counters, per-attempt spans).  The walk and the race
of :mod:`repro.runtime.racing` sit behind one dispatch,
:func:`execute`, which forecasts also run with stub engines.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import (
    Any, Callable, Dict, NamedTuple, Optional, Sequence, Tuple, Union,
)

from repro import obs
from repro.logic.classify import is_conjunctive
from repro.logic.conjunctive import ConjunctiveQuery
from repro.logic.evaluator import FOQuery
from repro.reliability.approx import existential_probability, reliability_additive
from repro.reliability.exact import as_query, reliability, truth_probability
from repro.reliability.grounding import relevant_atoms
from repro.reliability.lifted import lifted_probability, lifted_reliability
from repro.reliability.montecarlo import (
    estimate_reliability_hamming,
    estimate_truth_probability,
)
from repro.runtime.budget import Budget, active_budget, apply
from repro.runtime.preflight import preflight_worlds
from repro.util.errors import (
    BudgetExceeded,
    CostRefused,
    FallbackExhausted,
    QueryError,
)
from repro.util.rng import Seed, as_rng

import random

QueryLike = Any
RngLike = Union[random.Random, Seed]

#: The default degradation chain, ordered by guarantee strength:
#: statically-routed exact-polynomial > exact > relative/additive
#: FPTRAS > additive MC.  ``safe_lifted`` leads so that a large safe
#: query bypasses the exact engine's ``2 ** atoms`` preflight refusal
#: entirely; it is statically skipped (at zero cost) on every other
#: query.  ``lifted`` stays registered for explicit chains.
DEFAULT_CHAIN: Tuple[str, ...] = (
    "safe_lifted",
    "exact",
    "karp_luby",
    "montecarlo",
)

#: Guarantee types, strongest first (see docs/ROBUSTNESS.md).
GUARANTEE_ORDER: Tuple[str, ...] = ("exact", "relative", "additive")

#: Guarantee tiers by strength rank (lower is stronger).
GUARANTEE_RANK: Dict[str, int] = {
    tier: rank for rank, tier in enumerate(GUARANTEE_ORDER)
}


def engine_guarantee(engine: str, quantity: str = "reliability") -> str:
    """The guarantee tier an engine's answer would carry for ``quantity``.

    Mirrors the engines below: Karp–Luby is *relative* on probabilities
    (Theorem 5.4) but *additive* on reliability (Corollary 5.5) — the
    tier is a property of the answer, not the algorithm.  Unknown
    engines conservatively land in the weakest tier (the executor
    validates names before any ordering happens).
    """
    if engine in ("safe_lifted", "exact", "lifted"):
        return "exact"
    if engine == "karp_luby":
        return "relative" if quantity == "probability" else "additive"
    return "additive"


@dataclass(frozen=True)
class Attempt:
    """One engine's turn in a fallback chain.

    ``outcome`` is ``"ok"``, ``"cost_refused"``, ``"budget_exceeded"``,
    ``"fragment_mismatch"``, or ``"skipped_static"`` (the dichotomy
    router excluded the engine before it ran — not a failure; the
    ``detail`` carries the classifier's witness); ``detail`` is the
    error message for failed attempts (empty on success).
    """

    engine: str
    outcome: str
    detail: str
    elapsed: float


@dataclass(frozen=True)
class RuntimeResult:
    """The answer of a fallback run, with full provenance.

    ``guarantee`` is one of :data:`GUARANTEE_ORDER`: ``"exact"`` (a
    true value, also in ``fraction``), ``"relative"`` (FPTRAS:
    ``Pr[|est - v| > epsilon * v] < delta``) or ``"additive"``
    (``Pr[|est - v| > epsilon] < delta``); ``epsilon``/``delta`` are
    ``None`` for exact answers.  ``attempts`` records every engine
    tried, in order, ending with the one that answered.
    """

    value: float
    engine: str
    guarantee: str
    quantity: str
    epsilon: Optional[float]
    delta: Optional[float]
    attempts: Tuple[Attempt, ...]
    elapsed: float
    fraction: Optional[Fraction] = None

    def __float__(self) -> float:
        return self.value

    def describe(self) -> str:
        """One line per attempt plus the final verdict (CLI rendering)."""
        lines = []
        for attempt in self.attempts:
            if attempt.outcome == "ok":
                lines.append(
                    f"  {attempt.engine}: ok ({attempt.elapsed:.3f}s)"
                )
            else:
                lines.append(
                    f"  {attempt.engine}: {attempt.outcome} — "
                    f"{attempt.detail} ({attempt.elapsed:.3f}s)"
                )
        bound = (
            ""
            if self.guarantee == "exact"
            else f" (epsilon={self.epsilon}, delta={self.delta})"
        )
        lines.append(
            f"{self.quantity} = {self.value:.6f} via {self.engine} "
            f"[{self.guarantee}]{bound} in {self.elapsed:.3f}s"
        )
        return "\n".join(lines)


class _Request(NamedTuple):
    quantity: str
    epsilon: float
    delta: float
    rng_base: int
    engine: str
    #: Sequential empirical-Bernstein stopping for the sampling engines
    #: (see :mod:`repro.runtime.adaptive`); exact engines ignore it.
    adaptive: bool = False
    #: The plan's dichotomy verdict (``None``: not classified).
    verdict: Any = None

    @property
    def rng(self) -> random.Random:
        """Seeded on read: only sampling engines read it, and seeding
        costs more than a whole forecast attempt."""
        return _attempt_rng(self.rng_base, self.engine)


class _Answer(NamedTuple):
    value: float
    guarantee: str
    epsilon: Optional[float]
    delta: Optional[float]
    fraction: Optional[Fraction] = None


def _engine_exact(db, query, req: _Request) -> _Answer:
    """Exact dispatcher, preflighted by the Theorem 4.2 world bound.

    ``2 ** |relevant atoms|`` is the general-case cost (world
    enumeration); the quantifier-free/grounded/lifted fast paths can
    beat it, but their worst cases are of the same order, so the bound
    is the honest conservative preflight for "exact, whatever it takes".
    """
    preflight_worlds(len(relevant_atoms(db, query)))
    if req.quantity == "probability":
        value = truth_probability(db, query)
    else:
        value = reliability(db, query)
    return _Answer(float(value), "exact", None, None, fraction=value)


def lifted_fragment(query) -> ConjunctiveQuery:
    """The Boolean CQ the lifted engines evaluate; raises
    :class:`QueryError` outside that fragment (forecasts read it too)."""
    if not isinstance(query, FOQuery):
        raise QueryError("lifted engine requires a first-order query")
    if query.arity != 0:
        raise QueryError("lifted engine handles Boolean queries only")
    if not is_conjunctive(query.formula):
        raise QueryError("lifted engine requires a conjunctive query")
    return ConjunctiveQuery.from_formula(query.formula)


def _engine_lifted(db, query, req: _Request) -> _Answer:
    """Safe-plan lifted inference: exact and polynomial, narrow fragment.

    Serves both ``lifted`` and the dichotomy-routed ``safe_lifted``:
    the plan classified the query once, the static router skips both
    on an unsafe verdict, and the lifted plan reuses the verdict
    instead of classifying again.
    """
    cq = lifted_fragment(query)
    if req.quantity == "probability":
        value = lifted_probability(db, cq, req.verdict)
    else:
        value = lifted_reliability(db, cq, req.verdict)
    return _Answer(float(value), "exact", None, None, fraction=value)


def _engine_karp_luby(db, query, req: _Request) -> _Answer:
    """Theorem 5.4 FPTRAS / Corollary 5.5 additive estimator."""
    if not isinstance(query, FOQuery):
        raise QueryError("karp_luby engine requires a first-order query")
    if req.quantity == "probability":
        estimate = existential_probability(
            db, query, req.epsilon, req.delta, req.rng,
            adaptive=req.adaptive,
        )
        return _Answer(estimate.value, "relative", req.epsilon, req.delta)
    estimate = reliability_additive(
        db, query, req.epsilon, req.delta, req.rng, adaptive=req.adaptive
    )
    return _Answer(estimate.value, "additive", req.epsilon, req.delta)


def _engine_montecarlo(db, query, req: _Request) -> _Answer:
    """Hoeffding world sampling: weakest guarantee, widest applicability."""
    if req.quantity == "probability":
        value = estimate_truth_probability(
            db, query, req.rng, epsilon=req.epsilon, delta=req.delta,
            adaptive=req.adaptive,
        )
    else:
        value = estimate_reliability_hamming(
            db, query, req.rng, epsilon=req.epsilon, delta=req.delta,
            adaptive=req.adaptive,
        )
    return _Answer(value, "additive", req.epsilon, req.delta)


#: Engine registry.  :func:`repro.runtime.faults.inject` swaps entries
#: for fault-wrapped versions; :func:`run_with_fallback` looks names up
#: per attempt, so injection works mid-chain.
ENGINES: Dict[str, Callable[..., _Answer]] = {
    "safe_lifted": _engine_lifted,
    "exact": _engine_exact,
    "lifted": _engine_lifted,
    "karp_luby": _engine_karp_luby,
    "montecarlo": _engine_montecarlo,
}

#: Engines the dichotomy router gates statically: they are *skipped*
#: (outcome ``"skipped_static"``, counter ``runtime.skipped_static``,
#: zero elapsed, not a failure) whenever the classifier's verdict is
#: unsafe, instead of being attempted and caught mid-chain.
STATIC_SAFE_ENGINES: Tuple[str, ...] = ("safe_lifted", "lifted")


def static_skip_detail(name: str, verdict) -> Optional[str]:
    """The skip reason for ``name`` under ``verdict``, or ``None`` to run.

    Shared between the sequential walk and the race partition, which
    forecasts run too, so they mark ``skipped_static`` exactly where
    the run does.
    """
    if name in STATIC_SAFE_ENGINES and not verdict.safe:
        return verdict.summary()
    return None


def race_partition(
    chain: Sequence[str], verdict, quantity: str
) -> Tuple[Tuple[str, ...], Tuple[Tuple[str, str], ...]]:
    """Split a race chain into ``(kept, skipped)`` by the static verdict.

    A statically-*safe* query must never launch a sampling racer: when
    the chain contains an exact-tier engine, every weaker engine is
    statically skipped (speculating on a sampler cannot beat a
    polynomial exact answer and would waste its samples).  A chain with
    no exact-tier engine races as given — the caller asked for
    samplers explicitly.  On an *unsafe* verdict the dichotomy-gated
    engines are skipped, exactly as in the sequential walk.  Skipped
    entries are ``(engine, detail)`` pairs.
    """
    kept = []
    skipped = []
    if verdict.safe:
        has_exact = any(
            engine_guarantee(name, quantity) == "exact" for name in chain
        )
        if not has_exact:
            return tuple(chain), ()
        for name in chain:
            if engine_guarantee(name, quantity) == "exact":
                kept.append(name)
            else:
                skipped.append(
                    (
                        name,
                        "statically safe query: sampling racer suppressed "
                        f"({verdict.summary()})",
                    )
                )
    else:
        for name in chain:
            detail = static_skip_detail(name, verdict)
            if detail is None:
                kept.append(name)
            else:
                skipped.append((name, detail))
    return tuple(kept), tuple(skipped)


def _record_prediction_error(model, engine, features, elapsed, emit) -> None:
    """Mirror a successful attempt's predicted-vs-observed cost into ``emit``.

    ``costmodel.prediction_error`` is the absolute log10 ratio of
    observed to predicted seconds (0 = perfect, 1 = off by 10x) — the
    quantity the calibration smoke lane bounds.
    """
    predicted = model.predict_seconds(engine, features)
    emit.inc("costmodel.predictions")
    if not (predicted > 0 and math.isfinite(predicted)):
        return
    ratio = max(elapsed, 1e-9) / predicted
    emit.observe("costmodel.prediction_error", abs(math.log10(ratio)))
    emit.gauge("costmodel.last_ratio", ratio)


def report_attempt(plan, attempt: Attempt, counter: str = "", emit=obs) -> None:
    """Mirror one finished attempt of the walk or the race into
    ``emit``; ``counter`` is a failure's :func:`classify_failure` one."""
    emit.inc("runtime.attempts")
    if attempt.outcome != "ok":
        if counter:
            emit.inc(counter)
        emit.inc("runtime.fallbacks")
        emit.event(
            "runtime.fallback",
            engine=attempt.engine,
            outcome=attempt.outcome,
            detail=attempt.detail,
        )
        if attempt.outcome in ("cancelled", "preempted", "abandoned"):
            return  # a lost racer's time says nothing about its cost
    if plan.features is not None:
        emit.event(
            "runtime.attempt.cost",
            engine=attempt.engine,
            outcome=attempt.outcome,
            seconds=attempt.elapsed,
            **plan.features,
        )
    if attempt.outcome == "ok" and plan.model is not None:
        _record_prediction_error(
            plan.model, attempt.engine, plan.features, attempt.elapsed, emit
        )


#: Attempt outcomes a retry could plausibly cure: a blown deadline or
#: an injected timeout may pass on a later try, while a cost refusal
#: (the preflight mathematics) and a fragment mismatch (the query
#: itself) are permanent.  The serve layer's retry policy keys on this.
TRANSIENT_OUTCOMES: Tuple[str, ...] = ("budget_exceeded",)


def check_quantity(quantity: str) -> None:
    """Reject a quantity other than ``reliability`` / ``probability``."""
    if quantity not in ("reliability", "probability"):
        raise QueryError(
            f"unknown quantity {quantity!r}; use 'reliability' or 'probability'"
        )


def classify_failure(exc: Exception) -> Tuple[str, str]:
    """The executor's failure taxonomy: ``(outcome, obs counter)``.

    Every degradation path shares it — the sequential walk, the racing
    executor, and the serve layer's retry/breaker policies all speak
    these outcome strings.
    """
    if isinstance(exc, CostRefused):
        return "cost_refused", "runtime.cost_refused"
    if isinstance(exc, BudgetExceeded):
        return "budget_exceeded", "runtime.budget_exceeded"
    return "fragment_mismatch", "runtime.fragment_mismatch"


def _run_clock():
    """The clock a fallback run times itself with.

    Normally the wall clock, but a run scheduled inside a worker body
    (a serve pool worker, a racer) must read the scheduler's clock so
    attempt timings — and therefore whole-server traces — replay
    deterministically on the virtual clock.  This is the re-entrancy
    contract: the executor no longer assumes it owns the process or
    the wall clock.
    """
    from repro.runtime.racing import current_scheduler

    scheduler = current_scheduler()
    return time.perf_counter if scheduler is None else scheduler.now


def _attempt_rng(base: int, engine: str) -> random.Random:
    """The deterministic generator of one engine attempt.

    Derived from a single 64-bit draw of the caller's ``rng`` plus the
    engine *name* — never from sibling attempts' consumption — so an
    engine's value is identical whether it runs alone, after failed
    predecessors in a sequential chain, or concurrently in a race.
    That independence is what lets the racing property tests assert
    value equality against solo sequential runs.
    """
    return random.Random(f"{base:x}:attempt:{engine}")


def run_with_fallback(
    db,
    query: QueryLike,
    chain: Sequence[str] = DEFAULT_CHAIN,
    budget: Optional[Budget] = None,
    quantity: str = "reliability",
    epsilon: float = 0.05,
    delta: float = 0.05,
    rng: RngLike = 0,
    cost_model=None,
    race: Union[bool, float, None] = False,
    adaptive: Union[bool, None] = None,
) -> RuntimeResult:
    """Answer ``quantity`` for ``query``, degrading across ``chain``.

    Each engine is tried in order under one shared ``budget`` (the
    active budget when ``None``): preflight refusals, budget
    exhaustion, and fragment mismatches are caught, logged as
    :class:`Attempt` records, counted in :mod:`repro.obs`
    (``runtime.fallbacks`` etc.) and the next engine takes over.  Any
    other exception — a genuine bug — propagates unchanged.

    ``quantity`` is ``"reliability"`` (default; ``R_psi`` of Definition
    2.2, any arity) or ``"probability"`` (``Pr[B |= psi]``, Boolean
    queries only).  ``epsilon``/``delta`` parameterize the sampling
    engines; ``rng`` is a ``random.Random`` or bare seed.

    ``cost_model`` is a :class:`repro.runtime.costmodel.CostModel`, a
    calibration-file path, or ``None`` (the module-level active model;
    usually none is installed).  With a model, the chain is re-ordered
    by predicted cost *within guarantee tiers* before the walk (see
    docs/ROBUSTNESS.md); without one, the chain runs exactly as given.
    Prediction errors surface as ``costmodel.*`` metrics, and every
    attempt's features/timing become a ``runtime.attempt.cost`` trace
    event when observability is on — the raw material ``repro
    calibrate`` fits from.

    ``race`` turns on speculative racing (see
    :mod:`repro.runtime.racing` and docs/ROBUSTNESS.md): instead of
    walking the chain sequentially, engines launch concurrently with a
    stagger of ``overlap * fair_share`` and the first answer at least
    as strong as every still-running contender wins.  ``True`` uses
    :data:`~repro.runtime.racing.DEFAULT_OVERLAP`; a float in
    ``[0, 1]`` sets the overlap fraction directly (0 launches
    everything at once).

    ``adaptive`` (default off) switches the sampling engines to the
    sequential empirical-Bernstein stopper of
    :mod:`repro.runtime.adaptive`: same (epsilon, delta) contract, the
    worst-case sample count as a never-exceeded cap, and the budget
    only charged for samples actually drawn.  When a cost model is in
    play it is wrapped so predicted seconds for the sampling engines
    reflect the surrogate's expected stopping.

    The inputs are validated and the static decisions — model, chain
    order, dichotomy verdict — made once, by
    :func:`repro.runtime.plan.make_plan`, and the plan runs through
    :func:`execute` — the same plan and the same dispatch that
    :func:`repro.runtime.costmodel.plan_chain` forecasts.

    Raises :class:`FallbackExhausted` (with the attempt log attached)
    when no engine in the chain produced an answer.
    """
    from repro.runtime.plan import make_plan

    plan = make_plan(
        db, query, chain, quantity, epsilon, delta, cost_model, race, adaptive
    )
    rng_base = as_rng(rng).getrandbits(64)
    scope = apply(budget) if budget is not None else nullcontext()
    with scope:
        return execute(plan, active_budget(), rng_base)


def execute(
    plan, budget, rng_base: int, engines=None, emit=obs, scheduler=None
) -> RuntimeResult:
    """Race ``plan`` under ``budget`` if it has an overlap, else walk it.

    The one dispatch of runs and of :func:`repro.runtime.plan.forecast`,
    which passes stub ``engines``, ``emit=obs.NULL`` and, for a race,
    a virtual ``scheduler``; a walk times itself on ``scheduler.now``.
    """
    if engines is None:
        engines = ENGINES
    if plan.overlap is not None:
        return _race(plan, budget, rng_base, engines, emit, scheduler)
    clock = _run_clock() if scheduler is None else scheduler.now
    return _walk(plan, budget, rng_base, engines, emit, clock)


def _record_skip(name: str, detail: str, emit) -> Attempt:
    emit.inc("runtime.skipped_static")
    emit.event("runtime.skip_static", engine=name, detail=detail)
    return Attempt(name, "skipped_static", detail, 0.0)


def _exhausted(message: str, attempts, emit) -> FallbackExhausted:
    emit.inc("runtime.exhausted")
    return FallbackExhausted(
        f"{message} "
        f"({', '.join(f'{a.engine}: {a.outcome}' for a in attempts)})",
        attempts,
    )


def _race(plan, run_budget, rng_base, engines, emit, scheduler) -> RuntimeResult:
    """Race the plan's chain after the dichotomy partition."""
    from repro.runtime import racing

    race_chain, skipped = race_partition(
        plan.chain, plan.verdict, plan.quantity
    )
    attempts = tuple(
        _record_skip(name, detail, emit) for name, detail in skipped
    )
    if not race_chain:
        raise _exhausted(
            "no engine to race: every engine in the chain was "
            "statically skipped",
            attempts,
            emit,
        )
    try:
        result = racing.run_race(
            plan, race_chain, run_budget, rng_base,
            scheduler=scheduler, engines=engines, emit=emit,
        )
    except FallbackExhausted as exc:
        raise FallbackExhausted(str(exc), attempts + tuple(exc.attempts)) from None
    if attempts:
        result = replace(result, attempts=attempts + result.attempts)
    return result


def _walk(plan, run_budget, rng_base, engines, emit, clock) -> RuntimeResult:
    """Walk the plan's chain sequentially: the first answer wins."""
    chain = plan.chain
    attempts = []
    started = clock()
    with emit.span("runtime.run", engines=len(chain), quantity=plan.quantity):
        for index, name in enumerate(chain):
            skip_detail = static_skip_detail(name, plan.verdict)
            if skip_detail is not None:
                attempts.append(_record_skip(name, skip_detail, emit))
                continue
            attempt_start = clock()
            slice_budget = None
            try:
                # Fair-share time slicing: under a deadline, each
                # attempt runs under a child budget with remaining /
                # attempts_left seconds, so one stalled engine cannot
                # starve the rest of the chain; an attempt that
                # finishes early rolls its unused share forward.
                remaining = run_budget.remaining_time()
                if remaining is None:
                    attempt_scope = nullcontext()
                elif remaining <= 0:
                    raise BudgetExceeded(
                        "deadline exhausted before the engine started"
                    )
                else:
                    share = remaining / (len(chain) - index)
                    slice_budget = run_budget.child(share)
                    attempt_scope = apply(slice_budget)
                request = _Request(
                    plan.quantity, plan.epsilon, plan.delta, rng_base, name,
                    plan.adaptive, plan.verdict,
                )
                with attempt_scope:
                    with emit.span("runtime.attempt", engine=name):
                        answer = engines[name](plan.db, plan.query, request)
            except (CostRefused, BudgetExceeded, QueryError) as exc:
                outcome, counter = classify_failure(exc)
                attempt = Attempt(name, outcome, str(exc), clock() - attempt_start)
                report_attempt(plan, attempt, counter, emit)
                attempts.append(attempt)
                continue
            finally:
                if slice_budget is not None:
                    slice_budget.close()
            attempt = Attempt(name, "ok", "", clock() - attempt_start)
            report_attempt(plan, attempt, emit=emit)
            attempts.append(attempt)
            result = RuntimeResult(
                value=answer.value,
                engine=name,
                guarantee=answer.guarantee,
                quantity=plan.quantity,
                epsilon=answer.epsilon,
                delta=answer.delta,
                attempts=tuple(attempts),
                elapsed=clock() - started,
                fraction=answer.fraction,
            )
            emit.inc("runtime.completed")
            emit.event(
                "runtime.result",
                engine=name,
                guarantee=answer.guarantee,
                attempts=len(attempts),
            )
            return result
    raise _exhausted(f"all {len(chain)} engines failed", attempts, emit)


def run_update_stream(
    db,
    query: QueryLike,
    updates: Sequence[Tuple],
    budget: Optional[Budget] = None,
    quantity: str = "probability",
):
    """Answer ``quantity`` after every update of a stream, incrementally.

    ``updates`` is a sequence of operations:
    ``("set_mu", atom, probability)``, ``("insert", atom)``,
    ``("delete", atom)``.  A :class:`~repro.delta.DeltaSession` is built
    once, the stream is preflighted against the budget's work cap via
    :func:`~repro.runtime.preflight.preflight_delta` (worst case
    ``m * |diagram|`` node re-evaluations — O(Δ) per step, never
    ``2 ** atoms``), and each update is applied under a cooperative
    checkpoint.  Returns ``(session, answers)`` with one exact
    :class:`~fractions.Fraction` per update, each bit-identical to a
    cold recompute on the database at that point.
    """
    from repro.delta import DeltaSession
    from repro.runtime.budget import checkpoint
    from repro.runtime.preflight import preflight_delta

    check_quantity(quantity)
    scope = apply(budget) if budget is not None else nullcontext()
    with scope:
        with obs.span("runtime.update_stream", updates=len(updates)):
            session = DeltaSession(db, query)
            preflight_delta(session.diagram_size, len(updates))
            answer = (
                session.probability
                if quantity == "probability"
                else session.reliability
            )
            answers = []
            for update in updates:
                checkpoint()
                op = update[0]
                if op == "set_mu":
                    session.set_mu(update[1], update[2])
                elif op == "insert":
                    session.insert(update[1])
                elif op == "delete":
                    session.delete(update[1])
                else:
                    raise QueryError(
                        f"unknown update op {op!r}; use set_mu/insert/delete"
                    )
                answers.append(answer())
            return session, answers
