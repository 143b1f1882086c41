"""Calibrated per-engine cost models for the fallback executor.

The executor's static chain (exact > lifted > karp_luby > montecarlo)
orders engines by *guarantee strength*, and its preflights refuse
hopeless runs from worst-case closed forms (``2 ** atoms`` worlds,
``n ** width * |templates|`` clauses, Hoeffding/Karp–Luby sample
counts).  But worst case is not *actual* cost: per-query structure —
the Dalvi–Suciu lesson — decides whether grounding plus an FPTRAS run
beats a few hundred bit-parallel world samples, and the answer flips
between queries.  This module closes the loop:

* :func:`plan_features` — cheap, closed-form features of a (db, query,
  epsilon, delta) plan: relevant-atom count, domain size, answer cells,
  predicted grounded clauses, and the two estimators' sample counts.
* :func:`fit` / :func:`fit_from_trace` — a pure-Python log-linear ridge
  regression from ``runtime.attempt.cost`` trace events (emitted by the
  executor through :mod:`repro.obs`) to per-engine wall-clock
  predictors; no third-party numerics.
* :class:`CostModel` — predicts seconds per engine, persists to a
  versioned JSON calibration file, and orders a chain by predicted
  cost **within guarantee tiers only**: the exact > relative > additive
  ordering of :data:`repro.runtime.executor.GUARANTEE_ORDER` is never
  violated.  Uncalibrated engines and corrupt calibration files fall
  back to the existing closed forms (``costmodel.fallback`` counter);
  nothing here can crash a run.
* :func:`plan_chain` — the forecast of the executor's own plan
  (:mod:`repro.runtime.plan` builds and forecasts it), so
  :func:`repro.reliability.report.analyze`, ``run --race`` forecasts
  and serve admission *recommend* exactly the engine
  :func:`~repro.runtime.executor.run_with_fallback` would select.

Guarantee tiers are quantity-dependent, mirroring the engines
themselves: Karp–Luby is *relative* on probabilities (Theorem 5.4) but
*additive* on reliability (Corollary 5.5), so under the default
``quantity="reliability"`` it shares the additive tier with Monte
Carlo — which is precisely where calibrated reordering pays, because
grounding-heavy FPTRAS runs and a few hundred batched world samples
differ by orders of magnitude in either direction.

See docs/ROBUSTNESS.md ("Calibrated cost models") for the workflow.
"""

from __future__ import annotations

import json
import math
import os
import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import obs
from repro.logic.classify import is_existential, is_universal
from repro.logic.evaluator import FOQuery
from repro.logic.fo import neg
from repro.logic.normalform import dnf_clauses, existential_parts
from repro.propositional.karp_luby import sample_count
from repro.reliability.exact import as_query
from repro.reliability.grounding import relevant_atoms
from repro.reliability.montecarlo import hoeffding_samples
from repro.runtime.budget import Budget, active_budget
from repro.runtime.executor import (
    DEFAULT_CHAIN,
    engine_guarantee,
    run_with_fallback,
)
from repro.runtime.preflight import grounding_cost
from repro.util.errors import CalibrationError, FallbackExhausted, QueryError

__all__ = [
    "FEATURE_NAMES",
    "CALIBRATION_VERSION",
    "CostObservation",
    "EngineCalibration",
    "CostModel",
    "plan_features",
    "static_cost",
    "fit",
    "fit_from_trace",
    "load_calibration",
    "load_or_fallback",
    "active_model",
    "set_model",
    "use_model",
    "resolve_model",
    "plan_chain",
    "calibration_workload",
    "calibrate",
]

#: Plan features, in design-matrix order (after the intercept).
FEATURE_NAMES: Tuple[str, ...] = (
    "atoms",
    "domain",
    "cells",
    "clauses",
    "kl_samples",
    "mc_samples",
)

#: Calibration file schema version; files with any other version are
#: *stale* and ignored (closed-form fallback), never reinterpreted.
CALIBRATION_VERSION = 1

#: Seconds one closed-form work unit is pretended to take when an
#: engine has no calibration.  The absolute value is irrelevant for
#: ordering (all uncalibrated engines share it); it only keeps
#: calibrated and uncalibrated predictions on one axis.
CLOSED_FORM_UNIT_SECONDS = 1e-6

#: Minimum per-engine observations before a fit is trusted.
MIN_OBSERVATIONS = 3

#: Cap on feature magnitudes so ``float`` conversion of the closed
#: forms (big ints like ``n ** k``) can never overflow.
_FEATURE_CAP = 1e18

# Floors for degenerate measurements: a 0s wall clock still costs one
# log-target; predictions are clamped into a sane exponent range.
_SECONDS_FLOOR = 1e-7
_LOG_CLAMP = 50.0


def _finite(value: float) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


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
            if is_existential(formula):
                target = formula
            elif is_universal(formula):
                target = neg(formula)
            else:
                target = None
            if target is not None:
                variables, matrix = existential_parts(target)
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
    """Closed-form work units for an engine — the uncalibrated fallback.

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
# fitting: pure-Python ridge regression on log features
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class CostObservation:
    """One timed engine attempt: the fit's training row."""

    engine: str
    seconds: float
    features: Mapping[str, float]


@dataclass(frozen=True)
class EngineCalibration:
    """A fitted per-engine predictor: weights over log1p features."""

    weights: Tuple[float, ...]
    observations: int
    rmse: float


def _design_row(features: Mapping[str, float]) -> List[float]:
    return [1.0] + [
        math.log1p(max(0.0, _capped(features.get(name, 0.0))))
        for name in FEATURE_NAMES
    ]


def _solve(matrix: List[List[float]], rhs: List[float]) -> List[float]:
    """Gaussian elimination with partial pivoting (SPD inputs here)."""
    size = len(rhs)
    augmented = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(size):
        pivot = max(range(col, size), key=lambda r: abs(augmented[r][col]))
        if abs(augmented[pivot][col]) < 1e-12:
            raise CalibrationError("singular normal equations")
        augmented[col], augmented[pivot] = augmented[pivot], augmented[col]
        lead = augmented[col][col]
        for row in range(size):
            if row == col:
                continue
            factor = augmented[row][col] / lead
            if factor:
                for k in range(col, size + 1):
                    augmented[row][k] -= factor * augmented[col][k]
    return [augmented[i][size] / augmented[i][i] for i in range(size)]


def fit(
    observations: Iterable[CostObservation], ridge: float = 1e-3
) -> "CostModel":
    """Fit per-engine log-linear predictors by ridge regression.

    ``log(seconds)`` is regressed on ``[1, log1p(feature), ...]`` via
    the normal equations; the ridge term keeps the system
    well-conditioned even on degenerate workloads (one query repeated).
    Engines with fewer than :data:`MIN_OBSERVATIONS` clean rows are
    left uncalibrated (closed-form fallback at prediction time).
    """
    grouped: Dict[str, List[CostObservation]] = {}
    for observation in observations:
        if not _finite(observation.seconds):
            continue
        grouped.setdefault(observation.engine, []).append(observation)
    engines: Dict[str, EngineCalibration] = {}
    width = len(FEATURE_NAMES) + 1
    for engine, rows in grouped.items():
        if len(rows) < MIN_OBSERVATIONS:
            continue
        xs = [_design_row(row.features) for row in rows]
        ys = [math.log(max(row.seconds, _SECONDS_FLOOR)) for row in rows]
        normal = [[0.0] * width for _ in range(width)]
        rhs = [0.0] * width
        for x, y in zip(xs, ys):
            for i in range(width):
                rhs[i] += x[i] * y
                for j in range(width):
                    normal[i][j] += x[i] * x[j]
        for i in range(width):
            normal[i][i] += ridge
        try:
            weights = _solve(normal, rhs)
        except CalibrationError:
            continue
        residual = 0.0
        for x, y in zip(xs, ys):
            predicted = sum(w * v for w, v in zip(weights, x))
            residual += (predicted - y) ** 2
        engines[engine] = EngineCalibration(
            weights=tuple(weights),
            observations=len(rows),
            rmse=math.sqrt(residual / len(rows)),
        )
    return CostModel(engines)


def fit_from_trace(records: Iterable[Mapping[str, Any]]) -> "CostModel":
    """Fit from ``runtime.attempt.cost`` trace events (JSONL or ListSink).

    Only successful attempts train the model — a refused preflight's
    microseconds say nothing about the engine's run time.
    """
    observations = []
    for record in records:
        if record.get("type") != "event":
            continue
        if record.get("name") != "runtime.attempt.cost":
            continue
        fields = record.get("fields", {})
        if fields.get("outcome") != "ok":
            continue
        engine = fields.get("engine")
        seconds = fields.get("seconds")
        if not isinstance(engine, str) or not _finite(seconds):
            continue
        features = {
            name: _capped(fields.get(name, 0.0)) for name in FEATURE_NAMES
        }
        observations.append(CostObservation(engine, float(seconds), features))
    return fit(observations)


# ---------------------------------------------------------------------- #
# the model: predict, order, persist
# ---------------------------------------------------------------------- #


class CostModel:
    """Per-engine wall-clock predictors with tier-safe chain ordering.

    A model with no calibrated engines (``CostModel()``, the cold-start
    and corrupt-file fallback) predicts from the closed forms, so it is
    always usable; :meth:`order_chain` never reorders across guarantee
    tiers regardless of how degenerate the calibration is.
    """

    __slots__ = ("engines", "source")

    def __init__(
        self,
        engines: Optional[Mapping[str, EngineCalibration]] = None,
        source: str = "",
    ):
        self.engines = dict(engines or {})
        self.source = source

    def calibrated(self, engine: str) -> bool:
        return engine in self.engines

    def predict_seconds(
        self, engine: str, features: Mapping[str, float]
    ) -> float:
        """Predicted wall-clock seconds (finite, positive, sortable).

        Uncalibrated engines price their closed form at
        :data:`CLOSED_FORM_UNIT_SECONDS` per work unit; a calibration
        whose weights produce a non-finite response predicts ``+inf``
        (it sorts last within its tier, never crashes a comparison).
        """
        calibration = self.engines.get(engine)
        if calibration is None:
            obs.inc("costmodel.closed_form")
            return static_cost(engine, features) * CLOSED_FORM_UNIT_SECONDS
        response = 0.0
        for weight, value in zip(calibration.weights, _design_row(features)):
            response += weight * value
        if not math.isfinite(response):
            return math.inf
        return math.exp(max(-_LOG_CLAMP, min(_LOG_CLAMP, response)))

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
        exact > relative > additive contract survives any calibration,
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

    # -- persistence ---------------------------------------------------- #

    def to_payload(self) -> Dict[str, Any]:
        return {
            "version": CALIBRATION_VERSION,
            "features": list(FEATURE_NAMES),
            "engines": {
                name: {
                    "weights": list(calibration.weights),
                    "observations": calibration.observations,
                    "rmse": calibration.rmse,
                }
                for name, calibration in sorted(self.engines.items())
            },
        }

    def save(self, path: Union[str, "os.PathLike"]) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_payload(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def from_payload(cls, payload: Any, source: str = "") -> "CostModel":
        """Validate a calibration payload; raise :class:`CalibrationError`.

        Per-engine validation is independent: a *partial* file keeps
        its valid engines and drops the broken ones (each drop counts
        one ``costmodel.fallback``) — a half-good calibration still
        beats closed forms for the engines it does cover.
        """
        if not isinstance(payload, dict):
            raise CalibrationError("calibration payload is not an object")
        if payload.get("version") != CALIBRATION_VERSION:
            raise CalibrationError(
                f"stale calibration version {payload.get('version')!r}; "
                f"expected {CALIBRATION_VERSION} — re-run `repro calibrate`"
            )
        if payload.get("features") != list(FEATURE_NAMES):
            raise CalibrationError(
                "calibration feature list does not match this build"
            )
        raw_engines = payload.get("engines")
        if not isinstance(raw_engines, dict):
            raise CalibrationError("calibration has no engines table")
        width = len(FEATURE_NAMES) + 1
        engines: Dict[str, EngineCalibration] = {}
        for name, entry in raw_engines.items():
            try:
                weights = tuple(float(w) for w in entry["weights"])
                if len(weights) != width:
                    raise ValueError("weight vector has the wrong length")
                if not all(math.isfinite(w) for w in weights):
                    raise ValueError("non-finite weight")
                observations = int(entry.get("observations", 0))
                rmse = float(entry.get("rmse", 0.0))
            except (TypeError, KeyError, ValueError):
                obs.inc("costmodel.fallback")
                continue
            engines[name] = EngineCalibration(weights, observations, rmse)
        return cls(engines, source=source)


def load_calibration(path: Union[str, "os.PathLike"]) -> CostModel:
    """Load and validate a calibration file; raise :class:`CalibrationError`."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise CalibrationError(f"cannot read calibration file: {exc}") from exc
    except ValueError as exc:
        raise CalibrationError(
            f"calibration file {path!s} is not valid JSON: {exc}"
        ) from exc
    return CostModel.from_payload(payload, source=str(path))


def load_or_fallback(path: Union[str, "os.PathLike"]) -> CostModel:
    """Load a calibration, degrading to closed forms instead of failing.

    A missing, unreadable, stale, or corrupt file yields a *cold*
    model (no calibrated engines → closed-form predictions) and one
    ``costmodel.fallback`` increment; `run`/`analyze` never crash on a
    bad calibration file.
    """
    try:
        return load_calibration(path)
    except CalibrationError as exc:
        obs.inc("costmodel.fallback")
        obs.event("costmodel.load_failed", path=str(path), detail=str(exc))
        return CostModel(source=str(path))


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


def resolve_model(
    model: Union[None, CostModel, str, "os.PathLike"]
) -> Optional[CostModel]:
    """Normalise a ``cost_model`` argument: None → active, path → load."""
    if model is None:
        return active_model()
    if isinstance(model, CostModel):
        return model
    return load_or_fallback(model)


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
    cost_model: Union[None, CostModel, str, "os.PathLike"] = None,
    race: Union[None, bool, float] = None,
    adaptive: Union[None, bool] = None,
):
    """Forecast the fallback executor's walk without running an engine.

    Builds the plan :func:`~repro.runtime.executor.run_with_fallback`
    would run for the same arguments and forecasts it with
    :func:`repro.runtime.plan.forecast` against ``budget`` (the active
    one when ``None``), which is never consumed.  The returned
    :class:`~repro.runtime.plan.ChainPlan` names the selected engine —
    under ``max_atoms`` / ``max_samples`` caps, the engine the run
    answers with.  ``race`` forecasts the speculative race instead
    (``plan.race``; ``selected`` is the predicted winner); ``adaptive``
    prices the surrogate's expected stopping.
    """
    from repro.runtime import plan

    built = plan.make_plan(
        db, query, DEFAULT_CHAIN if chain is None else chain,
        quantity, epsilon, delta, cost_model, race, adaptive,
        forecast=True,
    )
    return plan.forecast(built, budget if budget is not None else active_budget())


# ---------------------------------------------------------------------- #
# calibration: a seeded workload, run and fit in one call
# ---------------------------------------------------------------------- #


def calibration_workload(
    seed: int = 0, cases: int = 8
) -> List[Tuple[Any, Any, str]]:
    """A seeded mixed workload of (db, query, quantity) calibration cases.

    Mixes the fragments the engines specialise in: safe conjunctive
    (lifted), quantifier-free and small existential (exact), larger
    existential and universal (Karp–Luby vs Monte Carlo), and a binary
    query (per-cell amplification).  Database sizes stay small enough
    that every engine answers in well under a second — calibration is
    about *relative* cost.
    """
    from repro.workloads.random_db import random_unreliable_database

    rng = random.Random(seed)
    queries = [
        ("exists x. exists y. E(x, y) & S(y)", None, "reliability"),
        ("exists x. S(x)", None, "probability"),
        ("forall x. exists y. E(x, y) | S(x)", None, "reliability"),
        ("exists x. exists y. E(x, y) | (S(x) & S(y))", None, "reliability"),
        ("exists y. E(x, y)", ["x"], "reliability"),  # unary: per-cell costs
        ("S(x) & ~S(y)", ["x", "y"], "reliability"),  # quantifier-free, binary
    ]
    workload = []
    for index in range(cases):
        size = rng.choice((3, 4, 5))
        db = random_unreliable_database(
            random.Random(rng.getrandbits(32)),
            size=size,
            relations={"E": 2, "S": 1},
            density=rng.choice((0.3, 0.5)),
        )
        text, free, quantity = queries[index % len(queries)]
        workload.append((db, FOQuery(text, free), quantity))
    return workload


def calibrate(
    cases: Optional[Sequence[Tuple[Any, Any, str]]] = None,
    epsilon: float = 0.1,
    delta: float = 0.1,
    rng: int = 0,
    repeats: int = 2,
    seed: int = 0,
    budget: Optional[Budget] = None,
) -> CostModel:
    """Run the workload through every engine and fit a model.

    Each case is executed once per engine as a single-engine chain
    (engines that refuse or mismatch simply contribute no row), with a
    trace recorder capturing the executor's ``runtime.attempt.cost``
    events — the same pipeline a production trace file feeds through
    :func:`fit_from_trace`.  Repeats mix cold- and warm-cache timings.

    The accuracy targets are *spread* per case (``epsilon`` down to
    ``epsilon / 5``): the batched sampling kernels make wall-clock
    nearly flat in the sample count, and without observations across a
    wide ``kl_samples``/``mc_samples`` range the log-linear fit would
    extrapolate a steep sample-count slope onto tight-accuracy
    workloads and overpredict by orders of magnitude.
    """
    if cases is None:
        cases = calibration_workload(seed)
    run_budget = budget if budget is not None else Budget(max_atoms=14)
    sink = obs.ListSink()
    recorder = obs.StatsRecorder(sink=sink)
    previous = obs.set_recorder(recorder)
    try:
        spread = (1.0, 0.5, 0.2)
        for repeat in range(max(1, repeats)):
            for case_index, (db, query, quantity) in enumerate(cases):
                factor = spread[(case_index + repeat) % len(spread)]
                for engine in DEFAULT_CHAIN:
                    try:
                        run_with_fallback(
                            db,
                            query,
                            chain=(engine,),
                            budget=run_budget,
                            quantity=quantity,
                            epsilon=max(1e-3, epsilon * factor),
                            delta=max(1e-3, delta * factor),
                            rng=rng + repeat * 1000 + case_index,
                        )
                    except FallbackExhausted:
                        continue
    finally:
        obs.set_recorder(previous)
    model = fit_from_trace(sink.events)
    obs.inc("costmodel.calibrations")
    obs.gauge("costmodel.calibrated_engines", len(model.engines))
    return model
