"""Adaptive sequential sampling with empirical-Bernstein stopping.

Corollary 5.5 sizes the Karp-Luby and Monte-Carlo estimators from the
worst-case Hoeffding bound, so a fixed-budget run burns the whole
budget even when the empirical variance certifies the (epsilon, delta)
guarantee long before.  This module adds the sequential alternative:

* :func:`adaptive_mean` — the controller.  It draws samples in fixed
  :data:`ADAPTIVE_BLOCK_BITS`-wide blocks through the bit-parallel
  kernels, maintains both a Hoeffding and an empirical-Bernstein
  (Maurer-Pontil) confidence interval, and stops at the first
  checkpoint of a canonical geometric grid where the requested
  guarantee holds.  Sequential validity comes from a union bound:
  check ``t`` runs both bounds at level ``delta / (2 t (t + 1))``, so
  the total failure probability over every checkpoint is below
  ``delta`` — the stopped answer carries the *same* (epsilon, delta)
  contract as the exhausted one.

* Determinism.  Block ``j`` is always ``ADAPTIVE_BLOCK_BITS`` samples
  wide (the last block truncates to the worst-case budget) and is
  seeded by ``batch_rng(base, j)``; the stopping grid is a pure
  function of the worst-case budget.  The answer is therefore a pure
  function of (plan, seed, worst-case budget, epsilon, delta, mode),
  bit-identical whether tracing is on or off.

* :class:`CostSurrogate` — the online feedback half.  Every stopped
  run records ``drawn / worst`` for its engine kind; the surrogate
  keeps an exponentially-weighted estimate of that shrink fraction and
  :func:`surrogate_adjusted` wraps a :class:`~repro.runtime.costmodel.
  CostModel` so predicted seconds for the sampling engines scale by
  the expected fraction.  The wrapped model is part of the one plan
  (:func:`repro.runtime.plan.make_plan`) that ``run_with_fallback``
  executes and ``plan_chain`` forecasts, so analyze/run agreement
  survives adaptivity; serve admission sees cheaper expected costs and admits
  more under the same deadline.  The surrogate is staleness-guarded:
  a kind that has not observed anything recently (or ever) falls back
  to the worst-case fraction 1.0.
"""

from __future__ import annotations

import math
import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro import obs
from repro.kernels.sampling import run_batches, split_layout
from repro.runtime.costmodel import CostModel

#: Fixed width of one adaptive sampling block.  Every block except the
#: last is exactly this many samples; the block index alone determines
#: its stream (``batch_rng(base, index)``).
ADAPTIVE_BLOCK_BITS = 256

#: Stopping modes: ``additive`` certifies ``|estimate - mean| <=
#: epsilon``; ``relative`` certifies ``|estimate - mean| <= epsilon *
#: mean`` (via the lower confidence bound, so it never stops while the
#: mean could still be zero).
MODES = ("additive", "relative")

#: Stop reasons recorded on :class:`AdaptiveRun` and in the
#: ``adaptive.stop`` event.
REASONS = ("eb", "hoeffding", "exhausted")


@dataclass(frozen=True)
class AdaptiveRun:
    """Outcome of one sequential run.

    ``mean`` is the plain sample mean of the drawn blocks (callers
    rescale it to their estimator's units); ``half_width`` is the
    confidence half-width at the stopping checkpoint (worst-case
    ``inf`` when the budget was exhausted before the first check could
    certify anything, which still satisfies the contract because the
    exhausted budget is the Hoeffding worst case).
    """

    mean: float
    drawn: int
    worst: int
    blocks: int
    checks: int
    reason: str
    half_width: float

    @property
    def saved(self) -> int:
        return self.worst - self.drawn


def block_layout(worst: int) -> Tuple[Tuple[int, int], ...]:
    """The fixed ``(index, width)`` blocks covering ``worst`` samples."""
    if worst <= 0:
        raise ValueError("worst-case budget must be positive")
    return tuple(split_layout(worst, ADAPTIVE_BLOCK_BITS))


def check_grid(total_blocks: int) -> Tuple[int, ...]:
    """Cumulative block counts at which stopping is checked.

    Geometric doubling (1, 2, 4, ...) plus the final block: O(log n)
    checks keep the union-bound penalty small while still stopping
    within a factor ~2 of the oracle stopping time.
    """
    if total_blocks <= 0:
        raise ValueError("need at least one block")
    grid = []
    count = 1
    while count < total_blocks:
        grid.append(count)
        count <<= 1
    grid.append(total_blocks)
    return tuple(grid)


def sequential_delta(delta: float, check: int) -> float:
    """The per-bound failure budget at 1-indexed checkpoint ``check``.

    Two bounds (Hoeffding and empirical-Bernstein) are evaluated per
    checkpoint, so each gets ``delta / (2 t (t + 1))``; the sum over
    all checkpoints and both bounds is below ``delta``.
    """
    return delta / (2.0 * check * (check + 1))


def hoeffding_half_width(drawn: int, delta_t: float) -> float:
    """Two-sided Hoeffding half-width for range-[0, 1] samples."""
    return math.sqrt(math.log(2.0 / delta_t) / (2.0 * drawn))


def bernstein_half_width(
    drawn: int, variance: float, delta_t: float
) -> float:
    """Empirical-Bernstein (Maurer-Pontil) half-width, range [0, 1]."""
    log_term = math.log(3.0 / delta_t)
    return (
        math.sqrt(2.0 * variance * log_term / drawn)
        + 3.0 * log_term / drawn
    )


def _sample_variance(total: float, total_sq: float, drawn: int) -> float:
    if drawn < 2:
        return 0.0
    mean = total / drawn
    return max(0.0, (total_sq - drawn * mean * mean) / (drawn - 1))


def adaptive_mean(
    draw: Callable[[random.Random, int], Tuple[float, float]],
    rng: random.Random,
    worst: int,
    epsilon: float,
    delta: float,
    mode: str = "additive",
    kind: str = "montecarlo",
) -> AdaptiveRun:
    """Sequentially estimate a [0, 1]-valued mean to (epsilon, delta).

    ``draw(batch_rng, width)`` returns one block's ``(sum, sum of
    squares)`` of per-sample values in [0, 1], drawn from the block's
    own generator (the kernel workers do).  ``rng`` contributes one
    ``getrandbits(64)``, the base of every block generator, as in a
    fixed-budget run.  ``worst`` is the fixed-budget worst case — the
    controller never draws more, so an adaptive run is never more
    expensive than the run it replaces.  The blocks run through the
    kernels' one sample loop (:func:`~repro.kernels.sampling.
    run_batches`), which charges each block to the budget before
    drawing it.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if mode not in MODES:
        raise ValueError(f"unknown adaptive mode {mode!r}")

    layout = block_layout(worst)
    trace = obs.enabled()
    checks = 0
    reason = "exhausted"
    half_width = math.inf

    def stop(tally) -> bool:
        nonlocal checks, reason, half_width
        checks += 1
        delta_t = sequential_delta(delta, checks)
        drawn = tally.drawn
        mean = tally.total / drawn
        variance = _sample_variance(tally.total, tally.total_sq, drawn)
        hoeffding = hoeffding_half_width(drawn, delta_t)
        bernstein = bernstein_half_width(drawn, variance, delta_t)
        half_width = min(hoeffding, bernstein)
        if trace:
            obs.event(
                "adaptive.batch",
                kind=kind,
                samples=drawn,
                estimate=mean,
                half_width=half_width,
            )
        if mode == "additive":
            stopped = half_width <= epsilon
        else:
            lower = mean - half_width
            stopped = lower > 0.0 and half_width <= epsilon * lower
        if stopped:
            reason = "eb" if bernstein <= hoeffding else "hoeffding"
        return stopped

    with obs.span("adaptive.run", kind=kind, mode=mode, worst=worst):
        tally = run_batches(
            draw, rng, layout, stop=stop, grid=check_grid(len(layout))
        )

    drawn = tally.drawn
    mean = tally.total / drawn
    run = AdaptiveRun(
        mean=mean,
        drawn=drawn,
        worst=worst,
        blocks=tally.batches,
        checks=checks,
        reason=reason,
        half_width=half_width,
    )
    obs.inc("adaptive.runs")
    obs.inc("adaptive.batches", tally.batches)
    obs.inc("adaptive.samples_drawn", drawn)
    obs.inc("adaptive.samples_saved", run.saved)
    if run.saved > 0:
        obs.inc("adaptive.stopped_early")
    if trace:
        obs.event(
            "adaptive.stop",
            kind=kind,
            reason=run.reason,
            samples=drawn,
            saved=run.saved,
            batches=tally.batches,
            half_width=half_width,
            estimate=mean,
        )
    active_surrogate().observe(kind, drawn, worst)
    return run


# ---------------------------------------------------------------------------
# The online cost surrogate.
# ---------------------------------------------------------------------------

#: Exponential weight of the newest observation in the shrink-fraction
#: refit.
SURROGATE_ALPHA = 0.2
#: Shrink fractions are clamped to this floor: a surrogate may make a
#: sampling engine look cheap, never free.
SURROGATE_FLOOR = 0.05
#: A kind whose last observation is more than this many surrogate
#: observations old (counting every kind) is stale and reverts to the
#: worst-case fraction until it observes again.
SURROGATE_STALE_AFTER = 256


class CostSurrogate:
    """Exponentially-weighted online model of adaptive sample savings.

    For each engine kind (``karp_luby``, ``montecarlo``) it tracks the
    shrink fraction ``drawn / worst`` of completed adaptive runs and
    predicts the expected fraction of the worst-case budget a future
    run will actually draw.  Predictions are guarded: with no
    observations — or none recently (:data:`SURROGATE_STALE_AFTER`) —
    it returns the worst-case 1.0, so a cold or stale surrogate can
    only make forecasts *more* conservative, never optimistic.
    """

    def __init__(
        self,
        alpha: float = SURROGATE_ALPHA,
        floor: float = SURROGATE_FLOOR,
        stale_after: int = SURROGATE_STALE_AFTER,
    ):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.floor = floor
        self.stale_after = stale_after
        self._lock = threading.Lock()
        self._fractions: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}
        self._epochs: Dict[str, int] = {}
        self._epoch = 0

    def observe(self, kind: str, drawn: int, worst: int) -> None:
        """Record one completed adaptive run's shrink fraction."""
        if worst <= 0:
            return
        fraction = min(1.0, max(self.floor, drawn / worst))
        with self._lock:
            self._epoch += 1
            if kind in self._fractions:
                previous = self._fractions[kind]
                self._fractions[kind] = (
                    (1.0 - self.alpha) * previous + self.alpha * fraction
                )
            else:
                self._fractions[kind] = fraction
            self._counts[kind] = self._counts.get(kind, 0) + 1
            self._epochs[kind] = self._epoch
            refit = self._fractions[kind]
        obs.inc("adaptive.surrogate.observations")
        obs.gauge(f"adaptive.surrogate.fraction.{kind}", refit)

    def expected_fraction(self, kind: str) -> float:
        """Predicted ``drawn / worst`` for the next run of ``kind``."""
        with self._lock:
            if kind not in self._fractions:
                return 1.0
            if self._epoch - self._epochs[kind] > self.stale_after:
                return 1.0
            return self._fractions[kind]

    def observations(self, kind: Optional[str] = None) -> int:
        with self._lock:
            if kind is not None:
                return self._counts.get(kind, 0)
            return sum(self._counts.values())

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                kind: {
                    "fraction": self._fractions[kind],
                    "observations": float(self._counts[kind]),
                }
                for kind in sorted(self._fractions)
            }


_active_surrogate = CostSurrogate()
_surrogate_lock = threading.Lock()


def active_surrogate() -> CostSurrogate:
    """The process-wide surrogate adaptive runs report into."""
    return _active_surrogate


def set_surrogate(surrogate: CostSurrogate) -> CostSurrogate:
    """Install ``surrogate`` as the active one; returns the previous."""
    global _active_surrogate
    with _surrogate_lock:
        previous = _active_surrogate
        _active_surrogate = surrogate
    return previous


@contextmanager
def use_surrogate(surrogate: CostSurrogate) -> Iterator[CostSurrogate]:
    """Scoped :func:`set_surrogate` — restores the previous on exit."""
    previous = set_surrogate(surrogate)
    try:
        yield surrogate
    finally:
        set_surrogate(previous)


#: Engine names whose predicted seconds scale with the surrogate's
#: expected shrink fraction — exactly the sampling engines the adaptive
#: controller can stop early.
ADJUSTED_ENGINES = ("karp_luby", "montecarlo")


class SurrogateAdjustedModel(CostModel):
    """A :class:`CostModel` whose sampling forecasts expect stopping.

    Wraps a base model: predicted seconds for the sampling engines are
    multiplied by the surrogate's expected shrink fraction; everything
    else — calibration provenance, chain ordering policy — delegates
    to :class:`CostModel` semantics via the adjusted predictions.
    :func:`repro.runtime.plan.make_plan` builds this wrapper once per
    plan, for the run and its forecast alike, which is what keeps
    analyze/run agreement exact with adaptivity on.
    """

    __slots__ = ("base", "surrogate")

    def __init__(self, base: CostModel, surrogate: CostSurrogate):
        super().__init__(base.engines, base.source)
        self.base = base
        self.surrogate = surrogate

    def predict_seconds(self, engine: str, features) -> float:
        seconds = self.base.predict_seconds(engine, features)
        if engine in ADJUSTED_ENGINES:
            seconds *= self.surrogate.expected_fraction(engine)
        return seconds


def surrogate_adjusted(
    model: CostModel, surrogate: Optional[CostSurrogate] = None
) -> CostModel:
    """Wrap ``model`` with the (active) surrogate's expected stopping."""
    if surrogate is None:
        surrogate = active_surrogate()
    if isinstance(model, SurrogateAdjustedModel):
        return model
    return SurrogateAdjustedModel(model, surrogate)


def expected_samples(worst: int, kind: str) -> int:
    """The surrogate's expected draw count for a worst-case budget."""
    fraction = active_surrogate().expected_fraction(kind)
    return max(1, math.ceil(worst * fraction))
