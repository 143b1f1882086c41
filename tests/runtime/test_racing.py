"""Speculative racing: determinism, tier rules, cancellation, parity.

The virtual-clock scheduler (:class:`repro.runtime.faults.VirtualScheduler`)
makes every scripted interleaving replayable bit-for-bit, so these
tests assert *exact* winners, values, attempt logs, and
``runtime.race.*`` counters — not distributions.  A small real-thread
section checks the production :class:`ThreadScheduler` end to end.

``RACE_STRESS_SEEDS`` (environment) widens the determinism matrix for
the CI ``race-stress`` lane: each seed derives a fresh fault script and
the whole matrix re-runs.
"""

import os
import random

import pytest

from repro import obs
from repro.runtime import faults, racing
from repro.runtime.budget import Budget, CancelToken
from repro.runtime.executor import DEFAULT_CHAIN, run_with_fallback
from repro.util.errors import BudgetExceeded, FallbackExhausted, ResourceError

QUERY = "exists x. exists y. E(x, y) & S(y)"

# A non-conjunctive query: the dichotomy router skips the static tier
# and lets the samplers race.  QUERY itself is statically *safe*, so
# under the new routing a race on the default chain keeps only the
# exact-tier engines (sampling racers are suppressed, recorded as
# ``skipped_static``).
UNSAFE = "exists x y. E(x, y) & S(y) | exists x. S(x)"


def _race_counters(recorder):
    return {
        name: value
        for name, value in recorder.summary().get("counters", {}).items()
        if name.startswith("runtime.race")
    }


def _virtual_race(
    db,
    query=QUERY,
    script=None,
    chain=None,
    overlap=0.5,
    budget=None,
    rng=7,
    quantity="reliability",
    ticks=None,
):
    """One scripted race on the virtual clock; returns (result, counters).

    ``result`` is the ``RuntimeResult`` or the raised
    ``FallbackExhausted``; counters are the ``runtime.race.*`` slice.
    """
    recorder = obs.StatsRecorder(sink=obs.ListSink())
    scheduler = faults.VirtualScheduler(ticks=ticks)
    outcome = None
    with obs.use(recorder):
        with racing.use_scheduler(scheduler):
            with faults.inject(script or {}):
                try:
                    outcome = run_with_fallback(
                        db,
                        query,
                        chain=chain or DEFAULT_CHAIN,
                        budget=budget,
                        quantity=quantity,
                        rng=rng,
                        race=overlap,
                    )
                except FallbackExhausted as exc:
                    outcome = exc
    return outcome, _race_counters(recorder)


def _fingerprint(outcome):
    """Everything determinism promises to pin, as one comparable value."""
    if isinstance(outcome, FallbackExhausted):
        return (
            "exhausted",
            tuple((a.engine, a.outcome, a.elapsed) for a in outcome.attempts),
        )
    return (
        outcome.engine,
        outcome.value,
        outcome.elapsed,
        tuple((a.engine, a.outcome, a.elapsed) for a in outcome.attempts),
    )


# ---------------------------------------------------------------------- #
# winner selection and tier rules
# ---------------------------------------------------------------------- #


def test_fast_equal_tier_engine_cancels_a_stalled_one(triangle_db):
    """exact (same tier) finishes first and cancels a stalled safe_lifted."""
    result, counters = _virtual_race(
        triangle_db,
        script={"safe_lifted": faults.SlowdownFault(seconds=3.0)},
    )
    assert result.engine == "exact"
    outcomes = {a.engine: a.outcome for a in result.attempts}
    assert outcomes["safe_lifted"] == "cancelled"
    assert outcomes["exact"] == "ok"
    # QUERY is statically safe: the sampling racers were suppressed
    # before launch, not raced and cancelled.
    assert outcomes["karp_luby"] == "skipped_static"
    assert outcomes["montecarlo"] == "skipped_static"
    assert counters["runtime.race.won"] == 1
    assert counters["runtime.race.cancelled"] == 1
    # The win came at the stagger point, not after safe_lifted's stall.
    assert result.elapsed == pytest.approx(0.5 * racing.NOMINAL_SHARE_SECONDS)


def test_stronger_engine_preempts_a_weaker_finished_answer(triangle_db):
    """An exact answer arriving later preempts the held sampler answer."""
    result, counters = _virtual_race(
        triangle_db,
        query=UNSAFE,  # statically safe queries never launch samplers
        script={
            "karp_luby": faults.SlowdownFault(seconds=0.5),
            "exact": faults.SlowdownFault(seconds=1.0),
        },
        chain=("karp_luby", "exact"),
        overlap=0.0,
    )
    assert result.engine == "exact"
    assert result.guarantee == "exact"
    outcomes = {a.engine: a.outcome for a in result.attempts}
    assert outcomes["karp_luby"] == "preempted"
    assert counters["runtime.race.preempted"] == 1
    assert result.elapsed == pytest.approx(1.0)


def test_weaker_answer_never_preempts_a_stronger_one(triangle_db):
    """The reverse: exact finishes first, the sampler never wins."""
    result, _ = _virtual_race(
        triangle_db,
        query=UNSAFE,
        script={
            "exact": faults.SlowdownFault(seconds=0.5),
            "karp_luby": faults.SlowdownFault(seconds=0.6),
        },
        chain=("exact", "karp_luby"),
        overlap=0.0,
    )
    assert result.engine == "exact"
    outcomes = {a.engine: a.outcome for a in result.attempts}
    assert outcomes["karp_luby"] == "cancelled"


def test_failed_engine_falls_through_to_the_next(triangle_db):
    """A timed-out engine launches the next one immediately."""
    result, counters = _virtual_race(
        triangle_db,
        query=UNSAFE,  # safe_lifted skipped statically; samplers race
        script={"exact": faults.TimeoutFault()},
    )
    assert result.engine == "karp_luby"
    outcomes = {a.engine: a.outcome for a in result.attempts}
    assert outcomes["safe_lifted"] == "skipped_static"
    assert outcomes["exact"] == "budget_exceeded"
    # The failure cost no virtual time, so the winner decides at t=0.
    assert result.elapsed == pytest.approx(0.0)
    assert counters["runtime.race.launched"] == 2


def test_all_engines_failing_exhausts_with_full_attempt_log(triangle_db):
    script = {name: faults.TimeoutFault() for name in DEFAULT_CHAIN}
    outcome, counters = _virtual_race(triangle_db, script=script)
    assert isinstance(outcome, FallbackExhausted)
    # QUERY is safe: the samplers are statically suppressed, the
    # exact-tier racers fail for real, and the log covers all four.
    assert sorted(a.engine for a in outcome.attempts) == sorted(DEFAULT_CHAIN)
    by_engine = {a.engine: a.outcome for a in outcome.attempts}
    assert by_engine["safe_lifted"] == "budget_exceeded"
    assert by_engine["exact"] == "budget_exceeded"
    assert by_engine["karp_luby"] == "skipped_static"
    assert by_engine["montecarlo"] == "skipped_static"
    assert "runtime.race.won" not in counters


def test_engines_after_a_win_are_never_launched(triangle_db):
    """A decided race drops its pending tail — no speculative stragglers."""
    result, counters = _virtual_race(triangle_db, overlap=1.0)
    assert result.engine == "safe_lifted"
    assert counters["runtime.race.launched"] == 1
    launched = [a for a in result.attempts if a.outcome != "skipped_static"]
    assert len(launched) == 1


# ---------------------------------------------------------------------- #
# value parity and budget folding
# ---------------------------------------------------------------------- #


def test_race_value_equals_sequential_value(triangle_db):
    sequential = run_with_fallback(triangle_db, QUERY, rng=7)
    raced, _ = _virtual_race(triangle_db, rng=7)
    assert raced.engine == sequential.engine
    assert raced.value == sequential.value
    assert raced.guarantee == sequential.guarantee


def test_winner_value_equals_its_solo_sequential_value(triangle_db):
    """Per-attempt rng derivation: the race never perturbs a value."""
    raced, _ = _virtual_race(
        triangle_db,
        query=UNSAFE,
        script={"exact": faults.TimeoutFault()},
        rng=11,
    )
    assert raced.engine == "karp_luby"
    # The solo run needs the same trace cadence: a recorder caps sample
    # batches to the convergence-trace stride, which shifts the stream.
    with obs.use(obs.StatsRecorder(sink=obs.ListSink())):
        solo = run_with_fallback(
            triangle_db, UNSAFE, chain=("karp_luby",), rng=11
        )
    assert raced.value == solo.value


def test_loser_samples_fold_into_the_shared_budget(triangle_db):
    """Losers' real draws are charged after the race (winner's too)."""
    budget = Budget(max_samples=200_000)
    result, _ = _virtual_race(
        triangle_db,
        query=UNSAFE,
        script={
            "exact": faults.TimeoutFault(),
            "karp_luby": faults.SlowdownFault(seconds=2.0),
        },
        overlap=0.0,
        budget=budget,
    )
    assert result.engine == "montecarlo"
    assert budget.samples > 0


def test_deadline_exhausted_engines_fail_without_starting(triangle_db):
    scheduler = faults.VirtualScheduler()
    budget = Budget(deadline=1.0, max_samples=200_000, clock=scheduler.now)
    recorder = obs.StatsRecorder(sink=obs.ListSink())
    with obs.use(recorder):
        with racing.use_scheduler(scheduler):
            with faults.inject({"exact": faults.SlowdownFault(seconds=5.0)}):
                result = run_with_fallback(
                    triangle_db, UNSAFE, budget=budget, rng=7, race=0.5
                )
    # exact blows the shared deadline mid-stall (safe_lifted is skipped
    # statically); the samplers launched within the deadline window
    # still answer.
    assert result.engine in ("karp_luby", "montecarlo")


def test_overlap_validation():
    with pytest.raises(ResourceError):
        run_with_fallback(None, QUERY, race=-0.5)
    with pytest.raises(ResourceError):
        run_with_fallback(None, QUERY, race=float("inf"))


# ---------------------------------------------------------------------- #
# determinism: same script + seed => same everything
# ---------------------------------------------------------------------- #


def _script_from_seed(seed):
    """A deterministic fault script derived from one stress seed."""
    rng = random.Random(seed)
    script = {}
    for name in DEFAULT_CHAIN:
        roll = rng.random()
        if roll < 0.3:
            script[name] = faults.TimeoutFault()
        elif roll < 0.45:
            script[name] = faults.ExceptionFault()
        elif roll < 0.8:
            script[name] = faults.SlowdownFault(
                seconds=round(rng.uniform(0.0, 3.0), 3)
            )
    return script


def _stress_seeds():
    raw = os.environ.get("RACE_STRESS_SEEDS", "")
    if raw.strip():
        return [int(token) for token in raw.replace(",", " ").split()]
    return list(range(6))


@pytest.mark.parametrize("seed", _stress_seeds())
@pytest.mark.parametrize("overlap", [0.0, 0.5, 1.5])
def test_scripted_races_replay_bit_for_bit(triangle_db, seed, overlap):
    script = _script_from_seed(seed)
    first, counters_first = _virtual_race(
        triangle_db, script=script, overlap=overlap, rng=seed
    )
    second, counters_second = _virtual_race(
        triangle_db, script=script, overlap=overlap, rng=seed
    )
    assert _fingerprint(first) == _fingerprint(second)
    assert counters_first == counters_second


# ---------------------------------------------------------------------- #
# real threads (the production scheduler)
# ---------------------------------------------------------------------- #


def test_real_thread_race_smoke(triangle_db):
    sequential = run_with_fallback(triangle_db, QUERY, rng=7)
    raced = run_with_fallback(triangle_db, QUERY, rng=7, race=True)
    assert raced.engine == sequential.engine
    assert raced.value == sequential.value


def test_real_thread_race_with_stalled_first_engine(triangle_db):
    """A stalled safe_lifted engine loses to exact on the wall clock."""
    with faults.inject({"safe_lifted": faults.SlowdownFault(seconds=5.0)}):
        result = run_with_fallback(triangle_db, QUERY, rng=7, race=0.01)
    assert result.engine == "exact"
    assert result.elapsed < 2.0  # nowhere near the 5s stall


def test_race_sleep_outside_a_race_is_plain_sleep():
    racing.race_sleep(0.0)  # no scheduler, no token: must not raise


# ---------------------------------------------------------------------- #
# the budget-layer primitives racing is built from
# ---------------------------------------------------------------------- #


def test_cancel_token_checkpoint_raises():
    token = CancelToken()
    budget = Budget().child(token=token)
    budget.consume(samples=1)
    token.cancel("loser")
    with pytest.raises(BudgetExceeded, match="loser"):
        budget.consume(samples=1)


def test_racer_budget_ledgers_are_private():
    parent = Budget(max_samples=100)
    racer = parent.child(token=CancelToken(), reserved_samples=90)
    racer.consume(samples=5)
    assert parent.samples == 0
    assert racer.remaining_samples() == 5
    with pytest.raises(BudgetExceeded):
        racer.consume(samples=6)
    racer.close()
    assert parent.samples == 11  # the reservation is not charged


def test_racer_budget_checkpoint_hook_runs_first():
    calls = []
    token = CancelToken()
    racer = Budget().child(token=token, hook=lambda: calls.append(1))
    token.cancel()
    with pytest.raises(BudgetExceeded):
        racer.consume()
    assert calls == [1]  # the scheduler yield happened before the check
