"""Property-based racing tests: arbitrary chains, budgets, fault scripts.

Each Hypothesis example scripts a fault schedule onto the virtual
clock and checks the executor-level invariants that hold for *every*
interleaving, not just the hand-picked ones in ``test_racing.py``:

* the winner is an engine from the requested chain;
* the raced value is bit-identical to the winner's solo sequential
  value under the same rng seed — losers' partial work never leaks;
* no *launched* strictly-stronger engine lost the race by cancellation:
  a stronger contender either fails on its own or wins (tier safety);
* when the race exhausts, the sequential walk under the same failure
  faults exhausts too, engine for engine (exhaustion parity).
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.safety import classify_dichotomy
from repro.relational.atoms import Atom
from repro.relational.builder import StructureBuilder
from repro.reliability.unreliable import UnreliableDatabase
from repro.runtime import costmodel, executor, faults, racing
from repro.runtime.budget import Budget
from repro.runtime.executor import (
    DEFAULT_CHAIN,
    race_partition,
    run_with_fallback,
)
from repro.util.errors import FallbackExhausted

QUERY = "exists x. exists y. E(x, y) & S(y)"

# QUERY is statically safe, so the dichotomy router trims every race
# chain that contains an exact-tier engine down to its exact-tier
# members before launch; the suppressed engines are logged as
# ``skipped_static`` attempts, never launched.
VERDICT = classify_dichotomy(QUERY)

FAILURE_OUTCOMES = {"cost_refused", "budget_exceeded", "fragment_mismatch"}


def _make_db():
    builder = StructureBuilder(["a", "b", "c"])
    builder.relation("E", 2)
    builder.relation("S", 1)
    builder.add("E", ("a", "b"))
    builder.add("E", ("b", "c"))
    builder.add("S", ("b",))
    mu = {
        Atom("E", ("a", "c")): Fraction(1, 10),
        Atom("E", ("a", "b")): Fraction(1, 4),
        Atom("S", ("a",)): Fraction(1, 3),
        Atom("S", ("b",)): Fraction(1, 5),
    }
    return UnreliableDatabase(builder.build(), mu)


DB = _make_db()


def _rank(engine, quantity="reliability"):
    return executor.GUARANTEE_RANK[costmodel.engine_guarantee(engine, quantity)]


FAULTS = st.one_of(
    st.just(faults.TimeoutFault()),
    st.just(faults.ExceptionFault()),
    st.builds(
        faults.SlowdownFault,
        seconds=st.floats(0.0, 3.0, allow_nan=False).map(lambda s: round(s, 3)),
    ),
)

CHAINS = st.lists(
    st.sampled_from(DEFAULT_CHAIN), min_size=1, max_size=4, unique=True
)

SCRIPTS = st.dictionaries(st.sampled_from(DEFAULT_CHAIN), FAULTS, max_size=4)

OVERLAPS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])

SEEDS = st.integers(min_value=0, max_value=2**16)

BUDGETS = st.sampled_from([None, "samples"])


def _race(chain, script, overlap, seed, budget_kind):
    budget = Budget(max_samples=500_000) if budget_kind == "samples" else None
    with racing.use_scheduler(faults.VirtualScheduler()):
        with faults.inject(script):
            try:
                return run_with_fallback(
                    DB,
                    QUERY,
                    chain=chain,
                    budget=budget,
                    rng=seed,
                    race=overlap,
                )
            except FallbackExhausted as exc:
                return exc


@settings(max_examples=50, deadline=None, database=None)
@given(
    chain=CHAINS,
    script=SCRIPTS,
    overlap=OVERLAPS,
    seed=SEEDS,
    budget_kind=BUDGETS,
)
def test_race_invariants(chain, script, overlap, seed, budget_kind):
    outcome = _race(tuple(chain), script, overlap, seed, budget_kind)

    # What the dichotomy router actually launches for this safe query.
    race_chain, suppressed = race_partition(
        tuple(chain), VERDICT, "reliability"
    )

    if isinstance(outcome, FallbackExhausted):
        # Exhaustion parity: every *launched* engine failed on its own,
        # so the sequential walk over the same trimmed chain under the
        # same failure faults (slowdowns change timing, never outcomes)
        # must exhaust identically.  Statically suppressed engines show
        # up as skipped_static, never as failures.
        skipped = [a for a in outcome.attempts if a.outcome == "skipped_static"]
        launched = [a for a in outcome.attempts if a.outcome != "skipped_static"]
        assert [a.engine for a in skipped] == [name for name, _ in suppressed]
        assert [a.engine for a in launched] == list(race_chain)
        assert all(a.outcome in FAILURE_OUTCOMES for a in launched)
        hard_faults = {
            name: fault
            for name, fault in script.items()
            if not isinstance(fault, faults.SlowdownFault)
        }
        try:
            with faults.inject(hard_faults):
                run_with_fallback(DB, QUERY, chain=race_chain, rng=seed)
            sequential_attempts = None
        except FallbackExhausted as exc:
            sequential_attempts = [(a.engine, a.outcome) for a in exc.attempts]
        assert sequential_attempts == [
            (a.engine, a.outcome) for a in launched
        ]
        return

    # The winner came from the requested chain.
    assert outcome.engine in chain

    # Tier safety: a launched strictly-stronger engine never loses by
    # cancellation — it either failed on its own or would have won.
    winner_rank = _rank(outcome.engine)
    for attempt in outcome.attempts:
        if attempt.engine != outcome.engine and _rank(attempt.engine) < winner_rank:
            assert attempt.outcome in FAILURE_OUTCOMES

    # Value parity: the raced value is exactly the winner's solo
    # sequential value for the same seed — no loser state leaked in.
    solo = run_with_fallback(DB, QUERY, chain=(outcome.engine,), rng=seed)
    assert outcome.value == solo.value
    assert outcome.guarantee == solo.guarantee
