"""Property-based tests for the adaptive controller and cost surrogate.

Hypothesis sweeps the knobs the unit tests pin:

* the stopping time is monotone in both ``epsilon`` and ``delta`` —
  asking for a weaker guarantee can never cost more samples, because
  at any fixed checkpoint the data are identical and the stopping
  predicate is monotone in both parameters;
* the controller never stops before the first canonical checkpoint
  (one full block), and never draws past the worst case;
* the unspent-budget refund is never negative and always accounts
  exactly: ``drawn + saved == worst``;
* the surrogate's exponentially-weighted refit never degrades its
  prediction on its own training window: the EW estimate is the
  weighted mean for the EW weights, so its weighted SSE is no worse
  than the cold (worst-case 1.0) prediction it replaces.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.runtime.adaptive import (
    ADAPTIVE_BLOCK_BITS,
    CostSurrogate,
    adaptive_mean,
    block_layout,
    check_grid,
    sequential_delta,
    use_surrogate,
)

SETTINGS = settings(max_examples=25, deadline=None)


def bernoulli_draw(p):
    """A (block rng, width) -> (sum, sum of squares) Bernoulli block."""

    def draw(rng, width):
        hits = float(sum(rng.random() < p for _ in range(width)))
        return hits, hits

    return draw


def run(seed, p, worst, epsilon, delta, mode="additive"):
    with use_surrogate(CostSurrogate()):
        return adaptive_mean(
            bernoulli_draw(p),
            random.Random(seed),
            worst,
            epsilon,
            delta,
            mode=mode,
        )


# --------------------------------------------------------------------- #
# Stopping-time monotonicity
# --------------------------------------------------------------------- #


@SETTINGS
@given(
    seed=st.integers(0, 2**16),
    p=st.floats(0.0, 1.0),
    worst=st.integers(1, 2048),
    epsilons=st.tuples(st.floats(0.02, 0.5), st.floats(0.02, 0.5)),
    delta=st.floats(0.01, 0.5),
    mode=st.sampled_from(["additive", "relative"]),
)
def test_stopping_time_monotone_in_epsilon(
    seed, p, worst, epsilons, delta, mode
):
    tight, loose = sorted(epsilons)
    demanding = run(seed, p, worst, tight, delta, mode)
    relaxed = run(seed, p, worst, loose, delta, mode)
    assert relaxed.drawn <= demanding.drawn


@SETTINGS
@given(
    seed=st.integers(0, 2**16),
    p=st.floats(0.0, 1.0),
    worst=st.integers(1, 2048),
    epsilon=st.floats(0.02, 0.5),
    deltas=st.tuples(st.floats(0.01, 0.5), st.floats(0.01, 0.5)),
    mode=st.sampled_from(["additive", "relative"]),
)
def test_stopping_time_monotone_in_delta(
    seed, p, worst, epsilon, deltas, mode
):
    confident, sloppy = sorted(deltas)
    demanding = run(seed, p, worst, epsilon, confident, mode)
    relaxed = run(seed, p, worst, epsilon, sloppy, mode)
    assert relaxed.drawn <= demanding.drawn


# --------------------------------------------------------------------- #
# Schedule floor, ceiling, and exact refund accounting
# --------------------------------------------------------------------- #


@SETTINGS
@given(
    seed=st.integers(0, 2**16),
    p=st.floats(0.0, 1.0),
    worst=st.integers(1, 2048),
    epsilon=st.floats(0.02, 0.5),
    delta=st.floats(0.01, 0.5),
)
def test_never_stops_before_first_block_never_exceeds_worst(
    seed, p, worst, epsilon, delta
):
    result = run(seed, p, worst, epsilon, delta)
    assert result.drawn >= min(worst, ADAPTIVE_BLOCK_BITS)
    assert result.drawn <= worst
    assert result.checks >= 1


@SETTINGS
@given(
    seed=st.integers(0, 2**16),
    p=st.floats(0.0, 1.0),
    worst=st.integers(1, 2048),
    epsilon=st.floats(0.02, 0.5),
    delta=st.floats(0.01, 0.5),
)
def test_refund_never_negative_and_accounts_exactly(
    seed, p, worst, epsilon, delta
):
    with use_surrogate(CostSurrogate()):
        with obs.recording() as rec:
            result = adaptive_mean(
                bernoulli_draw(p), random.Random(seed), worst, epsilon, delta
            )
        counters = rec.summary()["counters"]
    assert result.saved >= 0
    assert result.drawn + result.saved == worst
    assert counters["adaptive.samples_saved"] == result.saved
    assert counters["adaptive.samples_drawn"] == result.drawn


@SETTINGS
@given(worst=st.integers(1, 1 << 16))
def test_block_layout_and_grid_are_canonical(worst):
    layout = block_layout(worst)
    assert sum(width for _, width in layout) == worst
    assert all(
        width == ADAPTIVE_BLOCK_BITS for _, width in layout[:-1]
    )
    assert [index for index, _ in layout] == list(range(len(layout)))
    grid = check_grid(len(layout))
    assert grid[0] == 1
    assert grid[-1] == len(layout)
    assert list(grid) == sorted(set(grid))


@SETTINGS
@given(delta=st.floats(0.01, 0.99), checks=st.integers(1, 64))
def test_sequential_deltas_union_bound_under_delta(delta, checks):
    # Two bounds per checkpoint; the total failure budget stays < delta
    # no matter how many checkpoints the grid ends up with.
    spent = sum(
        2.0 * sequential_delta(delta, check)
        for check in range(1, checks + 1)
    )
    assert spent < delta


# --------------------------------------------------------------------- #
# Surrogate refit quality on its own training window
# --------------------------------------------------------------------- #


@SETTINGS
@given(
    observations=st.lists(
        st.tuples(st.integers(1, 1000), st.integers(1, 1000)),
        min_size=1,
        max_size=32,
    ),
    alpha=st.floats(0.05, 1.0),
)
def test_surrogate_refit_never_degrades_on_training_window(
    observations, alpha
):
    surrogate = CostSurrogate(alpha=alpha)
    fractions = []
    for drawn, worst in observations:
        drawn = min(drawn, worst)
        surrogate.observe("karp_luby", drawn, worst)
        fractions.append(
            min(1.0, max(surrogate.floor, drawn / worst))
        )
    predicted = surrogate.expected_fraction("karp_luby")
    # The EW estimate is the weighted mean for the EW weights ...
    n = len(fractions)
    weights = [
        (1.0 - alpha) ** (n - 1) if i == 0
        else alpha * (1.0 - alpha) ** (n - 1 - i)
        for i in range(n)
    ]
    assert abs(sum(weights) - 1.0) < 1e-9
    sse = lambda guess: sum(
        weight * (fraction - guess) ** 2
        for weight, fraction in zip(weights, fractions)
    )
    # ... so on its weighted training window it can never predict
    # worse than the cold worst-case fraction it replaces.
    assert sse(predicted) <= sse(1.0) + 1e-9
    assert surrogate.floor <= predicted <= 1.0


@SETTINGS
@given(
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16),
    stale_after=st.integers(1, 8),
)
def test_surrogate_staleness_reverts_to_worst_case(
    fractions, stale_after
):
    surrogate = CostSurrogate(stale_after=stale_after)
    for fraction in fractions:
        surrogate.observe("karp_luby", int(fraction * 1000), 1000)
    # Fresh: some learned value in [floor, 1].  Then a flood of other
    # activity ages the kind past the staleness window.
    assert surrogate.floor <= surrogate.expected_fraction("karp_luby") <= 1.0
    for _ in range(stale_after + 1):
        surrogate.observe("montecarlo", 500, 1000)
    assert surrogate.expected_fraction("karp_luby") == 1.0
    assert surrogate.expected_fraction("unknown_kind") == 1.0
