"""Bit-column primitives: popcount, dyadic expansion, Bernoulli columns."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.bitops import (
    BATCH_BITS,
    MIN_BATCH_BITS,
    TARGET_WORKING_BITS,
    add_to_counter,
    bernoulli_column,
    column_bits,
    count_tally,
    dyadic_bits,
    full_mask,
    iter_set_bits,
    pick_batch_bits,
    popcount,
)


def test_popcount_matches_bin_count():
    rng = random.Random(1)
    for _ in range(50):
        value = rng.getrandbits(rng.randint(1, 4096))
        assert popcount(value) == bin(value).count("1")
    assert popcount(0) == 0
    assert popcount(full_mask(BATCH_BITS)) == BATCH_BITS


def test_full_mask():
    assert full_mask(1) == 1
    assert full_mask(8) == 0xFF
    assert full_mask(64) == (1 << 64) - 1


def test_dyadic_bits_reconstruct_the_probability():
    rng = random.Random(2)
    for _ in range(100):
        p = rng.random()
        bits = dyadic_bits(p)
        value = Fraction(0)
        for k, bit in enumerate(bits, start=1):
            value += Fraction(bit, 2**k)
        assert value == Fraction(p)


def test_dyadic_bits_degenerate_probabilities():
    assert dyadic_bits(0.0) == ()
    assert dyadic_bits(1.0) == ()
    assert dyadic_bits(-0.5) == ()
    assert dyadic_bits(1.5) == ()


def test_dyadic_bits_exact_halves():
    assert dyadic_bits(0.5) == (1,)
    assert dyadic_bits(0.25) == (0, 1)
    assert dyadic_bits(0.75) == (1, 1)


def test_bernoulli_column_matches_scalar_stream():
    """The column kernel is a drop-in for ``rng.random() < p`` lanes.

    Not the same stream (the column kernel consumes ``getrandbits``),
    but the *distribution* must match exactly: the per-lane probability
    of a set bit is the dyadic expansion of ``p``.
    """
    width = 20000
    full = full_mask(width)
    for p in (0.5, 0.25, 1.0 / 3.0, 0.9):
        bits = dyadic_bits(p)
        column = bernoulli_column(random.Random(7), width, bits, full)
        rate = popcount(column) / width
        assert abs(rate - p) < 0.02, (p, rate)


def test_bernoulli_column_stays_in_width():
    full = full_mask(64)
    column = bernoulli_column(random.Random(3), 64, dyadic_bits(0.7), full)
    assert column & ~full == 0


def test_bernoulli_column_empty_bits_is_zero():
    assert bernoulli_column(random.Random(3), 64, (), full_mask(64)) == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bernoulli_column_exact_dyadic_rate(seed):
    """For p = 1/2 each lane is one fair coin — match a replayed stream."""
    width = 256
    full = full_mask(width)
    column = bernoulli_column(random.Random(seed), width, (1,), full)
    replay = random.Random(seed).getrandbits(width)
    # p = 1/2 sets the lane exactly when the stream bit is 0 (the lane
    # value is *less than* the p-bit).
    assert column == ~replay & full


class CountingRandom(random.Random):
    """A generator that counts its ``getrandbits`` calls."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


@pytest.mark.parametrize("p", [0.05, 0.3, 1.0 / 3.0, 0.7, 0.9])
def test_bernoulli_column_stops_once_every_lane_is_decided(p):
    """Non-dyadic p has a ~53-bit expansion; a 4096-lane column should
    be decided after about log2(4096) + 2 draws, not 53."""
    width = 4096
    full = full_mask(width)
    bits = dyadic_bits(p)
    assert len(bits) > 50
    rng = CountingRandom(17)
    columns = 40
    ones = 0
    for _ in range(columns):
        ones += popcount(bernoulli_column(rng, width, bits, full))
    assert rng.calls / columns <= 20, rng.calls / columns
    # ... and the early exit keeps the rate exact.
    total = columns * width
    assert abs(ones / total - p) < 5 * math.sqrt(p * (1 - p) / total)


def test_column_bits_marks_certain_variables():
    assert column_bits(1.0) is None
    assert column_bits(Fraction(3, 2)) is None
    assert column_bits(0.0) == ()
    assert column_bits(0.25) == dyadic_bits(0.25)
    full = full_mask(64)
    assert bernoulli_column(random.Random(3), 64, column_bits(1.0), full) == full


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(min_value=1, max_value=200),
    seed=st.integers(min_value=0, max_value=2**32),
    masks=st.integers(min_value=0, max_value=40),
)
def test_count_tally_matches_per_lane_counting(width, seed, masks):
    rng = random.Random(seed)
    full = full_mask(width)
    planes = []
    naive = [0] * width
    for _ in range(masks):
        mask = rng.getrandbits(width) & rng.getrandbits(width)
        add_to_counter(planes, mask)
        for lane in range(width):
            naive[lane] += mask >> lane & 1
    expected = {}
    for count in naive:
        expected[count] = expected.get(count, 0) + 1
    tally = count_tally(planes, full)
    assert dict(tally) == expected
    assert len(tally) == len(expected)  # no count listed twice


def test_iter_set_bits_round_trip():
    rng = random.Random(11)
    for _ in range(20):
        value = rng.getrandbits(300)
        assert sum(1 << i for i in iter_set_bits(value)) == value
    assert list(iter_set_bits(0)) == []


def test_pick_batch_bits_tiny_budget_narrows_to_the_budget():
    assert pick_batch_bits(1) == 1
    assert pick_batch_bits(17) == 17
    assert pick_batch_bits(BATCH_BITS - 1) == BATCH_BITS - 1


def test_pick_batch_bits_defaults_to_full_width():
    assert pick_batch_bits(0) == BATCH_BITS  # 0 = unlimited budget
    assert pick_batch_bits(10**9) == BATCH_BITS
    # Up to 512 lanes the working set fits: no narrowing.
    assert pick_batch_bits(10**9, lanes=512) == BATCH_BITS


def test_pick_batch_bits_narrows_for_wide_plans():
    assert pick_batch_bits(10**9, lanes=1024) == TARGET_WORKING_BITS // 1024
    assert pick_batch_bits(10**9, lanes=4096) == TARGET_WORKING_BITS // 4096
    # ... but never below one machine word per column.
    assert pick_batch_bits(10**9, lanes=10**9) == MIN_BATCH_BITS
    # The budget cap still applies after lane narrowing.
    assert pick_batch_bits(48, lanes=10**9) == 48
