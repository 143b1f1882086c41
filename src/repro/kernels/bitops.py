"""Big-int bit columns: the data layout of every batched kernel.

A *column* is one Python integer whose bit ``s`` holds a propositional
variable's value in sample ``s``.  A batch of ``S`` worlds over ``V``
variables is then just ``V`` integers of ``S`` bits each, and a DNF
clause is evaluated for all ``S`` worlds with ``len(clause)`` AND ops.

Two primitives live here:

* :func:`popcount` — ``int.bit_count`` where available (3.10+), with a
  ``bin().count`` fallback for 3.9;
* :func:`bernoulli_column` — ``S`` independent Bernoulli(p) bits from
  a ``random.Random``, exact for any float ``p`` via its (finite)
  dyadic expansion: the column is the lane-wise comparison ``U < p``
  of a uniform bit-stream against the bits of ``p``, most significant
  bit first, stopping as soon as every lane is decided — about
  ``log2(S) + 2`` ``getrandbits(S)`` calls instead of ``S`` calls to
  ``rng.random()`` (and instead of one per bit of ``p``, up to 53).

Two helpers serve the Karp–Luby and Hamming workers:
:func:`add_to_counter` and :func:`count_tally` keep a per-lane count
as a vertical (carry-save) stack of bit planes, so counting covers
never loops over lanes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

# Default batch width: worlds evaluated per column batch.  4096 bits is
# 64 machine words per big-int op — wide enough to amortise interpreter
# overhead, small enough that per-batch checkpoint/trace granularity
# stays useful.
BATCH_BITS = 4096

# Floor of the adaptive width: below one machine word per column the
# big-int layout stops paying for itself.
MIN_BATCH_BITS = 64

# Working-set target of one batch, in bits: all per-variable columns of
# a batch should together stay around this size (~256 KiB) so very wide
# Hamming plans narrow their columns for locality instead of streaming
# every column through cache once per clause op.
TARGET_WORKING_BITS = 1 << 21


def pick_batch_bits(budget: int, lanes: int = 1) -> int:
    """Adaptive batch width from the plan size and the sample budget.

    ``lanes`` is the number of live bit columns (plan variables); the
    width is narrowed from :data:`BATCH_BITS` so that ``lanes * width``
    stays near :data:`TARGET_WORKING_BITS` (never below
    :data:`MIN_BATCH_BITS`), and never exceeds the remaining sample
    ``budget`` — a tiny sample count draws one narrow column, not a
    full :data:`BATCH_BITS`-wide one.
    """
    cap = BATCH_BITS
    if lanes > 0:
        cap = max(MIN_BATCH_BITS, min(cap, TARGET_WORKING_BITS // lanes))
    if budget > 0:
        cap = min(cap, budget)
    return max(1, cap)

try:  # Python >= 3.10
    (0).bit_count

    def popcount(value: int) -> int:
        """Number of set bits in a nonnegative integer."""
        return value.bit_count()

except AttributeError:  # pragma: no cover - exercised on 3.9 only

    def popcount(value: int) -> int:
        """Number of set bits in a nonnegative integer."""
        return bin(value).count("1")


def full_mask(width: int) -> int:
    """The all-ones column of the given width."""
    return (1 << width) - 1


def dyadic_bits(probability: Union[float, Fraction]) -> Tuple[int, ...]:
    """The binary expansion of a dyadic probability, most significant first.

    Floats are dyadic rationals, so ``Fraction(float(p))`` is *exact*
    and its denominator is a power of two; the returned tuple ``b`` has
    ``p == sum(b[i] / 2**(i+1))``.  Returns ``()`` for ``p <= 0`` and
    ``p >= 1`` — callers special-case deterministic variables.
    """
    exact = Fraction(float(probability))
    if exact <= 0 or exact >= 1:
        return ()
    length = exact.denominator.bit_length() - 1
    numerator = exact.numerator
    return tuple((numerator >> (length - 1 - i)) & 1 for i in range(length))


def column_bits(
    probability: Union[float, Fraction]
) -> Optional[Tuple[int, ...]]:
    """What :func:`bernoulli_column` draws for ``probability``.

    :func:`dyadic_bits`, except that ``p >= 1`` gives ``None`` — the
    always-true column — instead of the empty (always-false) expansion.
    """
    if float(probability) >= 1.0:
        return None
    return dyadic_bits(probability)


def bernoulli_column(
    rng: random.Random,
    width: int,
    bits: Optional[Tuple[int, ...]],
    full: int,
) -> int:
    """``width`` independent Bernoulli bits with P(1) given by ``bits``.

    ``bits`` comes from :func:`column_bits`: the dyadic expansion of
    ``p`` (empty means deterministic 0), or ``None`` for deterministic
    1.  Lane ``s`` compares a fresh uniform bit-stream against the
    expansion, most significant bit first: a lane is decided *less*
    (set) where the p-bit is 1 and the stream bit is 0, *greater*
    (clear) in the opposite case, and stays undecided on a tie.  Lanes
    still undecided when the expansion ends are greater (p's remaining
    bits are 0), so ``P(lane) = p`` exactly — the distribution of the
    scalar ``rng.random() < p``.  The loop stops once no lane is
    undecided; each draw halves the undecided lanes on average.
    """
    if bits is None:
        return full
    ones = 0
    undecided = full
    for bit in bits:
        stream = rng.getrandbits(width)
        if bit:
            ones |= undecided & ~stream
            undecided &= stream
        else:
            undecided &= ~stream
        if not undecided:
            break
    return ones


def add_to_counter(planes: List[int], mask: int) -> None:
    """Add one to the per-lane count of every lane set in ``mask``.

    ``planes[j]`` holds bit ``j`` of every lane's count; the addition
    ripples a carry up the planes (amortised two big-int ops per add).
    """
    carry = mask
    for level, plane in enumerate(planes):
        planes[level] = plane ^ carry
        carry &= plane
        if not carry:
            return
    if carry:
        planes.append(carry)


def count_tally(planes: Sequence[int], full: int) -> List[Tuple[int, int]]:
    """``(count, lanes with that count)`` pairs of a vertical counter.

    Walks the planes from the top, splitting the lanes of each count
    prefix by the next plane; empty groups are dropped, so the work is
    bounded by the distinct counts present times the plane count.
    Lanes of count 0 are included.
    """
    groups = [(0, full)]
    for level in reversed(range(len(planes))):
        plane = planes[level]
        split = []
        for value, lanes in groups:
            high = lanes & plane
            if high != lanes:
                split.append((value, lanes ^ high))
            if high:
                split.append((value | 1 << level, high))
        groups = split
    return [(value, popcount(lanes)) for value, lanes in groups]
