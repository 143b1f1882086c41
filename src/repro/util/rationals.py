"""Exact rational arithmetic helpers.

The paper's complexity results assume error probabilities are rational
numbers given in a standard encoding.  All exact algorithms in this library
therefore work with :class:`fractions.Fraction`; these helpers convert user
input, compute the granularity integer ``g`` from Theorem 4.2, and produce
dyadic approximations used by the bit-vector reduction of Theorem 5.3.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Union

from repro.util.errors import ProbabilityError

RationalLike = Union[int, float, str, Fraction]


def as_fraction(value: RationalLike) -> Fraction:
    """Convert ``value`` to an exact :class:`Fraction`.

    Floats are converted via ``Fraction(str(value))`` so that ``0.1`` means
    the decimal one-tenth, not the binary double closest to it.  Strings may
    be ``"p/q"`` or decimal literals.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ProbabilityError(f"booleans are not probabilities: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ProbabilityError(f"cannot parse rational {value!r}") from exc
    raise ProbabilityError(f"cannot convert {type(value).__name__} to Fraction")


def parse_probability(value: RationalLike) -> Fraction:
    """Convert ``value`` to a Fraction and check it lies in ``[0, 1]``."""
    frac = as_fraction(value)
    # A Fraction's denominator is positive: compare the two ints.
    if not 0 <= frac.numerator <= frac.denominator:
        raise ProbabilityError(f"probability {frac} outside [0, 1]")
    return frac


def granularity(probabilities: Iterable[Fraction]) -> int:
    """Least ``g`` with ``g * p`` integral for every ``p`` in the input.

    This is the integer ``g`` computed in the proof of Theorem 4.2: the
    least common multiple of the (normalised) denominators, computed by the
    paper's gcd loop.  With ``g`` in hand, every possible-world probability
    ``nu(B)`` times ``g ** len(probabilities)`` is a natural number, which
    is what lets the #P machine split leaves into integer multiplicities.
    """
    g = 1
    for prob in probabilities:
        denominator = prob.denominator
        common = gcd(g, denominator)
        if common != denominator:
            g = g * denominator // common
    return g


def dyadic_approximation(value: Fraction, bits: int) -> Fraction:
    """Closest fraction with denominator ``2**bits`` (round half up)."""
    if bits < 0:
        raise ProbabilityError(f"bits must be nonnegative, got {bits}")
    scale = 1 << bits
    numerator = (value * scale + Fraction(1, 2)).__floor__()
    return Fraction(numerator, scale)
