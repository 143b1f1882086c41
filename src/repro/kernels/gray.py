"""Gray-code world enumeration for the exact engines.

The Theorem 4.2 enumerator visits all ``2 ** k`` joint values of the
relevant uncertain atoms.  Walking them in reflected-Gray-code order
means consecutive worlds differ in exactly one atom, so each step costs
one :meth:`Structure.flip` and one Fraction multiply instead of a full
``flip_all`` plus a k-factor weight product.  Because world weights are
exact :class:`~fractions.Fraction` values, the incrementally-maintained
weight never drifts and the summed probability is bit-identical to the
``itertools.product`` sweep regardless of visiting order.

The walker, :func:`gray_enumeration_probability`, calls an opaque
``predicate(world)`` per step, so it serves any query-protocol object:
it is Theorem 4.2's ``worlds`` algorithm.  Formulas that ground to a
DNF are evaluated by the ROBDD engine instead
(:func:`repro.propositional.counting.probability_exact`).

:func:`product_enumeration_probability` keeps the original sweep as the
reference implementation (benchmarks, property tests, and the fallback
when a deterministic atom sneaks into the atom list).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from repro import obs
from repro.runtime.budget import checkpoint


def product_enumeration_probability(db, atoms, predicate) -> Fraction:
    """The original ``itertools.product`` sweep (reference/fallback)."""
    base = db.observed_world()
    total = Fraction(0)
    evaluated = 0
    for pattern in product((False, True), repeat=len(atoms)):
        checkpoint(worlds=1)
        probability = Fraction(1)
        flips = []
        for atom, flipped in zip(atoms, pattern):
            error = db.mu(atom)
            if flipped:
                probability *= error
                flips.append(atom)
            else:
                probability *= 1 - error
        if probability == 0:
            continue
        world = base.flip_all(flips) if flips else base
        evaluated += 1
        if predicate(world):
            total += probability
    obs.inc("exact.worlds_enumerated", evaluated)
    return total


def gray_enumeration_probability(db, atoms, predicate) -> Fraction:
    """``Pr[predicate(B)]`` over the given uncertain atoms, Gray order.

    ``atoms`` must all be uncertain (``0 < mu < 1``) — the contract of
    every caller, which filters through ``uncertain_atoms`` /
    ``relevant_atoms``; a deterministic atom falls the call back to the
    product sweep, whose zero-weight skip handles it.
    """
    atoms = tuple(atoms)
    count = len(atoms)
    base = db.observed_world()
    if count == 0:
        checkpoint(worlds=1)
        obs.inc("exact.worlds_enumerated", 1)
        return Fraction(1) if predicate(base) else Fraction(0)
    errors = [db.mu(atom) for atom in atoms]
    if any(error == 0 or error == 1 for error in errors):
        return product_enumeration_probability(db, atoms, predicate)
    # Flipping atom j multiplies the weight by mu/(1-mu); unflipping by
    # the inverse.  Exact Fractions, so no drift accumulates.
    up = [error / (1 - error) for error in errors]
    down = [(1 - error) / error for error in errors]
    weight = Fraction(1)
    for error in errors:
        weight *= 1 - error
    checkpoint(worlds=1)
    total = Fraction(0)
    world = base
    if predicate(world):
        total = weight
    flipped = 0
    for step in range(1, 1 << count):
        checkpoint(worlds=1)
        slot = (step & -step).bit_length() - 1
        world = world.flip(atoms[slot])
        mask = 1 << slot
        weight *= down[slot] if flipped & mask else up[slot]
        flipped ^= mask
        if predicate(world):
            total += weight
    obs.inc("exact.worlds_enumerated", 1 << count)
    obs.inc("kernels.gray.steps", (1 << count) - 1)
    return total
