"""Gray-code world enumeration: the one loop behind every exact walk.

Theorem 4.2's ``worlds`` route, Lemma 5.8's witness search and Theorem
6.2(ii)'s metafinite walk all list every possible world, weight it and
evaluate the query on it.  :func:`enumerated_worlds` is that list.  A
world holds one value per *coordinate* (an uncertain atom, or an
uncertain metafinite entry), and the walk visits the product of the
coordinates' options in reflected mixed-radix Gray order (Knuth, TAOCP
4A §7.2.1.1): consecutive worlds differ in one coordinate, so a step
costs one ``assign`` and one exact :class:`~fractions.Fraction`
multiply instead of a rebuilt world and a k-factor weight product.
The weights are exact, so every sum over the walk equals the
``itertools.product`` sweep of the test oracle
(:func:`repro.reliability.space.worlds`) whatever the visiting order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Iterator, Sequence, Tuple

from repro import obs
from repro.runtime.budget import CHECKPOINT_CHUNK, checkpoint
from repro.runtime.preflight import preflight_worlds

Option = Tuple[Any, Fraction]


def enumerated_worlds(
    base: Any,
    choices: Sequence[Sequence[Option]],
    assign: Callable[[Any, int, Any], Any],
) -> Iterator[Tuple[Any, Fraction]]:
    """Every world with its weight, in reflected mixed-radix Gray order.

    ``choices[slot]`` lists coordinate ``slot``'s ``(value,
    probability)`` options; every probability is positive.  ``base`` is
    the world holding each coordinate at its first option, and
    ``assign(world, slot, value)`` returns ``world`` with coordinate
    ``slot`` set to ``value``.

    The support size (the product of the option counts, ``2 ** k`` on
    ``k`` atoms) is preflighted against the active budget once; each
    run of up to :data:`~repro.runtime.budget.CHECKPOINT_CHUNK` worlds
    is charged with ``checkpoint(worlds=...)`` before its first world,
    and the worlds yielded are counted in ``exact.worlds_enumerated``.
    """
    choices = [tuple(options) for options in choices]
    radices = [len(options) for options in choices]
    support = 1
    for radix in radices:
        support *= radix
    preflight_worlds(
        len(choices),
        worlds=None if all(radix == 2 for radix in radices) else support,
    )
    # Moving coordinate `slot` from option d to d + 1 multiplies the
    # weight by up[slot][d]; moving back, by down[slot][d].
    up = [
        [after[1] / before[1] for before, after in zip(options, options[1:])]
        for options in choices
    ]
    down = [[1 / ratio for ratio in ratios] for ratios in up]
    weight = Fraction(1)
    for options in choices:
        weight *= options[0][1]
    digits = [0] * len(choices)
    rising = [True] * len(choices)
    world = base
    enumerated = 0
    try:
        while enumerated < support:
            chunk = min(CHECKPOINT_CHUNK, support - enumerated)
            checkpoint(worlds=chunk)
            for _ in range(chunk):
                if enumerated:
                    # The lowest coordinate that can still move in its
                    # direction moves; every lower one turns around.
                    slot = 0
                    while digits[slot] == (
                        radices[slot] - 1 if rising[slot] else 0
                    ):
                        rising[slot] = not rising[slot]
                        slot += 1
                    digit = digits[slot]
                    if rising[slot]:
                        weight *= up[slot][digit]
                        digit += 1
                    else:
                        digit -= 1
                        weight *= down[slot][digit]
                    digits[slot] = digit
                    world = assign(world, slot, choices[slot][digit][0])
                enumerated += 1
                yield world, weight
    finally:
        obs.inc("exact.worlds_enumerated", enumerated)


def atom_worlds(db: Any, atoms: Sequence[Any]) -> Iterator[Tuple[Any, Fraction]]:
    """:func:`enumerated_worlds` over uncertain atoms of a relational
    database: each atom keeps its observed truth value (weight
    ``1 - mu``) or flips (weight ``mu``); every other atom keeps its
    value in the observed world (certain flips applied).

    ``atoms`` must all be uncertain (``0 < mu < 1``), as
    ``uncertain_atoms`` and ``relevant_atoms`` return them.
    """
    atoms = tuple(atoms)
    base = db.observed_world()
    choices = []
    for atom in atoms:
        error, observed = db.mu(atom), base.holds(atom)
        choices.append(((observed, 1 - error), (not observed, error)))
    return enumerated_worlds(
        base, choices, lambda world, slot, value: world.with_atom(atoms[slot], value)
    )
