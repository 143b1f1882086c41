"""Functional databases and their unreliable variant (Definition 6.1)."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Any, Dict, Iterator, Mapping, Optional, Sequence, Tuple

from repro.kernels.gray import enumerated_worlds
from repro.util.errors import ProbabilityError, VocabularyError
from repro.util.rationals import RationalLike, as_fraction, parse_probability

Entry = Tuple[str, Tuple[Any, ...]]  # (function name, argument tuple)
Value = Any  # values live in the interpreted structure R (numbers here)


class FunctionalDatabase:
    """A finite set ``A`` with functions ``f : A^k -> R``.

    Functions are total over ``A^k``: every argument tuple must be
    assigned a value.  Values are numbers (int / Fraction / float) —
    the "standard arithmetic" instance of Theorem 6.2.
    """

    __slots__ = ("_universe", "_functions", "_arities", "_hash")

    def __init__(
        self,
        universe: Sequence[Any],
        functions: Mapping[str, Mapping[Tuple[Any, ...], Value]],
    ):
        self._universe: Tuple[Any, ...] = tuple(universe)
        universe_set = frozenset(self._universe)
        if len(universe_set) != len(self._universe):
            raise VocabularyError("universe contains duplicate elements")
        table: Dict[str, Dict[Tuple[Any, ...], Value]] = {}
        arities: Dict[str, int] = {}
        for name, mapping in functions.items():
            entries = {tuple(args): value for args, value in mapping.items()}
            if entries:
                arity = len(next(iter(entries)))
            else:
                arity = 0
            expected = len(self._universe) ** arity
            if len(entries) != expected:
                raise VocabularyError(
                    f"function {name!r} is partial: {len(entries)} entries, "
                    f"expected {expected} for arity {arity}"
                )
            for args in entries:
                if len(args) != arity:
                    raise VocabularyError(
                        f"function {name!r} has mixed arities"
                    )
                for element in args:
                    if element not in universe_set:
                        raise VocabularyError(
                            f"{name}{args} mentions {element!r}, "
                            "not in the universe"
                        )
            table[name] = entries
            arities[name] = arity
        self._functions = table
        self._arities = arities
        self._hash: Optional[int] = None

    @property
    def universe(self) -> Tuple[Any, ...]:
        return self._universe

    def __len__(self) -> int:
        return len(self._universe)

    def function_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._functions))

    def arity(self, name: str) -> int:
        try:
            return self._arities[name]
        except KeyError:
            raise VocabularyError(f"unknown function {name!r}") from None

    def value(self, name: str, args: Tuple[Any, ...]) -> Value:
        """``f(args)`` in this database."""
        try:
            mapping = self._functions[name]
        except KeyError:
            raise VocabularyError(f"unknown function {name!r}") from None
        try:
            return mapping[args]
        except KeyError:
            raise VocabularyError(f"{name}{args!r} is outside A^k") from None

    def entries(self) -> Iterator[Tuple[Entry, Value]]:
        """All ``((f, args), value)`` pairs, deterministic order."""
        for name in self.function_names():
            for args in sorted(self._functions[name], key=repr):
                yield (name, args), self._functions[name][args]

    def with_entry(self, name: str, args: Tuple[Any, ...], value: Value):
        """A copy with one entry changed."""
        self.value(name, args)  # validates
        functions = {
            fname: dict(mapping) for fname, mapping in self._functions.items()
        }
        functions[name][tuple(args)] = value
        return FunctionalDatabase(self._universe, functions)

    def with_entries(self, updates: Mapping[Entry, Value]):
        """A copy with several entries changed at once."""
        functions = {
            fname: dict(mapping) for fname, mapping in self._functions.items()
        }
        for (name, args), value in updates.items():
            self.value(name, tuple(args))  # validates
            functions[name][tuple(args)] = value
        return FunctionalDatabase(self._universe, functions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FunctionalDatabase):
            return NotImplemented
        return (
            self._universe == other._universe
            and self._functions == other._functions
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (
                    self._universe,
                    tuple(
                        (name, tuple(sorted(mapping.items(), key=repr)))
                        for name, mapping in sorted(self._functions.items())
                    ),
                )
            )
        return self._hash

    def __repr__(self) -> str:
        functions = ", ".join(
            f"{name}/{self._arities[name]}" for name in self.function_names()
        )
        return f"FunctionalDatabase(|A|={len(self)}, {functions})"


class ValueDistribution:
    """A finite-support distribution over values of one entry ``f(a)``.

    Definition 6.1 requires finite support and total mass one; both are
    validated.  Probabilities are exact fractions.
    """

    __slots__ = ("_support",)

    def __init__(self, support: Mapping[Value, RationalLike]):
        table: Dict[Value, Fraction] = {}
        for value, probability in support.items():
            p = parse_probability(probability)
            if p > 0:
                table[value] = table.get(value, Fraction(0)) + p
        total = sum(table.values(), Fraction(0))
        if total != 1:
            raise ProbabilityError(
                f"value distribution sums to {total}, expected 1"
            )
        self._support = table

    def items(self) -> Iterator[Tuple[Value, Fraction]]:
        return iter(sorted(self._support.items(), key=lambda kv: repr(kv[0])))

    def probability(self, value: Value) -> Fraction:
        return self._support.get(value, Fraction(0))

    def support(self) -> Tuple[Value, ...]:
        return tuple(value for value, _p in self.items())

    def is_deterministic(self) -> bool:
        return len(self._support) == 1

    def sample(self, rng: random.Random) -> Value:
        roll = rng.random()
        cumulative = 0.0
        last = None
        for value, probability in self.items():
            cumulative += float(probability)
            last = value
            if roll < cumulative:
                return value
        return last

    def __len__(self) -> int:
        return len(self._support)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v!r}: {p}" for v, p in self.items())
        return f"ValueDistribution({{{inner}}})"


class UnreliableFunctionalDatabase:
    """Definition 6.1: an observed functional database plus per-entry
    value distributions.

    Entries without an explicit distribution are certain (their observed
    value has probability one).  Distributions are independent across
    entries.
    """

    __slots__ = ("_observed", "_distributions", "_uncertain")

    def __init__(
        self,
        observed: FunctionalDatabase,
        distributions: Optional[Mapping[Entry, ValueDistribution]] = None,
    ):
        self._observed = observed
        table: Dict[Entry, ValueDistribution] = {}
        if distributions:
            for (name, args), dist in distributions.items():
                observed.value(name, tuple(args))  # validates the entry
                if not isinstance(dist, ValueDistribution):
                    dist = ValueDistribution(dist)
                table[(name, tuple(args))] = dist
        self._distributions = table
        self._uncertain: Tuple[Entry, ...] = tuple(
            sorted(
                (e for e, d in table.items() if not d.is_deterministic()),
                key=repr,
            )
        )

    @property
    def observed(self) -> FunctionalDatabase:
        return self._observed

    @property
    def universe_size(self) -> int:
        return len(self._observed)

    def distribution(self, name: str, args: Tuple[Any, ...]) -> ValueDistribution:
        entry = (name, tuple(args))
        dist = self._distributions.get(entry)
        if dist is None:
            return ValueDistribution({self._observed.value(name, args): 1})
        return dist

    def uncertain_entries(self) -> Tuple[Entry, ...]:
        """Entries whose value is genuinely random, fixed order."""
        return self._uncertain

    def support_size(self) -> int:
        """Number of worlds with positive probability."""
        size = 1
        for name, args in self._uncertain:
            size *= len(self._distributions[(name, args)])
        return size

    def worlds(self) -> Iterator[Tuple[FunctionalDatabase, Fraction]]:
        """Enumerate ``(B, nu(B))`` — exponential; the Thm 6.2 path.

        The paper's observation that the support is bounded by
        ``2 ** p(n)`` and each ``nu(B)`` is efficiently computable is
        visible here: the product structure gives both.  The walk is
        :func:`repro.kernels.gray.enumerated_worlds`, one entry changed
        per step, preflighted and charged to the active budget.
        """
        # A deterministic distribution's value holds in every world (it
        # may disagree with the observed one); each uncertain entry
        # starts at its first support value.
        start = {
            entry: dist.support()[0]
            for entry, dist in self._distributions.items()
        }
        base = self._observed.with_entries(start) if start else self._observed
        entries = self._uncertain
        return enumerated_worlds(
            base,
            [tuple(self._distributions[entry].items()) for entry in entries],
            lambda world, slot, value: world.with_entry(*entries[slot], value),
        )

    def sample(self, rng: random.Random) -> FunctionalDatabase:
        """Draw one possible world."""
        updates: Dict[Entry, Value] = {}
        for entry, dist in self._distributions.items():
            value = dist.sample(rng)
            if value != self._observed.value(entry[0], entry[1]):
                updates[entry] = value
        return (
            self._observed.with_entries(updates) if updates else self._observed
        )

    def __repr__(self) -> str:
        return (
            f"UnreliableFunctionalDatabase({self._observed!r}, "
            f"{len(self._uncertain)} uncertain entries)"
        )
