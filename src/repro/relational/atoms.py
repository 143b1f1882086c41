"""Ground atoms ``R(a1, ..., ak)`` — the unit of unreliability.

In the paper's model, the error probability function ``mu`` is defined on
*atomic statements about the database*: one per relation symbol ``R`` and
tuple over the universe.  :class:`Atom` is that object, and
:func:`all_atoms` enumerates the full atom space of a structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Any, Iterator, Sequence, Tuple

from repro.relational.schema import Vocabulary
from repro.util.errors import VocabularyError


@dataclass(frozen=True, order=True)
class Atom:
    """A ground atomic statement: relation name plus a tuple of elements."""

    relation: str
    args: Tuple[Any, ...]

    def __str__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.relation}({inner})"

    @property
    def arity(self) -> int:
        return len(self.args)


def atom_key(atom: Atom) -> str:
    """``repr(atom)``, the sort key of uncertain atoms, built without
    the dataclass repr's recursion guard."""
    return f"Atom(relation={atom.relation!r}, args={atom.args!r})"


def make_atom(relation: str, args: Sequence[Any]) -> Atom:
    """Build an :class:`Atom`, normalising ``args`` to a tuple."""
    return Atom(relation, tuple(args))


def all_atoms(vocabulary: Vocabulary, universe: Sequence[Any]) -> Iterator[Atom]:
    """Enumerate every ground atom over the vocabulary and universe.

    The order is deterministic: relations sorted by name, argument tuples
    in lexicographic universe order.  For a universe of size ``n`` the atom
    space has ``sum(n ** arity)`` elements — polynomial in ``n`` for a
    fixed vocabulary, which is why guessing all atom truth values is a
    polynomially-branching step in Theorem 4.2's #P machine.
    """
    elements = tuple(universe)
    for symbol in vocabulary:
        for args in product(elements, repeat=symbol.arity):
            yield Atom(symbol.name, args)


def atom_count(vocabulary: Vocabulary, universe_size: int) -> int:
    """Size of the atom space without materialising it."""
    if universe_size < 0:
        raise VocabularyError(f"negative universe size {universe_size}")
    return sum(universe_size**symbol.arity for symbol in vocabulary)
