"""Immutable finite relational structures."""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.relational.atoms import Atom, all_atoms
from repro.relational.schema import Vocabulary
from repro.util.errors import VocabularyError

TupleOf = Tuple[Any, ...]


class Structure:
    """A finite relational structure (a database instance).

    Immutable: update methods (:meth:`with_atom`, :meth:`flip`, ...) return
    new structures.  Immutability is what makes possible worlds cheap and
    safe to pass around — the possible-world space of an unreliable
    database is a set of values, not a set of mutable objects.

    Universe elements may be any hashable, orderable-by-repr values;
    integers and strings are typical.
    """

    __slots__ = ("_vocabulary", "_universe", "_universe_set", "_relations", "_hash")

    def __init__(
        self,
        vocabulary: Vocabulary,
        universe: Sequence[Any],
        relations: Optional[Mapping[str, Iterable[Sequence[Any]]]] = None,
    ):
        self._vocabulary = vocabulary
        self._universe: Tuple[Any, ...] = tuple(universe)
        self._universe_set = frozenset(self._universe)
        if len(self._universe_set) != len(self._universe):
            raise VocabularyError("universe contains duplicate elements")
        interp: Dict[str, FrozenSet[TupleOf]] = {
            symbol.name: frozenset() for symbol in vocabulary
        }
        if relations:
            for name, tuples in relations.items():
                symbol = vocabulary.symbol(name)
                rows = frozenset(tuple(row) for row in tuples)
                for row in rows:
                    self._check_row(symbol.name, symbol.arity, row)
                interp[name] = rows
        self._relations: Mapping[str, FrozenSet[TupleOf]] = interp
        self._hash: Optional[int] = None

    def _check_row(self, name: str, arity: int, row: TupleOf) -> None:
        if len(row) != arity:
            raise VocabularyError(
                f"tuple {row!r} has length {len(row)}, but {name} has arity {arity}"
            )
        for element in row:
            if element not in self._universe_set:
                raise VocabularyError(
                    f"tuple {row!r} for {name} mentions {element!r}, "
                    "which is not in the universe"
                )

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    @property
    def vocabulary(self) -> Vocabulary:
        return self._vocabulary

    @property
    def universe(self) -> Tuple[Any, ...]:
        return self._universe

    @property
    def elements(self) -> FrozenSet[Any]:
        """The universe as a set, for membership tests."""
        return self._universe_set

    def __len__(self) -> int:
        """Cardinality ``n`` of the universe (the paper's ``n``)."""
        return len(self._universe)

    def relation(self, name: str) -> FrozenSet[TupleOf]:
        """The interpretation of the named relation."""
        try:
            return self._relations[name]
        except KeyError:
            raise VocabularyError(f"unknown relation {name!r}") from None

    def holds(self, atom: Atom) -> bool:
        """Truth value of a ground atom in this structure."""
        return atom.args in self.relation(atom.relation)

    def atoms(self) -> Iterator[Atom]:
        """All ground atoms of this structure's format (true and false)."""
        return all_atoms(self._vocabulary, self._universe)

    def true_atoms(self) -> Iterator[Atom]:
        """Ground atoms that hold in this structure."""
        for name in self._vocabulary.names():
            for row in sorted(self._relations[name], key=repr):
                yield Atom(name, row)

    # ------------------------------------------------------------------ #
    # functional updates
    # ------------------------------------------------------------------ #

    def with_atom(self, atom: Atom, value: bool) -> "Structure":
        """A copy of this structure with ``atom`` set to ``value``."""
        symbol = self._vocabulary.symbol(atom.relation)
        self._check_row(symbol.name, symbol.arity, atom.args)
        current = self._relations[atom.relation]
        if (atom.args in current) == value:
            return self
        rows = current | {atom.args} if value else current - {atom.args}
        return self._replace(atom.relation, rows)

    def flip(self, atom: Atom) -> "Structure":
        """A copy with the truth value of ``atom`` negated.

        Flipping atoms is exactly the paper's error event ``Wrong(R a)``.
        """
        return self.with_atom(atom, not self.holds(atom))

    def flip_all(self, atoms: Iterable[Atom]) -> "Structure":
        """Flip several atoms at once (more efficient than repeated flips)."""
        by_relation: Dict[str, set] = {}
        for atom in atoms:
            by_relation.setdefault(atom.relation, set()).add(atom.args)
        result = self
        for name, rows_to_flip in by_relation.items():
            symbol = self._vocabulary.symbol(name)
            for row in rows_to_flip:
                self._check_row(symbol.name, symbol.arity, row)
            current = result._relations[name]
            rows = current.symmetric_difference(rows_to_flip)
            result = result._replace(name, rows)
        return result

    def with_relation(
        self, name: str, tuples: Iterable[Sequence[Any]]
    ) -> "Structure":
        """A copy with the named relation replaced wholesale."""
        symbol = self._vocabulary.symbol(name)
        rows = frozenset(tuple(row) for row in tuples)
        for row in rows:
            self._check_row(symbol.name, symbol.arity, row)
        return self._replace(name, rows)

    def _replace(self, name: str, rows: FrozenSet[TupleOf]) -> "Structure":
        clone = object.__new__(Structure)
        clone._vocabulary = self._vocabulary
        clone._universe = self._universe
        clone._universe_set = self._universe_set
        relations = dict(self._relations)
        relations[name] = frozenset(rows)
        clone._relations = relations
        clone._hash = None
        return clone

    def expand(
        self,
        extra_symbols: Vocabulary,
        extra_universe: Sequence[Any] = (),
        relations: Optional[Mapping[str, Iterable[Sequence[Any]]]] = None,
    ) -> "Structure":
        """Expand with fresh symbols and optional fresh universe elements.

        Implements the database modification of Theorem 5.12: adjoin a new
        relation and new constants while keeping every old interpretation.
        """
        vocabulary = self._vocabulary.extend(list(extra_symbols))
        universe = self._universe + tuple(extra_universe)
        combined: Dict[str, Iterable[Sequence[Any]]] = {
            name: self._relations[name] for name in self._vocabulary.names()
        }
        if relations:
            for name, tuples in relations.items():
                if name in self._vocabulary:
                    raise VocabularyError(
                        f"expand cannot override existing relation {name!r}"
                    )
                combined[name] = tuples
        return Structure(vocabulary, universe, combined)

    def restrict(
        self,
        universe: Sequence[Any],
        vocabulary: Optional[Vocabulary] = None,
    ) -> "Structure":
        """The reduct to a sub-universe (and optionally a sub-vocabulary).

        Tuples mentioning dropped elements are discarded.  Used by the
        Theorem 5.12 padding gadget to evaluate the original query on the
        original universe, so that adjoining the fresh constants ``c, d``
        cannot change the query's meaning (the paper leaves this step
        implicit).
        """
        keep = frozenset(universe)
        if not keep <= self._universe_set:
            raise VocabularyError("restriction universe is not a subset")
        vocab = vocabulary if vocabulary is not None else self._vocabulary
        relations = {}
        for symbol in vocab:
            rows = self.relation(symbol.name)
            relations[symbol.name] = [
                row for row in rows if all(e in keep for e in row)
            ]
        return Structure(vocab, tuple(universe), relations)

    # ------------------------------------------------------------------ #
    # identity
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Structure):
            return NotImplemented
        return (
            self._vocabulary == other._vocabulary
            and self._universe == other._universe
            and self._relations == other._relations
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (
                    self._vocabulary,
                    self._universe,
                    tuple(sorted(self._relations.items())),
                )
            )
        return self._hash

    def __repr__(self) -> str:
        parts = []
        for name in self._vocabulary.names():
            rows = self._relations[name]
            parts.append(f"{name}={{{len(rows)} tuples}}")
        return f"Structure(|A|={len(self)}, {', '.join(parts)})"

    def same_format(self, other: "Structure") -> bool:
        """True when both structures share vocabulary and universe.

        "Format" is the paper's word: the possible-world space ``Omega(D)``
        ranges over databases of the same format as the observed one.
        """
        return (
            self._vocabulary == other._vocabulary
            and self._universe == other._universe
        )

    def difference_atoms(self, other: "Structure") -> Tuple[Atom, ...]:
        """Atoms on which the two structures disagree (sorted).

        ``len(a.difference_atoms(b))`` is the Hamming distance between the
        structures viewed as bit vectors over the atom space.
        """
        if not self.same_format(other):
            raise VocabularyError("structures have different formats")
        disagreements = []
        for name in self._vocabulary.names():
            for row in self._relations[name] ^ other._relations[name]:
                disagreements.append(Atom(name, row))
        return tuple(sorted(disagreements, key=repr))
