"""Unreliable databases: Definition 2.1 of the paper.

An :class:`UnreliableDatabase` is an observed structure ``A`` plus an
error-probability function ``mu`` on ground atoms.  ``mu(R a)`` is the
probability that the truth value of ``R a`` in ``A`` is *wrong*; error
events are independent across atoms.  From ``mu`` we derive ``nu``:

    nu(R a) = 1 - mu(R a)   if A |= R a
    nu(R a) = mu(R a)       otherwise

the probability that ``R a`` holds in the *actual* database.
"""

from __future__ import annotations

import random
from bisect import insort
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.relational.atoms import Atom, atom_key
from repro.relational.structure import Structure
from repro.util.errors import ProbabilityError, VocabularyError
from repro.util.rationals import RationalLike, parse_probability


class UnreliableDatabase:
    """A pair ``(A, mu)`` — the paper's unreliable database.

    ``mu`` maps atoms to error probabilities; atoms not mentioned get
    ``default_error`` (zero unless stated).  Probabilities are stored as
    exact :class:`~fractions.Fraction` values.

    Terminology used throughout the library:

    * *uncertain* atom — ``0 < mu < 1``: its actual truth value is random;
    * *deterministic* atom — ``mu`` is 0 (observed value certain) or 1
      (observed value certainly wrong, so the actual value is its flip).
    """

    __slots__ = ("_structure", "_mu", "_default", "_uncertain", "_fingerprint")

    def __init__(
        self,
        structure: Structure,
        mu: Optional[Mapping[Atom, RationalLike]] = None,
        default_error: RationalLike = 0,
    ):
        self._structure = structure
        self._default = parse_probability(default_error)
        table: Dict[Atom, Fraction] = {}
        if mu:
            vocabulary = structure.vocabulary
            elements = structure.elements
            for atom, value in mu.items():
                symbol = vocabulary.symbol(atom.relation)
                if symbol.arity != atom.arity:
                    raise VocabularyError(
                        f"atom {atom} has arity {atom.arity}, relation has "
                        f"{symbol.arity}"
                    )
                for element in atom.args:
                    if element not in elements:
                        raise VocabularyError(
                            f"atom {atom} mentions {element!r}, not in universe"
                        )
                table[atom] = parse_probability(value)
        self._mu = table
        uncertain = []
        if _uncertain(self._default):
            for atom in structure.atoms():
                if _uncertain(table.get(atom, self._default)):
                    uncertain.append(atom)
        else:
            for atom, probability in table.items():
                if _uncertain(probability):
                    uncertain.append(atom)
        self._uncertain: Tuple[Atom, ...] = tuple(sorted(uncertain, key=atom_key))
        self._fingerprint: Optional[Tuple] = None

    # ------------------------------------------------------------------ #

    @property
    def structure(self) -> Structure:
        """The observed database ``A``."""
        return self._structure

    @property
    def universe_size(self) -> int:
        """``n``, the cardinality of the universe."""
        return len(self._structure)

    def mu(self, atom: Atom) -> Fraction:
        """Error probability of one atom."""
        return self._mu.get(atom, self._default)

    def nu(self, atom: Atom) -> Fraction:
        """Probability that ``atom`` holds in the actual database."""
        error = self.mu(atom)
        return 1 - error if self._structure.holds(atom) else error

    def uncertain_atoms(self) -> Tuple[Atom, ...]:
        """Atoms with ``0 < mu < 1``, in a fixed sorted order."""
        return self._uncertain

    def fingerprint(self) -> Tuple:
        """A hashable, equality-checked identity for compilation caching.

        Two databases with equal fingerprints assign the same ``nu`` to
        every atom, so any compiled artefact (grounded DNF, bitmask
        plan, relevant-atom set) is interchangeable between them.  Used
        as a :mod:`repro.kernels.cache` key component; computed lazily
        and memoised because the structure hash walks every relation.
        """
        if self._fingerprint is None:
            self._fingerprint = (
                self._structure,
                frozenset(self._mu.items()),
                self._default,
            )
        return self._fingerprint

    def certain_flips(self) -> Tuple[Atom, ...]:
        """Atoms with ``mu == 1`` — deterministically wrong observations."""
        flips = [atom for atom, p in self._mu.items() if p == 1]
        if self._default == 1:
            raise ProbabilityError(
                "default_error == 1 flips every atom; enumerate explicitly"
            )
        return tuple(sorted(flips, key=atom_key))

    def is_positive_only(self) -> bool:
        """True in de Rougemont's restricted model: errors only on facts.

        De Rougemont [9] only allows ``mu(R a) > 0`` when ``A |= R a``.
        The paper notes its hardness results survive this restriction;
        tests use this predicate to verify the reduction of Prop 3.2 does.
        """
        if self._default > 0:
            return False
        return all(
            self._structure.holds(atom)
            for atom, p in self._mu.items()
            if p > 0
        )

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #

    def sample(self, rng: random.Random) -> Structure:
        """Draw one possible world ``B ~ nu``."""
        flips = [
            atom
            for atom in self._uncertain
            if rng.random() < float(self._mu.get(atom, self._default))
        ]
        flips.extend(self.certain_flips())
        return self._structure.flip_all(flips) if flips else self._structure

    def observed_world(self) -> Structure:
        """The world with every error event false (certain flips applied)."""
        flips = self.certain_flips()
        return self._structure.flip_all(flips) if flips else self._structure

    # ------------------------------------------------------------------ #
    # derived databases
    # ------------------------------------------------------------------ #

    def with_structure(self, structure: Structure) -> "UnreliableDatabase":
        """Same error function, different observed structure.

        Over the same universe and vocabulary the trusted error table
        stays valid, and unless the default error is uncertain (then
        the index covers ``structure.atoms()``) so does the sorted
        uncertain-atom index: both are reused, as in
        :meth:`with_errors`, instead of re-parsing every entry.
        """
        old = self._structure
        if (
            0 < self._default < 1
            or structure.universe != old.universe
            or structure.vocabulary != old.vocabulary
        ):
            return UnreliableDatabase(structure, self._mu, self._default)
        return self._derived(structure, self._mu, self._uncertain)

    def with_errors(
        self, extra: Mapping[Atom, RationalLike]
    ) -> "UnreliableDatabase":
        """A copy with additional/overridden error probabilities.

        Only the *changed* entries are validated and parsed; the stored
        table is already trusted, and the sorted uncertain-atom index
        is patched in place of a full ``O(k log k)`` re-sort.  This is
        the hot path of :mod:`repro.delta` — a single-atom update must
        cost the delta, not a rebuild of the whole error function.
        """
        if 0 < self._default < 1:
            # Uncertainty-by-default: the index covers structure.atoms(),
            # not just the table — take the full constructor path.
            merged: Dict[Atom, RationalLike] = dict(self._mu)
            merged.update(extra)
            return UnreliableDatabase(self._structure, merged, self._default)
        structure = self._structure
        table = dict(self._mu)
        removed = set()
        added = []
        for atom, value in extra.items():
            symbol = structure.vocabulary.symbol(atom.relation)
            if symbol.arity != atom.arity:
                raise VocabularyError(
                    f"atom {atom} has arity {atom.arity}, relation has "
                    f"{symbol.arity}"
                )
            for element in atom.args:
                if element not in structure.elements:
                    raise VocabularyError(
                        f"atom {atom} mentions {element!r}, not in universe"
                    )
            probability = parse_probability(value)
            was = _uncertain(table.get(atom, self._default))
            table[atom] = probability
            now = _uncertain(probability)
            if was and not now:
                removed.add(atom)
            elif now and not was:
                added.append(atom)
        uncertain = self._uncertain
        if removed or added:
            patched = [a for a in uncertain if a not in removed]
            for atom in added:
                insort(patched, atom, key=atom_key)
            uncertain = tuple(patched)
        return self._derived(structure, table, uncertain)

    def _derived(
        self,
        structure: Structure,
        table: Dict[Atom, Fraction],
        uncertain: Tuple[Atom, ...],
    ) -> "UnreliableDatabase":
        """A database from trusted parts: nothing is re-validated."""
        clone = UnreliableDatabase.__new__(UnreliableDatabase)
        clone._structure = structure
        clone._default = self._default
        clone._mu = table
        clone._uncertain = uncertain
        clone._fingerprint = None
        return clone

    def given(self, evidence: Mapping[Atom, bool]) -> "UnreliableDatabase":
        """Condition on evidence about the *actual* database.

        Learning the actual truth value of an atom collapses its error
        distribution: ``mu`` becomes 0 when the observed value matches
        the evidence and 1 when it contradicts it.  Because atoms are
        independent, conditioning the product distribution is exactly
        this per-atom update — no renormalisation across atoms needed.

        Raises :class:`ProbabilityError` when the evidence contradicts a
        deterministic atom (a zero-probability event).
        """
        updates: Dict[Atom, Fraction] = {}
        for atom, value in evidence.items():
            current = self.mu(atom)
            observed = self._structure.holds(atom)
            matches = observed == bool(value)
            if (matches and current == 1) or (not matches and current == 0):
                raise ProbabilityError(
                    f"evidence {atom}={bool(value)} has probability zero"
                )
            updates[atom] = Fraction(0) if matches else Fraction(1)
        return self.with_errors(updates)

    def error_table(self) -> Dict[Atom, Fraction]:
        """The explicit part of ``mu`` (a copy)."""
        return dict(self._mu)

    @property
    def default_error(self) -> Fraction:
        return self._default

    def __repr__(self) -> str:
        return (
            f"UnreliableDatabase({self._structure!r}, "
            f"{len(self._uncertain)} uncertain atoms)"
        )


def _uncertain(probability: Fraction) -> bool:
    """``0 < probability < 1``, on the numerator and denominator (the
    denominator of a ``Fraction`` is positive)."""
    return 0 < probability.numerator < probability.denominator


def uniform_error(
    structure: Structure,
    probability: RationalLike,
    relations: Optional[Iterable[str]] = None,
    positive_only: bool = False,
) -> UnreliableDatabase:
    """An unreliable database with one error rate across chosen relations.

    ``relations=None`` covers every relation.  ``positive_only=True``
    builds a database in de Rougemont's restricted model: only atoms that
    hold in the observed structure can be wrong.
    """
    probability = parse_probability(probability)
    names = (
        tuple(relations)
        if relations is not None
        else structure.vocabulary.names()
    )
    for name in names:
        structure.vocabulary.symbol(name)  # validates
    table: Dict[Atom, Fraction] = {}
    chosen = set(names)
    for atom in structure.atoms():
        if atom.relation not in chosen:
            continue
        if positive_only and not structure.holds(atom):
            continue
        table[atom] = probability
    return UnreliableDatabase(structure, table)
