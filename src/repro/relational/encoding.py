"""Canonical text encodings of structures and unreliable databases.

The paper measures complexity "in terms of the size of (an appropriate
encoding of) the unreliable database".  This module provides that
encoding: a deterministic, line-oriented text format, plus its parser.
Benchmarks use ``encoded_size`` as the input-size measure, so reported
scaling curves are against the same quantity the theorems talk about.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, Iterable, Iterator, List, Tuple

from repro.relational.atoms import Atom
from repro.relational.schema import RelationSymbol, Vocabulary
from repro.relational.structure import Structure
from repro.util.errors import VocabularyError


def encode_structure(structure: Structure) -> str:
    """Serialise a structure to the canonical text format.

    Format::

        universe <e1> <e2> ...
        relation <name> <arity>
        tuple <name> <e1> ... <ek>

    Elements are rendered with ``repr`` — universes of ints and strs
    round-trip exactly.
    """
    lines: List[str] = []
    lines.append("universe " + " ".join(repr(e) for e in structure.universe))
    for symbol in structure.vocabulary:
        lines.append(f"relation {symbol.name} {symbol.arity}")
    for atom in structure.true_atoms():
        rendered = " ".join(repr(a) for a in atom.args)
        lines.append(f"tuple {atom.relation} {rendered}".rstrip())
    return "\n".join(lines) + "\n"


def _parse_element(token: str) -> Any:
    # Elements were rendered with repr; ints and quoted strings round-trip.
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "'\"":
        return token[1:-1]
    try:
        return int(token)
    except ValueError:
        raise VocabularyError(f"cannot parse universe element {token!r}") from None


def _entries(lines: List[str]) -> Iterator[Tuple[int, str, List[str]]]:
    """``(lineno, line, tokens)`` of each line that is not blank or a
    comment."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line, line.split()


def decode_structure(text: str) -> Structure:
    """Parse the canonical text format back into a structure."""
    return _structure(_entries(text.splitlines()))


def _structure(entries: Iterable[Tuple[int, str, List[str]]]) -> Structure:
    universe: Tuple[Any, ...] = ()
    symbols: List[RelationSymbol] = []
    rows: Dict[str, List[Tuple[Any, ...]]] = {}
    saw_universe = False
    for lineno, line, parts in entries:
        kind = parts[0]
        if kind == "universe":
            universe = tuple(_parse_element(tok) for tok in parts[1:])
            saw_universe = True
        elif kind == "relation":
            if len(parts) != 3:
                raise VocabularyError(f"line {lineno}: bad relation line {line!r}")
            symbols.append(RelationSymbol(parts[1], int(parts[2])))
            rows.setdefault(parts[1], [])
        elif kind == "tuple":
            name = parts[1]
            if name not in rows:
                raise VocabularyError(
                    f"line {lineno}: tuple for undeclared relation {name!r}"
                )
            rows[name].append(tuple(_parse_element(tok) for tok in parts[2:]))
        else:
            raise VocabularyError(f"line {lineno}: unknown directive {kind!r}")
    if not saw_universe:
        raise VocabularyError("encoding is missing the universe line")
    return Structure(Vocabulary(symbols), universe, rows)


def encode_error_function(mu: Dict[Atom, Fraction]) -> str:
    """Serialise an error-probability function (one ``error`` line per atom)."""
    lines = []
    for atom in sorted(mu, key=repr):
        prob = mu[atom]
        rendered = " ".join(repr(a) for a in atom.args)
        lines.append(
            f"error {atom.relation} {prob.numerator}/{prob.denominator}"
            + (f" {rendered}" if rendered else "")
        )
    return "\n".join(lines) + ("\n" if lines else "")


def decode_error_function(text: str) -> Dict[Atom, Fraction]:
    """Parse ``error`` lines back into an atom -> probability mapping."""
    return dict(
        _error_entry(*entry)
        for entry in _entries(text.splitlines())
        if entry[2][0] == "error"
    )


def _error_entry(
    lineno: int, line: str, parts: List[str]
) -> Tuple[Atom, Fraction]:
    if len(parts) < 3:
        raise VocabularyError(f"line {lineno}: bad error line {line!r}")
    numerator, slash, denominator = parts[2].partition("/")
    # The encoder writes n/d: two ints, not Fraction's string parser.
    probability = (
        Fraction(int(numerator), int(denominator))
        if slash
        else Fraction(parts[2])
    )
    args = tuple(_parse_element(tok) for tok in parts[3:])
    return Atom(parts[1], args), probability


def encode_unreliable_database(db) -> str:
    """Serialise a full unreliable database ``(A, mu)`` to one document."""
    return encode_structure(db.structure) + encode_error_function(
        db.error_table()
    )


def decode_unreliable_database(text: str):
    """Parse a document with structure and ``error`` lines into a database.

    One pass over the lines: the others are the structure's document
    (its line numbers count them alone), and ``error`` lines are parsed
    once the structure is.
    """
    from repro.reliability.unreliable import UnreliableDatabase

    structural: List[str] = []
    errors: List[Tuple[int, str, List[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line.startswith("error"):
            structural.append(raw)
            continue
        parts = line.split()
        if parts[0] == "error":
            errors.append((lineno, line, parts))
    structure = _structure(_entries(structural))
    mu = dict(_error_entry(*entry) for entry in errors)
    return UnreliableDatabase(structure, mu)


def encoded_size(structure: Structure, mu: Dict[Atom, Fraction]) -> int:
    """Length of the full encoding — the paper's input-size measure."""
    return len(encode_structure(structure)) + len(encode_error_function(mu))
