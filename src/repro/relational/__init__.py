"""Finite relational structures — the paper's notion of a database.

A database in Grädel–Gurevich–Hirsch is a finite relational structure: a
finite universe together with a finite vocabulary of relation symbols, each
interpreted as a set of tuples over the universe.  This subpackage provides:

* :class:`~repro.relational.schema.RelationSymbol` and
  :class:`~repro.relational.schema.Vocabulary` — the schema layer;
* :class:`~repro.relational.atoms.Atom` — ground atomic statements
  ``R(a1, ..., ak)``, the unit of unreliability in the paper's model;
* :class:`~repro.relational.structure.Structure` — an immutable finite
  relational structure with functional update (flip an atom, add/remove
  tuples), equality, hashing and canonical encoding;
* :mod:`~repro.relational.builder` — a fluent builder for structures.
"""

from repro.util.lazy import lazy_exports

lazy_exports(
    __name__,
    {
        ".schema": ("RelationSymbol", "Vocabulary"),
        ".atoms": ("Atom", "all_atoms", "atom_count"),
        ".structure": ("Structure",),
        ".builder": ("StructureBuilder",),
    },
)

__all__ = [
    "RelationSymbol",
    "Vocabulary",
    "Atom",
    "all_atoms",
    "atom_count",
    "Structure",
    "StructureBuilder",
]
