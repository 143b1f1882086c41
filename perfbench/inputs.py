"""Seeded inputs for the end-to-end benchmark: databases, requests, streams.

Every database has a fixed *layout* — which tuples are observed and which
atoms are uncertain — drawn once from :data:`LAYOUT_SEED`.  The workload
seed draws everything else: each uncertain atom's error probability,
the sampling seeds of the requests and the update stream.  Keeping the
layout fixed keeps the work per request (grounded clauses, sample counts,
world counts, diagram sizes) the same for every seed, so runs with
different seeds measure the same amount of work.

The oracle functions compute each request's reference answer with an
exact engine other than the one the request is routed to.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from repro.relational.atoms import Atom
from repro.relational.builder import StructureBuilder
from repro.reliability.unreliable import UnreliableDatabase

#: Seed of the database layouts; the workload seed never changes them.
LAYOUT_SEED = 20260101

#: Error probabilities the workload seed draws from.
ERROR_CHOICES = tuple(
    Fraction(n, d)
    for n, d in ((1, 20), (1, 10), (1, 8), (1, 5), (1, 4), (3, 10), (2, 5))
)


@dataclass(frozen=True)
class RelationShape:
    """One relation of a layout.

    ``uncertain_present`` observed tuples carry an error probability,
    ``certain_present`` observed tuples are certain, and
    ``uncertain_absent`` unobserved tuples may be missing facts.
    """

    name: str
    arity: int
    uncertain_present: int
    certain_present: int = 0
    uncertain_absent: int = 0


@dataclass(frozen=True)
class Layout:
    universe: Tuple[str, ...]
    relations: Tuple[RelationShape, ...]
    present: Tuple[Atom, ...]
    uncertain: Tuple[Atom, ...]


def make_layout(universe_size: int, shapes: Tuple[RelationShape, ...]) -> Layout:
    """The fixed layout for ``shapes`` over ``universe_size`` elements."""
    rng = random.Random(f"{LAYOUT_SEED}:{universe_size}:{shapes!r}")
    universe = tuple(f"e{i}" for i in range(universe_size))
    present: List[Atom] = []
    uncertain: List[Atom] = []
    for shape in shapes:
        cells = [
            Atom(shape.name, args)
            for args in itertools.product(universe, repeat=shape.arity)
        ]
        picked = rng.sample(
            cells,
            shape.uncertain_present
            + shape.certain_present
            + shape.uncertain_absent,
        )
        observed_uncertain = picked[: shape.uncertain_present]
        observed_certain = picked[
            shape.uncertain_present : shape.uncertain_present
            + shape.certain_present
        ]
        absent_uncertain = picked[
            shape.uncertain_present + shape.certain_present :
        ]
        present.extend(observed_uncertain + observed_certain)
        uncertain.extend(observed_uncertain + absent_uncertain)
    return Layout(universe, tuple(shapes), tuple(present), tuple(uncertain))


def make_database(layout: Layout, rng: random.Random) -> UnreliableDatabase:
    """The layout with error probabilities drawn from ``rng``."""
    builder = StructureBuilder(list(layout.universe))
    for shape in layout.relations:
        builder.relation(shape.name, shape.arity)
    for atom in layout.present:
        builder.add(atom.relation, atom.args)
    mu = {atom: rng.choice(ERROR_CHOICES) for atom in layout.uncertain}
    return UnreliableDatabase(builder.build(), mu)


# ---------------------------------------------------------------------- #
# Layouts
# ---------------------------------------------------------------------- #

#: ``oneshot-cold`` large database: 52 uncertain atoms in R, S, T, so
#: every unsafe query over it is past the exact engine's 2^20-world cap.
ONESHOT_LARGE = (
    14,
    (
        RelationShape("R", 1, 3, 0, 5),
        RelationShape("S", 2, 24, 14, 6),
        RelationShape("T", 1, 3, 0, 5),
    ),
)

#: ``oneshot-cold`` small database: 16 uncertain atoms, under the cap.
ONESHOT_SMALL = (
    7,
    (
        RelationShape("R", 1, 2, 0, 1),
        RelationShape("S", 2, 5, 3, 1),
        RelationShape("T", 1, 2, 0, 1),
    ),
)

#: ``serve-hot`` shared database: R, S, T are large (safe and sampled
#: queries), A, B, C are small (unsafe queries answered exactly).
SERVE_DB = (
    14,
    (
        RelationShape("R", 1, 8, 0, 3),
        RelationShape("S", 2, 24, 14, 6),
        RelationShape("T", 1, 8, 0, 3),
        RelationShape("A", 1, 2, 0, 1),
        RelationShape("B", 2, 5, 3, 1),
        RelationShape("C", 1, 2, 0, 1),
    ),
)

#: ``update-stream`` database.
UPDATE_DB = (
    12,
    (
        RelationShape("R", 1, 6, 1, 2),
        RelationShape("S", 2, 20, 8, 6),
        RelationShape("T", 1, 6, 1, 2),
    ),
)


def layout_of(spec) -> Layout:
    universe_size, shapes = spec
    return make_layout(universe_size, shapes)


# ---------------------------------------------------------------------- #
# Update streams
# ---------------------------------------------------------------------- #

#: One structural update every STRUCTURAL_EVERY operations (20%).
STRUCTURAL_EVERY = 5


def update_stream(
    db: UnreliableDatabase, rng: random.Random, length: int
) -> List[Tuple[str, tuple]]:
    """A seeded stream of ``(kind, update)`` pairs over ``db``.

    ``kind`` is ``"weight"`` (``set_mu`` that keeps an uncertain atom's
    error probability inside ``(0, 1)``) or ``"structural"``.  The
    structural updates cycle through four moves that keep the database
    near its layout: freeze an uncertain atom (``mu`` to 0), insert an
    absent certain tuple, thaw the frozen atom back to a fresh ``mu``,
    and delete the inserted tuple again.  ``update`` is the operation in
    :func:`repro.runtime.executor.run_update_stream` form.
    """
    uncertain = sorted(db.uncertain_atoms(), key=repr)
    certain_absent = sorted(
        (
            atom
            for atom in db.structure.atoms()
            if db.mu(atom) == 0 and not db.structure.holds(atom)
            and atom.relation == "S"
        ),
        key=repr,
    )
    mu = {atom: db.mu(atom) for atom in uncertain}
    frozen = None
    inserted = None
    moves = 0
    stream: List[Tuple[str, tuple]] = []
    for index in range(length):
        if index % STRUCTURAL_EVERY == STRUCTURAL_EVERY - 1:
            move = moves % 4
            moves += 1
            if move == 0:
                frozen = rng.choice([a for a in uncertain if mu[a] != 0])
                mu[frozen] = Fraction(0)
                stream.append(("structural", ("set_mu", frozen, Fraction(0))))
            elif move == 1:
                inserted = rng.choice(certain_absent)
                stream.append(("structural", ("insert", inserted)))
            elif move == 2:
                mu[frozen] = rng.choice(ERROR_CHOICES)
                stream.append(("structural", ("set_mu", frozen, mu[frozen])))
            else:
                stream.append(("structural", ("delete", inserted)))
            continue
        atom = rng.choice([a for a in uncertain if mu[a] != 0])
        new = rng.choice([p for p in ERROR_CHOICES if p != mu[atom]])
        mu[atom] = new
        stream.append(("weight", ("set_mu", atom, new)))
    return stream


def apply_update(db: UnreliableDatabase, update: tuple) -> UnreliableDatabase:
    """``db`` after one update, built without the delta machinery."""
    op = update[0]
    if op == "set_mu":
        return db.with_errors({update[1]: update[2]})
    return db.with_structure(
        db.structure.with_atom(update[1], op == "insert")
    )
