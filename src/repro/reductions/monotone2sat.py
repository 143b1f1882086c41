"""Proposition 3.2: #MONOTONE-2SAT reduces to expected-error computation.

A monotone 2-CNF ``AND_i (Y_i | Z_i)`` is modelled as a structure
``(A, L, R, S)``: the universe is the disjoint union of clause names and
variable names; ``L u v`` / ``R u v`` say the left/right variable of
clause ``u`` is ``v``; ``S`` holds the variables assigned *false*.  The
observed database sets every variable false (``S`` = all variables) and
gives exactly the ``S``-atoms over variables error probability 1/2, so
the possible worlds are the uniform distribution over assignments.

With the conjunctive query

    psi = exists x y z. L(x, y) & R(x, z) & S(y) & S(z)

("some clause has both variables false", i.e. the assignment coded by
``S`` falsifies the formula) the observed database satisfies ``psi``, and

    H_psi(D) = Pr[B |= ~psi] = #SAT(phi) / 2 ** m.

So an ``H_psi`` oracle counts satisfying assignments — #P-hardness.
This module builds the reduction and a brute-force #SAT oracle so the
identity can be tested and benchmarked (experiment E2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.logic.conjunctive import hardness_query
from repro.relational.atoms import Atom
from repro.relational.builder import StructureBuilder
from repro.reliability.exact import expected_error
from repro.reliability.unreliable import UnreliableDatabase
from repro.util.errors import QueryError


@dataclass(frozen=True)
class Monotone2CNF:
    """A 2-CNF without negations: clauses are pairs of variable names."""

    clauses: Tuple[Tuple[str, str], ...]

    def __post_init__(self) -> None:
        for clause in self.clauses:
            if len(clause) != 2:
                raise QueryError(f"clause {clause!r} is not binary")

    @property
    def variables(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for left, right in self.clauses:
            seen.setdefault(left)
            seen.setdefault(right)
        return tuple(sorted(seen))

    def satisfied_by(self, true_variables: Iterable[str]) -> bool:
        truthy = set(true_variables)
        return all(
            left in truthy or right in truthy for left, right in self.clauses
        )

    def __str__(self) -> str:
        return " & ".join(f"({l} | {r})" for l, r in self.clauses)


def count_satisfying_assignments(formula: Monotone2CNF) -> int:
    """Brute-force #MONOTONE-2SAT — the oracle the reduction is checked
    against.  Exponential in the number of variables, as it must be."""
    variables = formula.variables
    count = 0
    for values in product((False, True), repeat=len(variables)):
        truthy = [v for v, value in zip(variables, values) if value]
        if formula.satisfied_by(truthy):
            count += 1
    return count


def encode_monotone_2cnf(formula: Monotone2CNF) -> UnreliableDatabase:
    """The Proposition 3.2 encoding ``(A, L, R, S)`` with its ``mu``.

    Clause elements are named ``("clause", i)`` and variables stay as
    their string names, keeping the two sorts disjoint.  Only the
    ``S``-atoms over variables are unreliable (probability 1/2) — note
    these are *positive* atoms in the observed database, so the instance
    lies inside de Rougemont's restricted model, as the paper remarks.
    """
    variables = formula.variables
    clause_ids = [("clause", index) for index in range(len(formula.clauses))]
    builder = StructureBuilder(list(clause_ids) + list(variables))
    builder.relation("L", 2)
    builder.relation("R", 2)
    builder.relation("S", 1)
    for clause_id, (left, right) in zip(clause_ids, formula.clauses):
        builder.add("L", (clause_id, left))
        builder.add("R", (clause_id, right))
    for variable in variables:
        builder.add("S", (variable,))
    structure = builder.build()
    mu = {Atom("S", (variable,)): Fraction(1, 2) for variable in variables}
    return UnreliableDatabase(structure, mu)


def sat_count_via_expected_error(
    formula: Monotone2CNF, method: str = "auto"
) -> int:
    """#SAT computed through the reliability reduction.

    Runs the exact reliability engine on the encoded database and
    rescales: ``#SAT = (1 - H_psi) ... `` — precisely,
    ``H_psi = Pr[~psi] = #SAT / 2 ** m``, so ``#SAT = H_psi * 2 ** m``.
    """
    db = encode_monotone_2cnf(formula)
    query = hardness_query()
    h = expected_error(db, query.to_fo_query(), method=method)
    count = h * (1 << len(formula.variables))
    if count.denominator != 1:
        raise AssertionError(
            f"reduction identity violated: H * 2^m = {count} is not integral"
        )
    return count.numerator
