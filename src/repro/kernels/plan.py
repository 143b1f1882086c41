"""Compiling queries into clause bitmask plans.

A plan is the compile-once half of a batched kernel: the grounded DNF
of a query (Theorem 5.4's construction, with deterministic atoms folded
away) re-expressed as per-clause lists of *column indices*, plus the
dyadic bit expansion of each variable's marginal ``nu``.  Evaluating a
batch of S sampled worlds then costs a handful of big-int AND/OR ops
per clause instead of S full query evaluations.

Three plan shapes cover the estimators:

* :class:`DnfPlan` — a bare propositional DNF (Karp–Luby, naive MC);
* :class:`TruthPlan` — a Boolean query against one database
  (``estimate_truth_probability``);
* :class:`HammingPlan` — all ``n ** k`` instantiations of a k-ary
  query sharing one column batch (``estimate_reliability_hamming``).

``compile_*`` functions return ``None`` when the query cannot be
compiled (non-first-order queries, mixed quantifier prefixes, or a
grounding the active budget refuses); callers fall back to the
per-world loops.  Successful compilations are cached in
:mod:`repro.kernels.cache` keyed on the database fingerprint and the
query AST.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro import obs
from repro.kernels.bitops import column_bits
from repro.kernels.cache import compilation_cache
from repro.logic.evaluator import FOQuery
from repro.logic.fo import Formula
from repro.propositional.formula import DNF
from repro.relational.atoms import Atom, atom_key
from repro.util.errors import CostRefused, QueryError

# A compiled clause: (positive column indices, negative column indices),
# or None for a contradictory clause (mask 0, never satisfiable).
CompiledClause = Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]


def _variable_key(variable) -> str:
    """The column order, ``repr(variable)``: :func:`atom_key` builds it
    for atoms; propositional DNFs also use strings."""
    return atom_key(variable) if type(variable) is Atom else repr(variable)


def satisfied_mask(
    clauses: Sequence[CompiledClause], columns: Sequence[int], full: int
) -> int:
    """Bitmask of batch lanes whose sampled world satisfies the DNF."""
    satisfied = 0
    for clause in clauses:
        if clause is None:
            continue
        positive, negative = clause
        acc = full & ~satisfied
        for slot in positive:
            acc &= columns[slot]
            if not acc:
                break
        else:
            for slot in negative:
                acc &= ~columns[slot]
                if not acc:
                    break
        satisfied |= acc
        if satisfied == full:
            break
    return satisfied


def clause_masks(
    clauses: Sequence[CompiledClause], columns: Sequence[int], full: int
) -> List[int]:
    """Per-clause satisfaction masks (Karp–Luby weighs each clause)."""
    masks: List[int] = []
    for clause in clauses:
        if clause is None:
            masks.append(0)
            continue
        positive, negative = clause
        acc = full
        for slot in positive:
            acc &= columns[slot]
            if not acc:
                break
        else:
            for slot in negative:
                acc &= ~columns[slot]
                if not acc:
                    break
        masks.append(acc)
    return masks


def _compile_clauses(dnf: DNF, index) -> Tuple[CompiledClause, ...]:
    compiled: List[CompiledClause] = []
    for clause in dnf.clauses:
        if clause.contradictory:
            compiled.append(None)
            continue
        positive = []
        negative = []
        for literal in clause:
            slot = index[literal.variable]
            (positive if literal.positive else negative).append(slot)
        compiled.append((tuple(positive), tuple(negative)))
    return tuple(compiled)


class DnfPlan:
    """A DNF compiled to column-index clause masks.

    ``variables`` is sorted by ``repr`` — the same deterministic order
    every sampler uses when drawing columns.
    """

    __slots__ = ("variables", "clauses")

    def __init__(self, dnf: DNF):
        self.variables = tuple(sorted(dnf.variables, key=_variable_key))
        index = {variable: i for i, variable in enumerate(self.variables)}
        self.clauses = _compile_clauses(dnf, index)

    def satisfied_mask(self, columns: Sequence[int], full: int) -> int:
        return satisfied_mask(self.clauses, columns, full)

    def clause_masks(self, columns: Sequence[int], full: int) -> List[int]:
        return clause_masks(self.clauses, columns, full)


class TruthPlan:
    """A compiled Boolean truth-probability query.

    ``constant`` short-circuits deterministic queries (the grounded DNF
    folded to true/false); otherwise ``plan`` evaluates the grounded
    DNF and ``negate`` flips the result for universal sentences
    (``Pr[forall] = 1 - Pr[exists not]``).  ``bits`` holds the dyadic
    expansion of ``nu`` per variable, in ``plan.variables`` order.
    """

    __slots__ = ("plan", "bits", "negate", "constant")

    def __init__(
        self,
        plan: Optional[DnfPlan],
        bits: Tuple[Tuple[int, ...], ...],
        negate: bool,
        constant: Optional[float],
    ):
        self.plan = plan
        self.bits = bits
        self.negate = negate
        self.constant = constant


class HammingTuple:
    """One lineage cell of a :class:`HammingPlan`.

    The cell is the tuple's wrong target: the query's instantiation, or
    its negation for a universal query (``Wrong(psi) = Wrong(~psi)``).
    ``constant`` is the target's world-independent truth value when its
    grounded DNF folded away entirely; otherwise ``clauses`` index the
    plan's shared column table.  ``observed`` is the target's value on
    the observed structure.
    """

    __slots__ = ("clauses", "observed", "constant")

    def __init__(self, clauses, observed, constant):
        self.clauses = clauses
        self.observed = observed
        self.constant = constant


class HammingPlan:
    """All ``n ** k`` tuple instantiations sharing one column batch."""

    __slots__ = ("variables", "bits", "tuples", "cells")

    def __init__(self, variables, bits, tuples, cells):
        self.variables = variables
        self.bits = bits
        self.tuples = tuples
        self.cells = cells


def _truth_plan_from_formula(db, formula: Formula) -> TruthPlan:
    from repro.reliability.grounding import (
        ground_existential_to_dnf,
        wrong_target,
    )

    target = wrong_target(formula)
    negate = target is not formula
    dnf = ground_existential_to_dnf(db, target).dnf
    if dnf.is_true():
        return TruthPlan(None, (), negate, 0.0 if negate else 1.0)
    if dnf.is_false():
        return TruthPlan(None, (), negate, 1.0 if negate else 0.0)
    plan = DnfPlan(dnf)
    bits = tuple(column_bits(float(db.nu(atom))) for atom in plan.variables)
    return TruthPlan(plan, bits, negate, None)


def compile_truth_plan(db, query, args: Sequence = ()) -> Optional[TruthPlan]:
    """Compile ``Pr[B |= psi(args)]`` into a batched sampling plan.

    Returns ``None`` — telling the caller to use the per-world loop — for
    non-first-order queries, sentences that are neither existential nor
    universal, and groundings the active budget refuses (the per-world
    sampler needs no grounding, so a ``CostRefused`` here must not leak
    out of an estimator that would otherwise succeed).
    """
    if not isinstance(query, FOQuery):
        return None
    args = tuple(args)
    formula = query.instantiated(args) if args else query.formula
    key = ("truth_plan", db.fingerprint(), formula)
    try:
        with obs.span("kernels.compile", kind="truth"):
            return compilation_cache.get_or_create(
                key, lambda: _truth_plan_from_formula(db, formula)
            )
    except (CostRefused, QueryError):
        return None


def compile_dnf_plan(dnf: DNF) -> DnfPlan:
    """Compile a bare DNF (Karp–Luby / naive MC operate on these)."""
    with obs.span("kernels.compile", kind="dnf"):
        return compilation_cache.get_or_create(
            ("dnf_plan", dnf), lambda: DnfPlan(dnf)
        )


def _hamming_plan(db, query: FOQuery) -> HammingPlan:
    from repro.reliability.grounding import ground_answers

    variables: List = []
    index = {}
    tuples = []
    for _, observed, target in ground_answers(db, query).cells():
        if isinstance(target, bool):
            tuples.append(HammingTuple(None, observed, target))
            continue
        for variable in sorted(target.variables, key=_variable_key):
            if variable not in index:
                index[variable] = len(variables)
                variables.append(variable)
        clauses = _compile_clauses(target, index)
        tuples.append(HammingTuple(clauses, observed, None))
    bits = tuple(column_bits(float(db.nu(atom))) for atom in variables)
    return HammingPlan(tuple(variables), bits, tuple(tuples), len(tuples))


def compile_hamming_plan(db, query) -> Optional[HammingPlan]:
    """Compile the whole-table Hamming estimator for a k-ary query.

    The plan's cells are the query's lineage table
    (:func:`~repro.reliability.grounding.ground_answers`), so the query
    must have a wrong target; a query without one, or a grounding the
    budget refuses, falls the whole call back to the per-world loop.
    """
    if not isinstance(query, FOQuery):
        return None
    key = ("hamming_plan", db.fingerprint(), query.formula, query.free_order)
    try:
        with obs.span("kernels.compile", kind="hamming"):
            return compilation_cache.get_or_create(
                key, lambda: _hamming_plan(db, query)
            )
    except (CostRefused, QueryError):
        return None
