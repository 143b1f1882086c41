"""Exact weighted model counting for DNF formulas.

Two engines:

* :func:`probability_enumerate` — brute-force enumeration over all
  assignments; exponential, used as the oracle in tests;
* :func:`probability_exact` — Shannon expansion with memoisation and
  independent-component factoring.  Still worst-case exponential (the
  problem is #P-hard), but handles the grounded query formulas of the
  paper's experiments at practical sizes, and is the exact baseline the
  FPTRAS benchmarks compare against.

Both take the variable probabilities as exact fractions and return exact
fractions, so test assertions are equalities, not tolerances.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Dict, FrozenSet, Hashable, List, Mapping, Optional, Set, Tuple

from repro import obs
from repro.propositional.formula import DNF, Clause, Variable
from repro.runtime.budget import checkpoint
from repro.util.errors import ProbabilityError

ProbMap = Mapping[Variable, Fraction]


def _check_probs(dnf: DNF, probs: ProbMap) -> None:
    for variable in dnf.variables:
        if variable not in probs:
            raise ProbabilityError(f"no probability given for {variable!r}")
        p = probs[variable]
        if not 0 <= p <= 1:
            raise ProbabilityError(f"probability {p} for {variable!r} not in [0,1]")


def probability_enumerate(dnf: DNF, probs: ProbMap) -> Fraction:
    """Exact Pr[dnf] by enumerating all assignments (test oracle)."""
    _check_probs(dnf, probs)
    variables = sorted(dnf.variables, key=repr)
    total = Fraction(0)
    for values in product((False, True), repeat=len(variables)):
        checkpoint(worlds=1)
        assignment = dict(zip(variables, values))
        if dnf.satisfied_by(assignment):
            weight = Fraction(1)
            for variable, value in assignment.items():
                p = probs[variable]
                weight *= p if value else 1 - p
            total += weight
    return total


def probability_exact(dnf: DNF, probs: ProbMap) -> Fraction:
    """Exact Pr[dnf] by Shannon expansion with memo and factoring.

    Strategy:

    1. split the clause set into connected components (clauses sharing no
       variable are independent events only if their *variable sets* are
       disjoint — then Pr[union] factorises as
       ``1 - prod(1 - Pr[component])``);
    2. within a component, pick the most frequent variable, condition on
       both values, and recurse, memoising on the canonical clause set.
    """
    _check_probs(dnf, probs)
    with obs.span(
        "shannon.expand",
        variables=len(dnf.variables),
        clauses=len(dnf.clauses),
    ):
        memo: Dict[FrozenSet, Fraction] = {}
        stats = {"nodes": 0, "memo_hits": 0, "component_splits": 0}
        result = _prob(dnf, probs, memo, stats)
        obs.inc("shannon.nodes", stats["nodes"])
        obs.inc("shannon.memo_hits", stats["memo_hits"])
        obs.inc("shannon.component_splits", stats["component_splits"])
        return result


def _prob(
    dnf: DNF,
    probs: ProbMap,
    memo: Dict[FrozenSet, Fraction],
    stats: Dict[str, int],
) -> Fraction:
    checkpoint()
    if dnf.is_false():
        return Fraction(0)
    if dnf.is_true():
        return Fraction(1)
    key = dnf.key()
    cached = memo.get(key)
    if cached is not None:
        stats["memo_hits"] += 1
        return cached

    stats["nodes"] += 1
    components = _components(dnf)
    if len(components) > 1:
        stats["component_splits"] += 1
        miss = Fraction(1)
        for component in components:
            miss *= 1 - _prob(component, probs, memo, stats)
        result = 1 - miss
    else:
        variable = _pivot(dnf)
        p = probs[variable]
        result = p * _prob(dnf.restrict(variable, True), probs, memo, stats) + (
            1 - p
        ) * _prob(dnf.restrict(variable, False), probs, memo, stats)
    memo[key] = result
    return result


def _components(dnf: DNF) -> List[DNF]:
    """Partition clauses into variable-connected components."""
    parent: Dict[Variable, Variable] = {}

    def find(x: Variable) -> Variable:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a: Variable, b: Variable) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for clause in dnf.clauses:
        variables = list(clause.variables)
        for variable in variables:
            parent.setdefault(variable, variable)
        for first, second in zip(variables, variables[1:]):
            union(first, second)

    groups: Dict[Variable, List[Clause]] = {}
    for clause in dnf.clauses:
        root = find(next(iter(clause.variables)))
        groups.setdefault(root, []).append(clause)
    return [DNF(clauses) for clauses in groups.values()]


def _pivot(dnf: DNF) -> Variable:
    """Most frequent variable — a standard branching heuristic."""
    counts: Dict[Variable, int] = {}
    for clause in dnf.clauses:
        for variable in clause.variables:
            counts[variable] = counts.get(variable, 0) + 1
    return max(counts, key=lambda v: (counts[v], repr(v)))


def count_models(dnf: DNF, variables: Optional[int] = None) -> int:
    """#DNF: the number of satisfying assignments.

    ``variables`` gives the total number of variables the count is over;
    it defaults to the variables occurring in the formula.  Computed as
    ``Pr[dnf] * 2 ** m`` under the uniform distribution — exact because
    the probability engine works in rationals.
    """
    occurring = len(dnf.variables)
    if variables is None:
        variables = occurring
    if variables < occurring:
        raise ProbabilityError(
            f"count_models over {variables} variables, but the formula "
            f"mentions {occurring}"
        )
    half = Fraction(1, 2)
    probability = probability_exact(dnf, {v: half for v in dnf.variables})
    count = probability * (1 << variables)
    assert count.denominator == 1
    return count.numerator
