"""Exact weighted model counting for DNF formulas.

Two evaluators:

* :func:`probability_enumerate` — brute-force enumeration over all
  assignments; exponential, used as the oracle in tests;
* :func:`probability_exact` — the library's exact DNF engine: compile a
  reduced ordered BDD, component by component in clause order, and
  evaluate it in one bottom-up pass (:mod:`repro.propositional.bdd`).  Still worst-case exponential
  (the problem is #P-hard), but handles the grounded query formulas of
  the paper's experiments at practical sizes, and is the exact baseline
  the FPTRAS benchmarks compare against.

Both take the variable probabilities as exact fractions and return exact
fractions, so test assertions are equalities, not tolerances.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Mapping, Optional

from repro.propositional.bdd import compile_dnf
from repro.propositional.formula import DNF, Variable
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
    """Exact Pr[dnf]: one bottom-up pass over its ROBDD
    (:func:`~repro.propositional.bdd.compile_dnf`)."""
    _check_probs(dnf, probs)
    if dnf.is_true():
        return Fraction(1)
    if dnf.is_false():
        return Fraction(0)
    diagram, root = compile_dnf(dnf)
    return diagram.probability(root, probs)


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
