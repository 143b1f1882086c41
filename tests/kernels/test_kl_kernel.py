"""The batched Karp–Luby worker's pieces.

* the clause split tree draws Multinomial(width, W_i / W) counts: they
  sum to the width, never pick a zero-weight clause, and match the
  weights within a Hoeffding tolerance;
* a one-clause DNF is answered exactly, with no samples drawn, but is
  still refused up front by a budget that cannot fit the run — as is
  a naive Monte-Carlo run;
* probability-1 variables are sampled as always true on the bare-DNF
  batched paths (they used to be drawn as always false).
"""

import math
import random
from fractions import Fraction

import pytest

from repro.kernels.sampling import clause_counts, clause_split_tree
from repro.propositional.counting import probability_enumerate
from repro.propositional.formula import DNF, Clause, Literal
from repro.propositional.karp_luby import (
    karp_luby,
    karp_luby_samples,
    naive_probability_estimate,
    sample_count,
)
from repro.runtime.budget import Budget, apply
from repro.util.errors import CostRefused
from repro.util.rng import make_rng

WEIGHTS = (0.3, 0.0, 0.05, 1.0 / 3.0, 0.0, 0.125, 0.2)


@pytest.mark.parametrize("width", [1, 2, 7, 64, 1000, 4096])
def test_split_tree_counts_sum_to_width_and_skip_zero_weights(width):
    tree = clause_split_tree(WEIGHTS)
    rng = random.Random(width)
    for _ in range(20):
        counts = clause_counts(tree, rng, width)
        assert sum(count for _, count in counts) == width
        assert all(count > 0 for _, count in counts)
        chosen = [clause for clause, _ in counts]
        assert len(set(chosen)) == len(chosen)
        assert all(WEIGHTS[clause] > 0.0 for clause in chosen)


def test_split_tree_counts_match_the_weights():
    tree = clause_split_tree(WEIGHTS)
    rng = random.Random(5)
    totals = [0] * len(WEIGHTS)
    drawn = 0
    for _ in range(100):
        for clause, count in clause_counts(tree, rng, 4096):
            totals[clause] += count
        drawn += 4096
    total_weight = sum(WEIGHTS)
    # Hoeffding per clause at delta = 1e-9 (union over the clauses).
    tolerance = math.sqrt(math.log(2 * len(WEIGHTS) / 1e-9) / (2 * drawn))
    for clause, weight in enumerate(WEIGHTS):
        assert abs(totals[clause] / drawn - weight / total_weight) <= tolerance


def test_split_tree_degenerate_weights():
    assert clause_split_tree([0.0, 0.0]) is None
    assert clause_split_tree([0.0, 0.4, 0.0]) == 1
    tree = clause_split_tree([0.25, 0.0])
    assert clause_counts(tree, random.Random(1), 50) == [(0, 50)]


def _one_clause():
    a, b, c = "a", "b", "c"
    dnf = DNF([Clause([Literal(a, True), Literal(b, False), Literal(c, True)])])
    probs = {a: Fraction(1, 3), b: Fraction(1, 10), c: 0.7}
    return dnf, probs


def test_one_clause_dnf_is_answered_exactly():
    dnf, probs = _one_clause()
    product = 1.0
    for literal in dnf.clauses[0]:
        p = float(probs[literal.variable])
        product *= p if literal.positive else 1.0 - p
    budget = Budget()
    with apply(budget):
        result = karp_luby_samples(dnf, probs, 5000, make_rng(1))
    assert result.estimate == product
    assert result.clause_weight_total == product
    assert result.samples == 0
    assert budget.samples == 0
    assert result.estimate == pytest.approx(
        float(probability_enumerate(dnf, probs)), rel=1e-12
    )


@pytest.mark.parametrize("adaptive", [False, True])
def test_one_clause_dnf_is_still_refused_by_the_sample_cap(adaptive):
    dnf, probs = _one_clause()
    needed = sample_count(1, 0.1, 0.1)
    with pytest.raises(CostRefused):
        with apply(Budget(max_samples=needed - 1)):
            karp_luby(dnf, probs, 0.1, 0.1, make_rng(1), adaptive=adaptive)
    with apply(Budget(max_samples=needed)):
        result = karp_luby(dnf, probs, 0.1, 0.1, make_rng(1), adaptive=adaptive)
    assert result.samples == 0


def test_naive_estimate_is_refused_by_the_sample_cap():
    dnf, probs = _one_clause()
    budget = Budget(max_samples=10)
    with pytest.raises(CostRefused):
        with apply(budget):
            naive_probability_estimate(dnf, probs, 10**6, make_rng(1))
    assert budget.samples == 0


def _certain_variable_dnf():
    a, b, c = "a", "b", "c"
    dnf = DNF(
        [
            Clause([Literal(a, True), Literal(b, True)]),
            Clause([Literal(c, True)]),
        ]
    )
    probs = {a: Fraction(1), b: Fraction(1, 2), c: Fraction(1, 2)}
    return dnf, probs


def test_karp_luby_samples_probability_one_variable():
    dnf, probs = _certain_variable_dnf()
    exact = float(probability_enumerate(dnf, probs))
    assert exact == 0.75
    estimate = karp_luby_samples(dnf, probs, 100_000, make_rng(1)).estimate
    assert abs(estimate - exact) < 0.01


def test_naive_estimate_probability_one_variable():
    dnf, probs = _certain_variable_dnf()
    estimate = naive_probability_estimate(dnf, probs, 100_000, make_rng(1))
    assert abs(estimate - 0.75) < 0.01
