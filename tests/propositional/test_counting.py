"""Tests for exact weighted model counting."""

from fractions import Fraction

import pytest

from repro.propositional.counting import (
    count_models,
    probability_enumerate,
    probability_exact,
)
from repro.propositional.formula import DNF, Clause, neg_lit, pos
from repro.util.errors import ProbabilityError
from repro.util.rng import make_rng
from repro.workloads.random_dnf import random_kdnf, random_probabilities

HALF = Fraction(1, 2)


def uniform(dnf):
    return {v: HALF for v in dnf.variables}


class TestProbabilityExact:
    def test_single_positive_literal(self):
        dnf = DNF.of([pos("a")])
        assert probability_exact(dnf, {"a": Fraction(3, 10)}) == Fraction(3, 10)

    def test_single_negative_literal(self):
        dnf = DNF.of([neg_lit("a")])
        assert probability_exact(dnf, {"a": Fraction(3, 10)}) == Fraction(7, 10)

    def test_conjunction_multiplies(self):
        dnf = DNF.of([pos("a"), pos("b")])
        probs = {"a": Fraction(1, 2), "b": Fraction(1, 3)}
        assert probability_exact(dnf, probs) == Fraction(1, 6)

    def test_disjoint_union_inclusion_exclusion(self):
        dnf = DNF.of([pos("a")], [pos("b")])
        probs = {"a": Fraction(1, 2), "b": Fraction(1, 2)}
        assert probability_exact(dnf, probs) == Fraction(3, 4)

    def test_tautology(self):
        dnf = DNF.of([pos("a")], [neg_lit("a")])
        assert probability_exact(dnf, {"a": Fraction(1, 7)}) == 1

    def test_constants(self):
        assert probability_exact(DNF.true(), {}) == 1
        assert probability_exact(DNF.false(), {}) == 0

    def test_missing_probability_raises(self):
        dnf = DNF.of([pos("a")])
        with pytest.raises(ProbabilityError):
            probability_exact(dnf, {})

    def test_out_of_range_probability_raises(self):
        dnf = DNF.of([pos("a")])
        with pytest.raises(ProbabilityError):
            probability_exact(dnf, {"a": Fraction(3, 2)})

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_enumeration_on_random_formulas(self, seed):
        rng = make_rng(seed)
        dnf = random_kdnf(rng, variables=7, clauses=5, width=3)
        probs = random_probabilities(rng, dnf)
        assert probability_exact(dnf, probs) == probability_enumerate(dnf, probs)

    def test_degenerate_probabilities(self):
        # Certain (1) and impossible (0) variables, as hand-built DNFs have.
        dnf = DNF.of([pos("a"), neg_lit("b")], [pos("c")])
        probs = {"a": Fraction(1), "b": Fraction(1, 4), "c": Fraction(0)}
        assert probability_exact(dnf, probs) == Fraction(3, 4)
        assert probability_enumerate(dnf, probs) == Fraction(3, 4)

    def test_component_factoring_path(self):
        # Two variable-disjoint blocks: independent events.
        dnf = DNF.of([pos("a"), pos("b")], [pos("c"), pos("d")])
        probs = {v: HALF for v in "abcd"}
        expected = 1 - (1 - Fraction(1, 4)) ** 2
        assert probability_exact(dnf, probs) == expected


class TestCountModels:
    def test_known_counts(self):
        dnf = DNF.of([pos("a")], [pos("b")])
        # a | b over 2 variables: 3 models.
        assert count_models(dnf) == 3

    def test_extra_variables_scale(self):
        dnf = DNF.of([pos("a")])
        assert count_models(dnf, variables=3) == 4

    def test_too_few_variables_rejected(self):
        dnf = DNF.of([pos("a"), pos("b")])
        with pytest.raises(ProbabilityError):
            count_models(dnf, variables=1)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_bruteforce(self, seed):
        from itertools import product

        rng = make_rng(100 + seed)
        dnf = random_kdnf(rng, variables=6, clauses=4, width=2)
        variables = sorted(dnf.variables, key=repr)
        brute = 0
        for values in product((False, True), repeat=len(variables)):
            if dnf.satisfied_by(dict(zip(variables, values))):
                brute += 1
        assert count_models(dnf) == brute


def _entry_points():
    from repro.delta.sampling import ReweightableKarpLuby
    from repro.propositional.karp_luby import (
        karp_luby_samples,
        naive_probability_estimate,
    )

    return {
        "enumerate": probability_enumerate,
        "exact": probability_exact,
        "karp_luby": lambda dnf, probs: karp_luby_samples(dnf, probs, 100, 1),
        "naive": lambda dnf, probs: naive_probability_estimate(
            dnf, probs, 100, 1
        ),
        "reweightable": lambda dnf, probs: ReweightableKarpLuby(
            dnf, probs, 100, 1
        ),
    }


@pytest.mark.parametrize("bad", ["missing", -0.2, 1.5, float("nan")])
@pytest.mark.parametrize(
    "entry", ["enumerate", "exact", "karp_luby", "naive", "reweightable"]
)
def test_every_dnf_engine_checks_probabilities(entry, bad):
    """One check guards the exact and the sampling DNF engines alike."""
    dnf = DNF.of([pos("a"), pos("b")], [neg_lit("a"), pos("c")])
    probs = {"a": 0.3, "b": 0.6, "c": 0.5}
    if bad == "missing":
        del probs["c"]
    else:
        probs["c"] = bad
    with pytest.raises(ProbabilityError):
        _entry_points()[entry](dnf, probs)
