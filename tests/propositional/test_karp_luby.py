"""Tests for the Karp–Luby FPTRAS."""

from fractions import Fraction

import pytest

from repro.propositional.counting import probability_exact
from repro.propositional.formula import DNF, Clause, neg_lit, pos
from repro.propositional.karp_luby import (
    karp_luby,
    karp_luby_samples,
    naive_probability_estimate,
    sample_count,
)
from repro.util.errors import ProbabilityError
from repro.util.rng import make_rng
from repro.workloads.random_dnf import random_kdnf, random_probabilities


class TestSampleCount:
    def test_grows_with_clauses_and_precision(self):
        base = sample_count(4, 0.1, 0.05)
        assert sample_count(8, 0.1, 0.05) > base
        assert sample_count(4, 0.05, 0.05) > base
        assert sample_count(4, 0.1, 0.01) > base

    def test_quadratic_in_inverse_epsilon(self):
        t1 = sample_count(1, 0.1, 0.5)
        t2 = sample_count(1, 0.05, 0.5)
        assert 3.5 <= t2 / t1 <= 4.5

    def test_invalid_parameters(self):
        with pytest.raises(ProbabilityError):
            sample_count(3, 0.0, 0.1)
        with pytest.raises(ProbabilityError):
            sample_count(3, 0.1, 1.5)


class TestKarpLuby:
    def test_constants(self, rng):
        assert karp_luby(DNF.true(), {}, 0.1, 0.1, rng).estimate == 1.0
        assert karp_luby(DNF.false(), {}, 0.1, 0.1, rng).estimate == 0.0

    def test_deterministic_formula(self, rng):
        dnf = DNF.of([pos("a")])
        run = karp_luby(dnf, {"a": Fraction(1)}, 0.2, 0.2, rng)
        assert run.estimate == pytest.approx(1.0)

    def test_zero_weight_short_circuit(self, rng):
        dnf = DNF.of([pos("a")])
        run = karp_luby(dnf, {"a": Fraction(0)}, 0.2, 0.2, rng)
        assert run.estimate == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_relative_error_within_bound(self, seed):
        rng = make_rng(seed)
        dnf = random_kdnf(rng, variables=8, clauses=6, width=3)
        probs = random_probabilities(rng, dnf)
        exact = float(probability_exact(dnf, probs))
        run = karp_luby(dnf, probs, 0.1, 0.05, rng)
        assert exact > 0
        assert abs(run.estimate - exact) / exact <= 0.1

    def test_estimator_is_unbiased_in_expectation(self):
        # Average many small runs: the grand mean must approach truth much
        # closer than single-run tolerance.
        rng = make_rng(2024)
        dnf = DNF.of([pos("a"), pos("b")], [pos("b"), pos("c")], [neg_lit("a")])
        probs = {"a": Fraction(1, 3), "b": Fraction(1, 2), "c": Fraction(2, 5)}
        exact = float(probability_exact(dnf, probs))
        runs = [
            karp_luby_samples(dnf, probs, 200, rng).estimate for _ in range(50)
        ]
        grand = sum(runs) / len(runs)
        assert abs(grand - exact) < 0.02

    def test_rare_event_still_relatively_accurate(self):
        # A conjunction of 10 literals at p = 1/4: probability ~1e-6.
        # Naive MC at the same budget sees zero hits; Karp-Luby nails it.
        rng = make_rng(7)
        variables = [f"v{i}" for i in range(10)]
        dnf = DNF.of([pos(v) for v in variables])
        probs = {v: Fraction(1, 4) for v in variables}
        exact = float(Fraction(1, 4) ** 10)
        run = karp_luby_samples(dnf, probs, 2000, rng)
        assert abs(run.estimate - exact) / exact < 0.05
        naive = naive_probability_estimate(dnf, probs, 2000, make_rng(8))
        assert naive == 0.0  # the baseline fails completely

    def test_missing_probability_raises(self, rng):
        with pytest.raises(ProbabilityError):
            karp_luby(DNF.of([pos("a")]), {}, 0.1, 0.1, rng)

    def test_zero_samples_rejected(self, rng):
        with pytest.raises(ProbabilityError):
            karp_luby_samples(DNF.of([pos("a")]), {"a": 0.5}, 0, rng)

    def test_estimate_clamped_to_one(self):
        rng = make_rng(3)
        dnf = DNF.of([pos("a")], [neg_lit("a")])
        run = karp_luby_samples(dnf, {"a": Fraction(1, 2)}, 50, rng)
        assert run.estimate <= 1.0
        assert run.estimate == pytest.approx(1.0)


class TestNaiveBaseline:
    def test_matches_exact_on_easy_formula(self):
        rng = make_rng(11)
        dnf = DNF.of([pos("a")], [pos("b")])
        probs = {"a": Fraction(1, 2), "b": Fraction(1, 2)}
        estimate = naive_probability_estimate(dnf, probs, 20000, rng)
        assert abs(estimate - 0.75) < 0.02

    def test_zero_samples_rejected(self, rng):
        with pytest.raises(ProbabilityError):
            naive_probability_estimate(DNF.true(), {}, 0, rng)
