"""Batched sampling kernels: exactness, determinism and budget charging.

A query object that does not compile runs the per-world loop instead
of the batched kernel.  The two consume the RNG differently, so their
estimates are not stream-identical — the contract is distributional:
both must land within a Hoeffding-style tolerance of the exact value.
"""

import itertools
import math
from fractions import Fraction

import pytest

from repro import obs
from repro.kernels import sampling
from repro.kernels.plan import compile_hamming_plan, compile_truth_plan
from repro.propositional.formula import DNF, Clause, Literal
from repro.propositional.karp_luby import (
    karp_luby_samples,
    naive_probability_estimate,
)
from repro.relational.atoms import Atom
from repro.reliability.exact import as_query, reliability, truth_probability
from repro.reliability.montecarlo import (
    estimate_reliability_hamming,
    estimate_truth_probability,
)
from repro.runtime.adaptive import CostSurrogate, use_surrogate
from repro.runtime.budget import Budget, apply
from repro.util.errors import BudgetExceeded
from repro.util.rng import make_rng

QUERY = "exists x. exists y. E(x, y) & S(y)"
SAMPLES = 20000
# Hoeffding at delta = 1e-6 for 20k samples, doubled for slack.
TOLERANCE = 2 * math.sqrt(math.log(2.0 / 1e-6) / (2.0 * SAMPLES))


class Opaque:
    """A query behind an object that does not compile, as Datalog and
    second-order queries are: the estimators run the per-world loop."""

    def __init__(self, query):
        self.query = as_query(query)
        self.arity = self.query.arity

    def evaluate(self, structure, args=()):
        return self.query.evaluate(structure, args)

    def answers(self, structure):
        return self.query.answers(structure)


def test_truth_batched_and_scalar_agree_with_exact(triangle_db):
    exact = float(truth_probability(triangle_db, QUERY))
    batched = estimate_truth_probability(
        triangle_db, QUERY, make_rng(1), samples=SAMPLES
    )
    scalar = estimate_truth_probability(
        triangle_db, Opaque(QUERY), make_rng(1), samples=SAMPLES
    )
    assert abs(batched - exact) < TOLERANCE
    assert abs(scalar - exact) < TOLERANCE


def test_truth_batched_deterministic_for_seed(triangle_db):
    first = estimate_truth_probability(
        triangle_db, QUERY, make_rng(5), samples=SAMPLES
    )
    second = estimate_truth_probability(
        triangle_db, QUERY, make_rng(5), samples=SAMPLES
    )
    assert first == second


def test_truth_certain_db_short_circuits(certain_db):
    assert (
        estimate_truth_probability(
            certain_db, QUERY, make_rng(1), samples=100
        )
        == 1.0
    )


def test_truth_batched_kernel_requires_compilable_query(triangle_db):
    class Constant:
        arity = 0

        def evaluate(self, structure, args=()):
            return True

    # A query that does not compile runs the per-world loop.
    value = estimate_truth_probability(
        triangle_db, Constant(), make_rng(1), samples=10
    )
    assert value == 1.0


def test_hamming_batched_and_scalar_agree_with_exact(triangle_db):
    query = "E(x, y) & S(y)"
    exact = float(reliability(triangle_db, query))
    batched = estimate_reliability_hamming(
        triangle_db, query, make_rng(2), samples=SAMPLES
    )
    scalar = estimate_reliability_hamming(
        triangle_db, Opaque(query), make_rng(2), samples=SAMPLES
    )
    assert abs(batched - exact) < TOLERANCE
    assert abs(scalar - exact) < TOLERANCE


def test_hamming_block_moments_match_per_lane_distances(triangle_db):
    """The counter-based moments equal a per-lane reference count."""
    from repro.kernels.sampling import (
        _hamming_diffs,
        batch_rng,
        hamming_block_moments,
    )

    plan = compile_hamming_plan(triangle_db, as_query("E(x, y) & ~S(y)"))
    for index, width in ((0, 1), (1, 64), (2, 1000)):
        _, constant, diffs = _hamming_diffs(plan, batch_rng(99, index), width)
        distances = [
            constant + sum(diff >> lane & 1 for diff in diffs)
            for lane in range(width)
        ]
        total, total_sq = hamming_block_moments(
            plan, batch_rng(99, index), width
        )
        assert total == sum(distances)
        assert total_sq == sum(d * d for d in distances)


def _small_dnf():
    a, b, c = Atom("P", (1,)), Atom("P", (2,)), Atom("P", (3,))
    dnf = DNF(
        [
            Clause([Literal(a, True), Literal(b, False)]),
            Clause([Literal(b, True), Literal(c, True)]),
        ]
    )
    probs = {
        a: Fraction(1, 3),
        b: Fraction(1, 4),
        c: Fraction(2, 5),
    }
    return dnf, probs


@pytest.mark.parametrize(
    "variables",
    [
        # repr order differs from dataclass order: "E" < "S" both ways,
        # but 10 sorts before 9 and quoted strings after ints in repr.
        [Atom("S", (9,)), Atom("E", (10, 2)), Atom("S", (10,)),
         Atom("E", ("a", 1)), Atom("E", (9, 2)), Atom("R", ())],
        ["x10", "x9", "b", "a", "x1"],
    ],
    ids=["atoms", "strings"],
)
def test_dnf_plan_columns_are_in_repr_order(variables):
    from repro.kernels.plan import DnfPlan

    dnf = DNF(
        Clause([Literal(v, True), Literal(w, i % 2 == 0)])
        for i, (v, w) in enumerate(zip(variables, variables[1:]))
    )
    assert DnfPlan(dnf).variables == tuple(sorted(dnf.variables, key=repr))


def test_karp_luby_agrees_with_exact():
    from repro.propositional.counting import probability_enumerate

    dnf, probs = _small_dnf()
    exact = float(probability_enumerate(dnf, probs))
    batched = karp_luby_samples(dnf, probs, SAMPLES, make_rng(4))
    assert abs(batched.estimate - exact) < TOLERANCE


def test_naive_agrees_with_exact():
    from repro.propositional.counting import probability_enumerate

    dnf, probs = _small_dnf()
    exact = float(probability_enumerate(dnf, probs))
    batched = naive_probability_estimate(dnf, probs, SAMPLES, make_rng(6))
    assert abs(batched - exact) < TOLERANCE


def test_plans_compile_for_fo_queries(triangle_db):
    from repro.reliability.exact import as_query

    query = as_query(QUERY)
    plan = compile_truth_plan(triangle_db, query, ())
    assert plan is not None
    hamming = compile_hamming_plan(triangle_db, as_query("E(x, y) & S(y)"))
    assert hamming is not None
    assert len(hamming.tuples) == triangle_db.universe_size**2


def test_batched_kernels_report_counters(triangle_db):
    recorder = obs.StatsRecorder()
    with obs.use(recorder):
        estimate_truth_probability(
            triangle_db, QUERY, make_rng(1), samples=5000
        )
    counters = recorder.summary()["counters"]
    assert counters["kernels.batch_samples"] == 5000
    assert counters["montecarlo.samples"] == 5000
    assert counters["kernels.batches"] >= 1


def test_batched_respects_budget(triangle_db):
    from repro.runtime.budget import Budget, apply
    from repro.util.errors import BudgetExceeded, CostRefused

    with pytest.raises((BudgetExceeded, CostRefused)):
        with apply(Budget(max_samples=100)):
            estimate_truth_probability(
                triangle_db, QUERY, make_rng(1), samples=SAMPLES
            )


def test_tracing_does_not_change_sampled_answers():
    """A recorder must not change the batch split, hence the samples."""
    from repro.reliability.approx import existential_probability
    from repro.workloads.random_db import random_unreliable_database

    db = random_unreliable_database(
        make_rng(7), size=6, relations={"E": 2, "S": 1}, density=0.5
    )
    query = "exists x. E(x, x) & S(x)"

    def answers():
        return (
            estimate_truth_probability(db, query, make_rng(3), samples=SAMPLES),
            estimate_reliability_hamming(db, query, make_rng(3), samples=SAMPLES),
            existential_probability(db, query, 0.05, 0.05, make_rng(3)).value,
        )

    untraced = answers()
    with obs.recording() as recorder:
        traced = answers()
    assert traced == untraced
    assert recorder.summary()["counters"]["kernels.batches"] > 0


def _estimators(db):
    """Every batched sample loop, by name: four fixed, two adaptive."""
    dnf, probs = _small_dnf()
    hamming = "E(x, y) & S(y)"
    return {
        "truth": lambda: estimate_truth_probability(
            db, QUERY, make_rng(1), samples=SAMPLES
        ),
        "hamming": lambda: estimate_reliability_hamming(
            db, hamming, make_rng(1), samples=SAMPLES
        ),
        "karp_luby": lambda: karp_luby_samples(
            dnf, probs, SAMPLES, make_rng(1)
        ),
        "naive": lambda: naive_probability_estimate(
            dnf, probs, SAMPLES, make_rng(1)
        ),
        "truth_adaptive": lambda: estimate_truth_probability(
            db, QUERY, make_rng(1), 0.05, 0.05, adaptive=True
        ),
        "karp_luby_adaptive": lambda: karp_luby_samples(
            dnf, probs, SAMPLES, make_rng(1), epsilon=0.1, delta=0.1,
            adaptive=True,
        ),
    }


def _expired_budget():
    """A budget whose deadline has passed by its first checkpoint: each
    clock read is ten seconds after the last."""
    ticks = itertools.count(0, 10)
    return Budget(deadline=1.0, clock=lambda: next(ticks))


@pytest.mark.parametrize(
    "name",
    [
        "truth",
        "hamming",
        "karp_luby",
        "naive",
        "truth_adaptive",
        "karp_luby_adaptive",
    ],
)
def test_cancelled_attempt_draws_no_batch(triangle_db, monkeypatch, name):
    """The budget is charged before a batch is drawn, not after."""
    run = _estimators(triangle_db)[name]
    with use_surrogate(CostSurrogate()):
        # Warm the compilation cache: below, only the sample loop runs.
        run()
        drawn = []
        draw_columns = sampling.draw_columns

        def counting(*args):
            drawn.append(args[2])
            return draw_columns(*args)

        monkeypatch.setattr(sampling, "draw_columns", counting)
        with pytest.raises(BudgetExceeded):
            with apply(_expired_budget()):
                run()
    assert drawn == []
