"""Batched sampling kernels: agreement with scalar loops and exactness.

Batched and scalar paths consume the RNG differently, so estimates are
not stream-identical — the contract is distributional: both must land
within a Hoeffding-style tolerance of the exact value.  Shard fan-out,
by contrast, must be *bit-identical* across shard counts for a fixed
seed (deterministic per-batch seeding).
"""

import math
from fractions import Fraction

import pytest

from repro import obs
from repro.kernels.plan import compile_hamming_plan, compile_truth_plan
from repro.propositional.formula import DNF, Clause, Literal
from repro.propositional.karp_luby import (
    karp_luby_samples,
    naive_probability_estimate,
)
from repro.relational.atoms import Atom
from repro.reliability.exact import reliability, truth_probability
from repro.reliability.montecarlo import (
    estimate_reliability_hamming,
    estimate_truth_probability,
)
from repro.util.errors import QueryError
from repro.util.rng import make_rng

QUERY = "exists x. exists y. E(x, y) & S(y)"
SAMPLES = 20000
# Hoeffding at delta = 1e-6 for 20k samples, doubled for slack.
TOLERANCE = 2 * math.sqrt(math.log(2.0 / 1e-6) / (2.0 * SAMPLES))


def test_truth_batched_and_scalar_agree_with_exact(triangle_db):
    exact = float(truth_probability(triangle_db, QUERY))
    batched = estimate_truth_probability(
        triangle_db, QUERY, make_rng(1), samples=SAMPLES
    )
    scalar = estimate_truth_probability(
        triangle_db, QUERY, make_rng(1), samples=SAMPLES, kernel="scalar"
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


@pytest.mark.parametrize("shards", [2, 4])
def test_truth_sharded_matches_single_shard(triangle_db, shards):
    baseline = estimate_truth_probability(
        triangle_db, QUERY, make_rng(5), samples=SAMPLES
    )
    sharded = estimate_truth_probability(
        triangle_db, QUERY, make_rng(5), samples=SAMPLES, shards=shards
    )
    assert sharded == baseline


def test_truth_certain_db_short_circuits(certain_db):
    assert (
        estimate_truth_probability(
            certain_db, QUERY, make_rng(1), samples=100
        )
        == 1.0
    )


def test_truth_batched_kernel_requires_compilable_query(triangle_db):
    class Opaque:
        arity = 0

        def evaluate(self, structure, args=()):
            return True

    with pytest.raises(QueryError):
        estimate_truth_probability(
            triangle_db, Opaque(), make_rng(1), samples=10, kernel="batched"
        )
    # "auto" falls back to the scalar loop instead.
    value = estimate_truth_probability(
        triangle_db, Opaque(), make_rng(1), samples=10
    )
    assert value == 1.0


def test_unknown_kernel_rejected(triangle_db):
    with pytest.raises(QueryError):
        estimate_truth_probability(
            triangle_db, QUERY, make_rng(1), samples=10, kernel="simd"
        )


def test_hamming_batched_and_scalar_agree_with_exact(triangle_db):
    query = "E(x, y) & S(y)"
    exact = float(reliability(triangle_db, query))
    batched = estimate_reliability_hamming(
        triangle_db, query, make_rng(2), samples=SAMPLES
    )
    scalar = estimate_reliability_hamming(
        triangle_db, query, make_rng(2), samples=SAMPLES, kernel="scalar"
    )
    assert abs(batched - exact) < TOLERANCE
    assert abs(scalar - exact) < TOLERANCE


@pytest.mark.parametrize("shards", [2, 4])
def test_hamming_sharded_matches_single_shard(triangle_db, shards):
    query = "E(x, y) & S(y)"
    baseline = estimate_reliability_hamming(
        triangle_db, query, make_rng(3), samples=SAMPLES
    )
    sharded = estimate_reliability_hamming(
        triangle_db, query, make_rng(3), samples=SAMPLES, shards=shards
    )
    assert sharded == baseline


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


def test_karp_luby_batched_matches_scalar_distributionally():
    from repro.propositional.counting import probability_enumerate

    dnf, probs = _small_dnf()
    exact = float(probability_enumerate(dnf, probs))
    for method in ("coverage", "canonical"):
        batched = karp_luby_samples(
            dnf, probs, SAMPLES, make_rng(4), method=method
        )
        scalar = karp_luby_samples(
            dnf, probs, SAMPLES, make_rng(4), method=method, kernel="scalar"
        )
        assert abs(batched.estimate - exact) < TOLERANCE
        assert abs(scalar.estimate - exact) < TOLERANCE


@pytest.mark.parametrize("shards", [2, 4])
def test_karp_luby_sharded_matches_single_shard(shards):
    dnf, probs = _small_dnf()
    baseline = karp_luby_samples(dnf, probs, SAMPLES, make_rng(4))
    sharded = karp_luby_samples(
        dnf, probs, SAMPLES, make_rng(4), shards=shards
    )
    assert sharded.estimate == baseline.estimate


def test_naive_batched_matches_scalar_distributionally():
    from repro.propositional.counting import probability_enumerate

    dnf, probs = _small_dnf()
    exact = float(probability_enumerate(dnf, probs))
    batched = naive_probability_estimate(dnf, probs, SAMPLES, make_rng(6))
    scalar = naive_probability_estimate(
        dnf, probs, SAMPLES, make_rng(6), kernel="scalar"
    )
    assert abs(batched - exact) < TOLERANCE
    assert abs(scalar - exact) < TOLERANCE


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
