"""The one per-world sample loop: every per-world estimator draws its
worlds through ``montecarlo.sampled_worlds`` and is budgeted by it.

Each case runs one estimator on a query that does not compile to the
batched kernels, so the estimator takes the per-world loop.
"""

import pytest

from repro import obs
from repro.logic.datalog import reachability_query
from repro.metafinite.database import (
    FunctionalDatabase,
    UnreliableFunctionalDatabase,
)
from repro.metafinite.reliability import estimate_metafinite_reliability
from repro.metafinite.terms import MetafiniteQuery, aggregate, func
from repro.reliability.answers import estimate_answer_probabilities
from repro.reliability.montecarlo import (
    estimate_reliability_hamming,
    estimate_truth_probability,
    sampled_worlds,
)
from repro.reliability.padding import padded_truth_probability
from repro.reliability.unreliable import UnreliableDatabase
from repro.runtime.budget import CHECKPOINT_CHUNK, Budget, apply
from repro.util.errors import BudgetExceeded, CostRefused, ProbabilityError
from repro.util.rng import make_rng

REACH = reachability_query()


@pytest.fixture
def udb():
    observed = FunctionalDatabase(("a", "b"), {"w": {("a",): 3, ("b",): 5}})
    return UnreliableFunctionalDatabase(
        observed,
        {
            ("w", ("a",)): {3: "1/2", 4: "1/2"},
            ("w", ("b",)): {5: "3/4", 6: "1/4"},
        },
    )


# Each case runs its estimator with ``samples`` (0: the count its
# (epsilon, delta) = (0.05, 0.05) guarantee needs) and returns the
# number of worlds the run should draw.


def _truth(db, udb, samples):
    estimate_truth_probability(
        db, REACH, make_rng(1), samples=samples, args=("a", "c")
    )
    return samples


def _hamming(db, udb, samples):
    estimate_reliability_hamming(db, REACH, make_rng(1), samples=samples)
    return samples


def _padded(db, udb, samples):
    # Padding derives its count from (epsilon, delta) alone.
    epsilon, delta = (0.05, 0.05) if samples == 0 else (0.8, 0.5)
    return padded_truth_probability(
        db, REACH, epsilon, delta, make_rng(1), args=("a", "c")
    ).samples


def _answers(db, udb, samples):
    estimate_answer_probabilities(db, REACH, make_rng(1), samples=samples)
    return samples


def _metafinite(db, udb, samples):
    query = MetafiniteQuery(aggregate("sum", ["x"], func("w", "x")))
    estimate_metafinite_reliability(udb, query, make_rng(1), samples=samples)
    return samples


ESTIMATORS = {
    "truth": _truth,
    "hamming": _hamming,
    "padded_truth": _padded,
    "answers": _answers,
    "metafinite": _metafinite,
}


@pytest.fixture
def draws(monkeypatch):
    """Count every world drawn from either kind of database."""
    drawn = [0]
    for cls in (UnreliableDatabase, UnreliableFunctionalDatabase):
        def counting(self, rng, _sample=cls.sample):
            drawn[0] += 1
            return _sample(self, rng)

        monkeypatch.setattr(cls, "sample", counting)
    return drawn


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_sample_cap_refuses_before_any_draw(name, triangle_db, udb, draws):
    budget = Budget(max_samples=10)
    with pytest.raises(CostRefused):
        with apply(budget):
            ESTIMATORS[name](triangle_db, udb, 0)
    assert draws[0] == 0
    assert budget.samples == 0


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_completed_run_charges_its_sample_count(name, triangle_db, udb, draws):
    budget = Budget(max_samples=10**6)
    with apply(budget):
        count = ESTIMATORS[name](triangle_db, udb, 150)
    assert count > CHECKPOINT_CHUNK
    assert draws[0] == count
    assert budget.samples == count


@pytest.mark.parametrize("name", ["answers", "metafinite"])
def test_negative_sample_count_is_rejected(name, triangle_db, udb):
    # The truth and Hamming estimators: test_montecarlo.TestNegativeSampleBudget.
    with pytest.raises(ProbabilityError, match="got -1"):
        ESTIMATORS[name](triangle_db, udb, -1)


def test_each_chunk_is_charged_before_its_first_draw(triangle_db, draws):
    # The second chunk's charge crosses the cap before it draws a world.
    budget = Budget(max_samples=CHECKPOINT_CHUNK + 1)
    with pytest.raises(BudgetExceeded):
        with apply(budget):
            for _ in sampled_worlds(triangle_db, make_rng(1), 200):
                pass
    assert draws[0] == CHECKPOINT_CHUNK
    assert budget.samples == 2 * CHECKPOINT_CHUNK


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_samples_counter_equals_worlds_drawn(name, triangle_db, udb, draws):
    recorder = obs.StatsRecorder()
    with obs.use(recorder):
        count = ESTIMATORS[name](triangle_db, udb, 150)
    assert draws[0] == count
    assert recorder.summary()["counters"]["montecarlo.samples"] == count
