"""Statistical conformance of the adaptive sequential stopper.

The empirical-Bernstein controller (:mod:`repro.runtime.adaptive`)
claims the *same* (epsilon, delta) contract as the fixed worst-case
budget it replaces.  That claim is statistical, so it is tested the
only honest way: a large pinned seed window, the empirical coverage of
the guarantee measured over the whole window, and a ``>= 1 - delta``
assertion on the aggregate — per-seed "within epsilon" assertions
would be unsound (any single seed is *allowed* to miss with
probability up to delta).

Two estimator paths are swept:

* additive — :func:`estimate_truth_probability` with ``adaptive=True``
  against the exact truth probability of a small database;
* relative — :func:`karp_luby` with ``adaptive=True`` against the
  exact DNF probability.

The fixed-budget Karp–Luby kernel makes the same relative claim with
its worst-case ``sample_count``, so both of its estimators (coverage
and canonical) are swept on the same window against the
``probability_enumerate`` oracle: a new sample stream has to earn the
guarantee, not inherit it.

``ADAPTIVE_CONF_SEEDS`` (environment) replays an explicit seed window —
the CI ``adaptive-guarantee`` lane pins a fixed window while letting
developers widen the sweep locally, mirroring ``SAFETY_DIFF_SEEDS``.
"""

import os
from functools import lru_cache

import pytest

from repro import obs
from repro.logic.evaluator import FOQuery
from repro.propositional.counting import (
    probability_enumerate,
    probability_exact,
)
from repro.propositional.karp_luby import karp_luby, sample_count
from repro.reliability.exact import truth_probability
from repro.reliability.montecarlo import (
    estimate_truth_probability,
    hoeffding_samples,
)
from repro.runtime.adaptive import CostSurrogate, use_surrogate
from repro.util.rng import make_rng
from repro.workloads.random_db import random_unreliable_database
from repro.workloads.random_dnf import random_kdnf, random_probabilities

# Additive arm: a small Boolean query whose truth probability is exact.
MC_EPSILON = 0.1
MC_DELTA = 0.2
# Relative arm: a 4-clause DNF keeps the Karp-Luby worst case ~1k.
KL_EPSILON = 0.2
KL_DELTA = 0.2


def _seeds():
    raw = os.environ.get("ADAPTIVE_CONF_SEEDS", "")
    if raw.strip():
        return [int(token) for token in raw.replace(",", " ").split()]
    # >= 200 seeds per ISSUE acceptance; 240 leaves headroom.
    return list(range(240))


@lru_cache(maxsize=1)
def _mc_instance():
    query = FOQuery("exists x. exists y. E(x, y) & S(y)")
    db = random_unreliable_database(
        make_rng(41), size=4, relations={"E": 2, "S": 1},
        density=0.4, error="1/8",
    )
    exact = float(truth_probability(db, query, method="dnf"))
    return db, query, exact


@lru_cache(maxsize=1)
def _kl_instance():
    rng = make_rng(5)
    dnf = random_kdnf(rng, variables=8, clauses=4, width=3)
    probs = random_probabilities(rng, dnf)
    exact = float(probability_exact(dnf, probs))
    assert exact > 0.0
    return dnf, probs, exact


_MC_RESULTS = {}
_KL_RESULTS = {}


def _mc_estimate(seed):
    if seed not in _MC_RESULTS:
        db, query, _ = _mc_instance()
        with use_surrogate(CostSurrogate()):
            _MC_RESULTS[seed] = estimate_truth_probability(
                db, query, make_rng(seed), MC_EPSILON, MC_DELTA,
                adaptive=True,
            )
    return _MC_RESULTS[seed]


def _kl_estimate(seed):
    if seed not in _KL_RESULTS:
        dnf, probs, _ = _kl_instance()
        with use_surrogate(CostSurrogate()):
            _KL_RESULTS[seed] = karp_luby(
                dnf, probs, KL_EPSILON, KL_DELTA, make_rng(seed),
                method="coverage", adaptive=True,
            )
    return _KL_RESULTS[seed]


_FIXED_KL_RESULTS = {}


def _fixed_kl_estimate(seed, method):
    key = (seed, method)
    if key not in _FIXED_KL_RESULTS:
        dnf, probs, _ = _kl_instance()
        _FIXED_KL_RESULTS[key] = karp_luby(
            dnf, probs, KL_EPSILON, KL_DELTA, make_rng(seed),
            method=method, adaptive=False,
        )
    return _FIXED_KL_RESULTS[key]


@pytest.mark.parametrize("seed", _seeds())
def test_additive_estimate_is_sane(seed):
    """Per-seed soundness: a probability, replayable bit-identically."""
    value = _mc_estimate(seed)
    assert 0.0 <= value <= 1.0
    if seed % 32 == 0:  # determinism spot-check, kept cheap
        db, query, _ = _mc_instance()
        with use_surrogate(CostSurrogate()):
            again = estimate_truth_probability(
                db, query, make_rng(seed), MC_EPSILON, MC_DELTA,
                adaptive=True,
            )
        assert again == value


@pytest.mark.parametrize("seed", _seeds())
def test_relative_estimate_is_sane(seed):
    """Per-seed soundness: never draws more than the worst case."""
    dnf, _, _ = _kl_instance()
    run = _kl_estimate(seed)
    worst = sample_count(len(dnf.clauses), KL_EPSILON, KL_DELTA)
    assert 0.0 <= run.estimate <= 1.0
    assert 0 < run.samples <= worst


def test_additive_empirical_coverage():
    """P(|estimate - exact| <= epsilon) >= 1 - delta over the window."""
    _, _, exact = _mc_instance()
    seeds = _seeds()
    covered = sum(
        abs(_mc_estimate(seed) - exact) <= MC_EPSILON for seed in seeds
    )
    coverage = covered / len(seeds)
    assert coverage >= 1.0 - MC_DELTA, (covered, len(seeds))


def test_relative_empirical_coverage():
    """P(|estimate - exact| <= epsilon * exact) >= 1 - delta."""
    _, _, exact = _kl_instance()
    seeds = _seeds()
    covered = sum(
        abs(_kl_estimate(seed).estimate - exact) <= KL_EPSILON * exact
        for seed in seeds
    )
    coverage = covered / len(seeds)
    assert coverage >= 1.0 - KL_DELTA, (covered, len(seeds))


@pytest.mark.parametrize("method", ["coverage", "canonical"])
def test_fixed_budget_relative_empirical_coverage(method):
    """The fixed worst-case budget meets the same relative contract."""
    dnf, probs, _ = _kl_instance()
    exact = float(probability_enumerate(dnf, probs))
    worst = sample_count(len(dnf.clauses), KL_EPSILON, KL_DELTA, method)
    seeds = _seeds()
    covered = 0
    for seed in seeds:
        run = _fixed_kl_estimate(seed, method)
        assert run.samples == worst
        covered += abs(run.estimate - exact) <= KL_EPSILON * exact
    coverage = covered / len(seeds)
    assert coverage >= 1.0 - KL_DELTA, (covered, len(seeds))


def test_adaptive_saves_samples_on_the_window():
    """The stopper actually stops: the window saves a real fraction."""
    dnf, _, _ = _kl_instance()
    worst = sample_count(len(dnf.clauses), KL_EPSILON, KL_DELTA)
    seeds = _seeds()
    drawn = sum(_kl_estimate(seed).samples for seed in seeds)
    assert drawn < worst * len(seeds)


def test_adaptive_path_actually_engages():
    """The adaptive counters move — the run is not silently fixed-budget."""
    db, query, _ = _mc_instance()
    with use_surrogate(CostSurrogate()) as surrogate:
        with obs.recording() as rec:
            estimate_truth_probability(
                db, query, make_rng(0), MC_EPSILON, MC_DELTA, adaptive=True,
            )
        counters = rec.summary()["counters"]
        assert counters["adaptive.runs"] == 1
        worst = hoeffding_samples(MC_EPSILON, MC_DELTA)
        assert (
            counters["adaptive.samples_drawn"]
            + counters["adaptive.samples_saved"]
            == worst
        )
        # ... and the completed run fed the online cost surrogate.
        assert surrogate.observations("montecarlo") == 1
