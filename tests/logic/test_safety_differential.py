"""Differential harness for the static dichotomy classifier.

Three independent implementations of the Dalvi-Suciu safety test are
run against each other over a large randomised family of self-join-free
Boolean CQs:

* :func:`repro.logic.safety.classify_dichotomy` — the production
  router's static classifier (the one the executor trusts);
* :func:`repro.logic.safety.hierarchy_oracle` — a brute-force check of
  the textbook hierarchy definition over raw variable-name sets,
  sharing no code with the classifier;
* :func:`repro.reliability.lifted.is_hierarchical` — the lifted
  engine's own guard.

Exact (not statistical) agreement is required on every case.  For every
*safe* verdict the harness additionally runs the lifted plan on a
random small database and demands the answer be bit-identical — exact
``Fraction`` equality — to an independent exact engine, so a safe
verdict really does mean "the polynomial plan returns the exact
answer".

``SAFETY_DIFF_SEEDS`` (environment) replays an explicit seed window —
the CI ``dichotomy-differential`` lane uses it to pin a fixed window
while letting developers widen the sweep locally, mirroring the
``RACE_STRESS_SEEDS`` idiom.
"""

import os
import random
from fractions import Fraction

import pytest

from repro.logic.conjunctive import ConjunctiveQuery
from repro.logic.fo import atom
from repro.logic.safety import (
    SafeVerdict,
    UnsafeVerdict,
    classify_dichotomy,
    hierarchy_oracle,
)
from repro.logic.terms import Const, Var
from repro.reliability.exact import truth_probability
from repro.reliability.lifted import is_hierarchical, lifted_probability
from repro.util.rng import make_rng
from repro.workloads.random_db import random_unreliable_database

# The generator draws from a fixed pool of relations (self-join-freeness
# is guaranteed by sampling *distinct* relations per query).
RELATION_POOL = (("R", 1), ("S", 2), ("T", 1), ("U", 2), ("V", 3), ("W", 1))
VARIABLES = ("x", "y", "z", "w")
CONSTANTS = ("a", "b")
# Above this many uncertain atoms, cross-check against the grounded DNF's
# ROBDD instead of full world enumeration (both are exact).
WORLDS_LIMIT = 12


def _seeds():
    raw = os.environ.get("SAFETY_DIFF_SEEDS", "")
    if raw.strip():
        return [int(token) for token in raw.replace(",", " ").split()]
    # >= 300 random CQs per ISSUE acceptance; 320 leaves headroom.
    return list(range(320))


def random_sjf_cq(rng):
    """A random self-join-free Boolean CQ (no equality atoms).

    Every atom uses a distinct relation, arguments are variables with an
    occasional constant, and the head is empty — exactly the fragment
    the dichotomy theorem speaks about.
    """
    count = rng.randint(1, 4)
    body = []
    for name, arity in rng.sample(RELATION_POOL, count):
        args = []
        for _ in range(arity):
            if rng.random() < 0.15:
                args.append(Const(rng.choice(CONSTANTS)))
            else:
                args.append(Var(rng.choice(VARIABLES)))
        body.append(atom(name, *args))
    return ConjunctiveQuery(head=(), body=body)


def _variable_sets(cq):
    return [
        frozenset(t.name for t in a.args if isinstance(t, Var))
        for a in cq.body
    ]


def _random_db_for(cq, rng):
    relations = {a.relation: len(a.args) for a in cq.body}
    return random_unreliable_database(
        rng,
        size=3,
        relations=relations,
        density=0.4,
        uncertain_fraction=0.8,
        error_choices=["1/4", "1/3", "1/5", "0"],
    )


class TestThreeWayAgreement:
    """classify_dichotomy == hierarchy_oracle == lifted.is_hierarchical."""

    @pytest.mark.parametrize("seed", _seeds())
    def test_classifiers_agree_exactly(self, seed):
        rng = random.Random(seed)
        cq = random_sjf_cq(rng)
        verdict = classify_dichotomy(cq)
        oracle = hierarchy_oracle(_variable_sets(cq))
        engine = is_hierarchical(cq)
        assert verdict.safe == oracle == engine, str(cq.to_formula())
        if not verdict.safe:
            # Self-join-free by construction: the only possible unsafe
            # reason inside the fragment is the hard one.
            assert verdict.reason == "non_hierarchical"
            assert verdict.hard

    def test_generator_covers_both_sides_of_the_dichotomy(self):
        # Always over the default window: this pins a property of the
        # *generator*, independent of any SAFETY_DIFF_SEEDS replay.
        verdicts = [
            classify_dichotomy(random_sjf_cq(random.Random(seed)))
            for seed in range(320)
        ]
        safe = sum(1 for v in verdicts if v.safe)
        unsafe = len(verdicts) - safe
        assert len(verdicts) >= 300
        assert safe >= 30 and unsafe >= 30, (safe, unsafe)


class TestSafeVerdictsAreExact:
    """A safe verdict means the lifted plan is bit-identical to exact."""

    @pytest.mark.parametrize("seed", _seeds())
    def test_safe_plan_matches_exact_engine(self, seed):
        rng = random.Random(seed)
        cq = random_sjf_cq(rng)
        verdict = classify_dichotomy(cq)
        if not verdict.safe:
            pytest.skip("unsafe draw: no plan to check")
        db = _random_db_for(cq, make_rng(seed))
        lifted = lifted_probability(db, cq)
        method = (
            "worlds" if len(db.uncertain_atoms()) <= WORLDS_LIMIT else "dnf"
        )
        exact = truth_probability(db, cq.to_formula(), method=method)
        assert isinstance(lifted, Fraction)
        assert lifted == exact, str(cq.to_formula())


class TestVerdictWitnesses:
    """Anchors: witnesses on canonical queries are checkable."""

    def test_h0_hard_witness_violates_hierarchy(self):
        # H0 = exists x y. R(x) & S(x, y) & T(y) — the hard pattern.
        verdict = classify_dichotomy("exists x. exists y. R(x) & S(x, y) & T(y)")
        assert isinstance(verdict, UnsafeVerdict)
        assert verdict.reason == "non_hierarchical" and verdict.hard
        atoms_x, atoms_y = verdict.occurrences
        sx, sy = set(atoms_x), set(atoms_y)
        assert sx & sy
        assert not (sx <= sy or sy <= sx)

    def test_safe_verdict_carries_the_plan(self):
        verdict = classify_dichotomy("exists x. exists y. R(x) & S(x, y)")
        assert isinstance(verdict, SafeVerdict)
        rendered = verdict.plan.render()
        assert "project" in rendered and "S(x, y)" in rendered

    def test_oracle_matches_textbook_examples(self):
        assert hierarchy_oracle([frozenset("x"), frozenset("xy")])
        assert hierarchy_oracle([frozenset("x"), frozenset("y")])
        assert not hierarchy_oracle(
            [frozenset("x"), frozenset("xy"), frozenset("y")]
        )
