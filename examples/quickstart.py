#!/usr/bin/env python
"""Quickstart: build an unreliable database and measure query reliability.

Covers the core workflow of the library in ~60 lines:

1. build a finite relational structure (the *observed* database);
2. attach per-atom error probabilities (Definition 2.1 of the paper);
3. compute exact reliabilities for queries in different fragments;
4. fall back to randomized estimators when exact computation is too
   expensive (Corollary 5.5 and Theorem 5.12).

Run:  python examples/quickstart.py
"""

import logging
import random
from fractions import Fraction

from repro import (
    Atom,
    FOQuery,
    StructureBuilder,
    UnreliableDatabase,
    expected_error,
    is_absolutely_reliable,
    padded_reliability,
    reliability,
    reliability_additive,
    truth_probability,
)


def main() -> None:
    # 1. The observed database: people and a "Follows" graph.
    builder = StructureBuilder(["ann", "bob", "cat", "dan"])
    builder.relation("Follows", 2)
    builder.relation("Verified", 1)
    for edge in [("ann", "bob"), ("bob", "cat"), ("cat", "dan"), ("dan", "ann")]:
        builder.add("Follows", edge)
    builder.add("Verified", ("ann",)).add("Verified", ("cat",))
    observed = builder.build()

    # 2. Error probabilities: the crawler that produced "Follows" misses
    #    or invents edges 5% of the time; "Verified" flags are solid
    #    except for dan, whose status is disputed.
    mu = {}
    for atom in observed.atoms():
        if atom.relation == "Follows":
            mu[atom] = Fraction(1, 20)
    mu[Atom("Verified", ("dan",))] = Fraction(1, 4)
    db = UnreliableDatabase(observed, mu)

    print(f"database: {observed}")
    print(f"uncertain atoms: {len(db.uncertain_atoms())}")
    print()

    # 3a. A quantifier-free query: the Follows table itself.
    #     Proposition 3.1: exact reliability in polynomial time.
    table = FOQuery("Follows(x, y)", ["x", "y"])
    print(f"R[Follows(x, y)]          = {reliability(db, table)}")

    # 3b. A conjunctive (existential) query: some verified user follows
    #     another verified user.  Exact via the grounded DNF's ROBDD.
    pair = FOQuery("exists x y. Verified(x) & Follows(x, y) & Verified(y)")
    print(f"nu[verified pair exists]  = {truth_probability(db, pair)}")
    print(f"R[verified pair exists]   = {reliability(db, pair)}")
    print(f"H[verified pair exists]   = {expected_error(db, pair)}")

    # 3c. Absolute reliability (Section 5): can we trust the observed
    #     answer unconditionally?
    print(f"absolutely reliable?      = {is_absolutely_reliable(db, pair)}")
    print()

    # 4a. Corollary 5.5: additive randomized estimate for the same query.
    rng = random.Random(2026)
    estimate = reliability_additive(db, pair, epsilon=0.02, delta=0.05, rng=rng)
    print(
        f"Cor. 5.5 estimate         = {estimate.value:.4f}"
        f"  ({estimate.samples} Karp-Luby samples)"
    )

    # 4b. Theorem 5.12: the xi-padding estimator works for *any*
    #     polynomial-time query, here a forall/exists alternation that
    #     Corollary 5.5 cannot touch.
    everyone_followed = FOQuery("forall x. exists y. Follows(y, x)")
    exact = reliability(db, everyone_followed)
    padded = padded_reliability(
        db, everyone_followed, epsilon=0.05, delta=0.05, rng=rng
    )
    print(f"R[everyone followed]      = {exact} (exact)")
    print(
        f"Thm 5.12 estimate         = {padded.value:.4f}"
        f"  ({padded.samples} world samples)"
    )


if __name__ == "__main__":
    # Engine failures are logged, not swallowed: a configured handler
    # makes the failing example attributable in scripted runs.
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    try:
        main()
    except Exception:
        logging.getLogger("repro.examples.quickstart").exception(
            "quickstart example failed"
        )
        raise SystemExit(1)
