"""repro — query reliability on unreliable (probabilistic) databases.

A faithful, executable reproduction of *"The Complexity of Query
Reliability"* (Erich Grädel, Yuri Gurevich, Colin Hirsch; PODS 1998).

Quick start::

    import random
    from repro import (
        StructureBuilder, Atom, UnreliableDatabase, FOQuery,
        reliability, reliability_additive,
    )

    builder = StructureBuilder(["a", "b", "c"])
    builder.relation("E", 2).add("E", ("a", "b")).add("E", ("b", "c"))
    structure = builder.build()
    db = UnreliableDatabase(structure, {Atom("E", ("a", "c")): "1/10"})

    query = FOQuery("exists x y. E(x, y)")
    print(reliability(db, query))                       # exact Fraction
    rng = random.Random(0)
    print(reliability_additive(db, query, 0.01, 0.01, rng))  # Cor. 5.5

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
reproduction results of every theorem.
"""

from repro.util.lazy import lazy_exports

__version__ = "1.0.0"

lazy_exports(
    __name__,
    {
        ".relational": (
            "Atom", "RelationSymbol", "Structure", "StructureBuilder",
            "Vocabulary",
        ),
        ".logic": (
            "ConjunctiveQuery", "DatalogProgram", "DatalogQuery",
            "FixpointQuery", "FOQuery", "Rule", "parse",
        ),
        ".logic.so": ("SOQuery", "SOExists", "SOForall"),
        ".propositional": ("DNF", "Clause", "Literal", "karp_luby"),
        ".reliability": (
            "UnreliableDatabase", "analyze", "answer_probabilities",
            "atom_influence", "estimate_answer_probabilities",
            "estimate_reliability_hamming", "existential_probability",
            "expected_error", "is_absolutely_reliable", "most_fragile_atoms",
            "padded_reliability", "padded_truth_probability", "reliability",
            "reliability_additive", "truth_probability", "uniform_error",
            "wrong_probability",
        ),
        ".metafinite": (
            "FunctionalDatabase", "MetafiniteQuery",
            "UnreliableFunctionalDatabase", "ValueDistribution",
            "metafinite_reliability",
        ),
        ".runtime": ("Budget", "Deadline", "RuntimeResult", "run_with_fallback"),
        ".util": ("as_rng", "make_rng"),
        ".util.errors": (
            "BudgetExceeded", "CostRefused", "FallbackExhausted", "ReproError",
        ),
    },
    submodules=("obs", "runtime"),
)

__all__ = [
    # relational substrate
    "Atom",
    "RelationSymbol",
    "Structure",
    "StructureBuilder",
    "Vocabulary",
    # query languages
    "ConjunctiveQuery",
    "DatalogProgram",
    "DatalogQuery",
    "FixpointQuery",
    "FOQuery",
    "Rule",
    "SOQuery",
    "SOExists",
    "SOForall",
    "parse",
    # reliability (the paper's core)
    "UnreliableDatabase",
    "uniform_error",
    "reliability",
    "expected_error",
    "wrong_probability",
    "truth_probability",
    "existential_probability",
    "reliability_additive",
    "estimate_reliability_hamming",
    "padded_reliability",
    "padded_truth_probability",
    "is_absolutely_reliable",
    "answer_probabilities",
    "estimate_answer_probabilities",
    "atom_influence",
    "most_fragile_atoms",
    "analyze",
    # propositional machinery
    "DNF",
    "Clause",
    "Literal",
    "karp_luby",
    # metafinite extension
    "FunctionalDatabase",
    "UnreliableFunctionalDatabase",
    "ValueDistribution",
    "MetafiniteQuery",
    "metafinite_reliability",
    # resilient runtime
    "runtime",
    "Budget",
    "Deadline",
    "RuntimeResult",
    "run_with_fallback",
    "ReproError",
    "BudgetExceeded",
    "CostRefused",
    "FallbackExhausted",
    # utilities
    "as_rng",
    "make_rng",
    "obs",
    "__version__",
]
