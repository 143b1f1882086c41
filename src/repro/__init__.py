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

from repro.relational import (
    Atom,
    RelationSymbol,
    Structure,
    StructureBuilder,
    Vocabulary,
)
from repro.logic import (
    ConjunctiveQuery,
    DatalogProgram,
    DatalogQuery,
    FixpointQuery,
    FOQuery,
    Rule,
    parse,
)
from repro.logic.so import SOQuery, SOExists, SOForall
from repro.reliability import (
    UnreliableDatabase,
    analyze,
    answer_probabilities,
    atom_influence,
    estimate_answer_probabilities,
    estimate_reliability_hamming,
    existential_probability,
    expected_error,
    is_absolutely_reliable,
    most_fragile_atoms,
    padded_reliability,
    padded_truth_probability,
    reliability,
    reliability_additive,
    truth_probability,
    uniform_error,
    wrong_probability,
)
from repro.propositional import DNF, Clause, Literal, karp_luby
from repro.util import as_rng, make_rng
from repro.util.errors import (
    BudgetExceeded,
    CostRefused,
    FallbackExhausted,
    ReproError,
)
from repro import obs
from repro import runtime
from repro.runtime import Budget, Deadline, RuntimeResult, run_with_fallback

__version__ = "1.0.0"

#: Exports loaded on first access (PEP 562), so ``import repro.cli`` does
#: not pay for subsystems a command may never touch.
_LAZY_EXPORTS = {
    "FunctionalDatabase": "repro.metafinite",
    "MetafiniteQuery": "repro.metafinite",
    "UnreliableFunctionalDatabase": "repro.metafinite",
    "ValueDistribution": "repro.metafinite",
    "metafinite_reliability": "repro.metafinite",
}


def __getattr__(name: str):
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(module), name)
    globals()[name] = value
    return value

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
