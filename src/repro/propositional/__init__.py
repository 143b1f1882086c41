"""Propositional formulas, model counting, and the Karp–Luby FPTRAS.

Section 5 of the paper reduces query-probability computation to
propositional problems: ``#C`` (count satisfying assignments of formulas
in class ``C``) and ``Prob-C`` (probability of truth under independent
variable probabilities).  This subpackage supplies:

* :mod:`~repro.propositional.formula` — literals, clauses, and DNF/CNF
  containers over arbitrary hashable variable labels (the reliability
  layer uses ground :class:`~repro.relational.atoms.Atom` objects as
  variables);
* :mod:`~repro.propositional.counting` — exact weighted model counting
  through the ROBDD engine, plus brute-force enumeration as the test
  oracle;
* :mod:`~repro.propositional.karp_luby` — the Karp–Luby fully
  polynomial-time randomized approximation scheme for weighted DNF
  probability (Theorem 5.2 / 5.3), with the coverage ("self-adjusting")
  estimator;
* :mod:`~repro.propositional.bitvector` — the paper's Theorem 5.3
  reduction from Prob-kDNF to #DNF via binary counters;
* :mod:`~repro.propositional.bdd` — reduced ordered BDDs, the one exact
  DNF engine: probability, model counts and all influences.
"""

from repro.util.lazy import lazy_exports

lazy_exports(
    __name__,
    {
        ".formula": ("Literal", "Clause", "DNF", "CNF", "pos", "neg_lit"),
        ".counting": (
            "count_models", "probability_exact", "probability_enumerate",
        ),
        ".karp_luby": (
            "KarpLubyEstimate", "karp_luby", "karp_luby_samples",
            "sample_count", "naive_probability_estimate",
        ),
        ".bitvector": (
            "BitvectorInstance", "bitvector_reduction", "dnf_less_than",
            "dnf_geq", "probability_via_bitvector",
        ),
        ".bdd": ("BDD", "compile_dnf", "influences_via_bdd"),
    },
)

__all__ = [
    "Literal",
    "Clause",
    "DNF",
    "CNF",
    "pos",
    "neg_lit",
    "count_models",
    "probability_exact",
    "probability_enumerate",
    "KarpLubyEstimate",
    "karp_luby",
    "karp_luby_samples",
    "sample_count",
    "naive_probability_estimate",
    "BitvectorInstance",
    "bitvector_reduction",
    "dnf_less_than",
    "dnf_geq",
    "probability_via_bitvector",
    "BDD",
    "compile_dnf",
    "influences_via_bdd",
]
