"""Bit-parallel world kernels.

The engines in :mod:`repro.reliability` walk possible worlds one at a
time.  This package makes that work *compile-once, evaluate-many*:

* :mod:`repro.kernels.bitops` — S-bit integer columns: one Python
  big-int per propositional variable holds the variable's value in S
  sampled worlds at once, so a clause over k literals costs k AND ops
  for all S worlds together.
* :mod:`repro.kernels.plan` — compilation of grounded DNFs (and the
  per-tuple quantifier-free formulas) into clause bitmask plans.
* :mod:`repro.kernels.cache` — a bounded LRU keyed on a database
  fingerprint plus the query AST, so repeated ``run``/``analyze``/
  benchmark invocations stop re-grounding.
* :mod:`repro.kernels.sampling` — the one batch layout and sample loop
  behind the Monte-Carlo, Karp–Luby and naive-DNF estimators,
  fixed-budget and adaptive alike, with deterministic per-batch
  seeding.
* :mod:`repro.kernels.gray` — the one world-enumeration loop behind
  the exact engines (the Theorem 4.2 ``worlds`` route, the Lemma 5.8
  witness search, the Theorem 6.2 metafinite walk): reflected
  mixed-radix Gray order, one coordinate and one weight update per
  world, preflighted and charged per chunk.

Everything reports through :mod:`repro.obs` (``kernels.*`` counters)
and respects the active :class:`repro.runtime.Budget` via
``runtime.checkpoint`` at batch granularity.  See docs/PERFORMANCE.md.
"""

from repro.util.lazy import lazy_exports

lazy_exports(
    __name__,
    {
        ".bitops": ("BATCH_BITS", "popcount"),
        ".cache": ("clear_caches", "compilation_cache"),
        ".gray": ("atom_worlds", "enumerated_worlds"),
        ".plan": (
            "DnfPlan", "HammingPlan", "TruthPlan", "compile_dnf_plan",
            "compile_hamming_plan", "compile_truth_plan",
        ),
        ".sampling": ("KlPlan", "sample_layout"),
    },
)

__all__ = [
    "BATCH_BITS",
    "popcount",
    "clear_caches",
    "compilation_cache",
    "atom_worlds",
    "enumerated_worlds",
    "DnfPlan",
    "HammingPlan",
    "KlPlan",
    "TruthPlan",
    "compile_dnf_plan",
    "compile_hamming_plan",
    "compile_truth_plan",
    "sample_layout",
]
