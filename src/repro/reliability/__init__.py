"""Query reliability on unreliable databases — the paper's core.

An unreliable database (Definition 2.1) is a finite relational structure
``A`` together with per-atom error probabilities ``mu``; it induces a
product distribution ``nu`` over possible worlds ``B`` of the same format.
For a k-ary query ``psi``, the expected error ``H_psi`` is the expected
Hamming distance between ``psi^A`` and ``psi^B``, and the reliability is
``R_psi = 1 - H_psi / n^k`` (Definition 2.2).

Algorithms provided, each mapped to its result in the paper:

====================================================  ====================
:func:`~repro.reliability.exact.reliability`           exact engine; QF
                                                        fast path is
                                                        Proposition 3.1,
                                                        generic paths are
                                                        the FP^#P upper
                                                        bound of Thm 4.2
:func:`~repro.reliability.approx.existential_probability`  Theorem 5.4
                                                        FPTRAS
:func:`~repro.reliability.approx.reliability_additive`  Corollary 5.5
:func:`~repro.reliability.padding.padded_reliability`   Theorem 5.12
:func:`~repro.reliability.absolute.is_absolutely_reliable`  Lemmas 5.7-5.9
====================================================  ====================
"""

from repro.util.lazy import lazy_exports

lazy_exports(
    __name__,
    {
        ".unreliable": ("UnreliableDatabase", "uniform_error"),
        ".space": (
            "worlds", "world_probability", "support_size", "world_granularity",
        ),
        ".grounding": (
            "ground_existential_to_dnf", "relevant_atoms", "GroundingResult",
        ),
        ".exact": (
            "reliability", "expected_error", "wrong_probability",
            "truth_probability", "qf_tuple_wrong_probability",
        ),
        ".approx": (
            "existential_probability", "reliability_additive",
            "AdditiveEstimate",
        ),
        ".montecarlo": (
            "hoeffding_samples", "estimate_truth_probability",
            "estimate_reliability_hamming",
        ),
        ".padding": (
            "pad_database", "padded_truth_probability", "padded_reliability",
            "padding_sample_count",
        ),
        ".absolute": ("is_absolutely_reliable",),
        ".answers": (
            "answer_probabilities", "estimate_answer_probabilities",
            "reliability_from_answers",
        ),
        ".influence": (
            "atom_influence", "most_fragile_atoms",
            "wrong_probability_sensitivity",
        ),
        ".lifted": (
            "UnsafeQueryError", "is_hierarchical", "is_safe",
            "lifted_probability", "lifted_reliability",
        ),
        ".report": ("ReliabilityReport", "analyze"),
        ".calibration": (
            "AuditRecord", "RelationCalibration", "calibrate_error_rates",
            "calibrated_database",
        ),
        ".repair": (
            "expected_post_verification_wrong", "greedy_verification_plan",
            "verification_gain", "verify_and_correct",
        ),
    },
)

__all__ = [
    "answer_probabilities",
    "estimate_answer_probabilities",
    "reliability_from_answers",
    "atom_influence",
    "most_fragile_atoms",
    "wrong_probability_sensitivity",
    "UnsafeQueryError",
    "is_hierarchical",
    "is_safe",
    "lifted_probability",
    "lifted_reliability",
    "ReliabilityReport",
    "analyze",
    "verify_and_correct",
    "verification_gain",
    "expected_post_verification_wrong",
    "greedy_verification_plan",
    "AuditRecord",
    "RelationCalibration",
    "calibrate_error_rates",
    "calibrated_database",
    "UnreliableDatabase",
    "uniform_error",
    "worlds",
    "world_probability",
    "support_size",
    "world_granularity",
    "ground_existential_to_dnf",
    "relevant_atoms",
    "GroundingResult",
    "reliability",
    "expected_error",
    "wrong_probability",
    "truth_probability",
    "qf_tuple_wrong_probability",
    "existential_probability",
    "reliability_additive",
    "AdditiveEstimate",
    "hoeffding_samples",
    "estimate_truth_probability",
    "estimate_reliability_hamming",
    "pad_database",
    "padded_truth_probability",
    "padded_reliability",
    "padding_sample_count",
    "is_absolutely_reliable",
]
