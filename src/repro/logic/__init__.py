"""Query languages over finite relational structures.

The paper ranges over a tower of query languages — quantifier-free,
conjunctive, existential/universal, full first-order, Datalog, fixed-point
and second-order.  This subpackage implements all of them:

* :mod:`~repro.logic.fo` — the first-order AST (and the second-order
  extension in :mod:`~repro.logic.so`);
* :mod:`~repro.logic.parser` — a textual syntax, e.g.
  ``"exists x y. E(x, y) & ~S(x)"``;
* :mod:`~repro.logic.evaluator` — evaluation of formulas on structures;
* :mod:`~repro.logic.normalform` — NNF, prenex form, DNF matrices;
* :mod:`~repro.logic.classify` — syntactic fragment detection, which the
  reliability layer uses to dispatch to the right algorithm;
* :mod:`~repro.logic.conjunctive` — conjunctive queries as a first-class
  type (the fragment of Proposition 3.2);
* :mod:`~repro.logic.datalog` — Datalog with semi-naive evaluation (the
  PTIME queries of Theorem 5.12);
* :mod:`~repro.logic.fixpoint` — inflationary fixed-point queries;
* :mod:`~repro.logic.so` — second-order quantification by brute force
  (the language of Theorem 4.2).
"""

from repro.util.lazy import lazy_exports

lazy_exports(
    __name__,
    {
        ".terms": ("Var", "Const", "Term"),
        ".fo": (
            "Formula", "AtomF", "Eq", "Not", "And", "Or", "Implies", "Iff",
            "Exists", "Forall", "Top", "Bottom",
        ),
        ".parser": ("parse",),
        ".evaluator": ("evaluate", "answers", "FOQuery"),
        ".classify": (
            "is_quantifier_free", "is_existential", "is_universal",
            "is_conjunctive", "classify",
        ),
        ".conjunctive": ("ConjunctiveQuery",),
        ".safety": ("SafeVerdict", "UnsafeVerdict", "classify_dichotomy"),
        ".datalog": ("DatalogProgram", "DatalogQuery", "Rule"),
        ".fixpoint": ("FixpointQuery",),
        ".so": ("SOExists", "SOForall", "evaluate_so"),
        ".algebra": ("rel", "RAExpression"),
    },
)

__all__ = [
    "Var",
    "Const",
    "Term",
    "Formula",
    "AtomF",
    "Eq",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "Exists",
    "Forall",
    "Top",
    "Bottom",
    "parse",
    "evaluate",
    "answers",
    "FOQuery",
    "is_quantifier_free",
    "is_existential",
    "is_universal",
    "is_conjunctive",
    "classify",
    "ConjunctiveQuery",
    "SafeVerdict",
    "UnsafeVerdict",
    "classify_dichotomy",
    "DatalogProgram",
    "DatalogQuery",
    "Rule",
    "FixpointQuery",
    "SOExists",
    "SOForall",
    "evaluate_so",
    "rel",
    "RAExpression",
]
