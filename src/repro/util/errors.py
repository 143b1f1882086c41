"""Exception hierarchy for :mod:`repro`.

All library errors derive from :class:`ReproError`, so callers can catch a
single base class.  Each subclass marks the layer that raised it; nothing in
the library raises bare ``ValueError``/``KeyError`` for user-facing misuse.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class VocabularyError(ReproError):
    """A relation symbol, arity, or structure component is inconsistent.

    Raised e.g. when a tuple's length does not match the relation's arity,
    when two symbols with the same name but different arities are declared,
    or when a structure refers to a symbol missing from its vocabulary.
    """


class QueryError(ReproError):
    """A query expression is malformed or used outside its fragment.

    Raised e.g. when a conjunctive-query constructor receives a disjunction,
    when an algorithm requiring an existential query is handed a universal
    one, or when the parser encounters a syntax error.
    """


class ProbabilityError(ReproError):
    """A probability value or distribution is invalid.

    Raised e.g. for error probabilities outside ``[0, 1]`` or metafinite
    value distributions that do not sum to one.
    """


class EvaluationError(ReproError):
    """Evaluation of a query or term failed.

    Raised e.g. when a free variable has no binding or a Datalog program
    uses an undefined predicate.
    """


class ResourceError(ReproError):
    """A resource budget is invalid, exhausted, or refused.

    Base class of the resilient-runtime errors; see
    :mod:`repro.runtime` and ``docs/ROBUSTNESS.md``.
    """


class BudgetExceeded(ResourceError):
    """A running computation hit a :class:`repro.runtime.Budget` limit.

    Raised at a cooperative checkpoint when the wall-clock deadline
    passes or a worlds/clauses/samples counter crosses its cap.  The
    computation's partial state is discarded; the fallback executor
    catches this and degrades to the next engine in the chain.
    """


class CostRefused(ResourceError):
    """A cost preflight predicted the run would blow the budget.

    Unlike :class:`BudgetExceeded`, nothing was computed: the engine
    estimated its work up front (``2 ** |relevant atoms|`` worlds,
    ``|clause templates| * n ** |variables|`` ground clauses) and
    refused to start.  ``estimate`` and ``limit`` carry the numbers.
    """

    def __init__(self, message: str, estimate=None, limit=None):
        super().__init__(message)
        self.estimate = estimate
        self.limit = limit


class FallbackExhausted(ResourceError):
    """Every engine in a fallback chain failed or was refused.

    ``attempts`` holds the per-engine attempt records
    (:class:`repro.runtime.Attempt`) explaining why each engine fell
    through.
    """

    def __init__(self, message: str, attempts=()):
        super().__init__(message)
        self.attempts = tuple(attempts)
