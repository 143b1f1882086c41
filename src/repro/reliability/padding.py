"""Theorem 5.12: additive reliability estimation for any PTIME query.

The obstacle the theorem overcomes: Karp–Luby-style relative-error
analysis (Lemma 5.11) needs the estimated mean ``p`` bounded away from 0
and 1/2.  The paper's fix pads the database and the query so the target
probability is *forced* into ``[xi**2, xi]`` for a fixed rational
``xi in (0, 1/2)``:

* adjoin a fresh empty unary relation ``R`` and fresh constants ``c, d``;
* give the atoms ``R(c)`` and ``R(d)`` error probability ``xi``;
* replace ``psi`` by ``psi' = (psi | R(c)) & R(d)``.

Then ``p := nu'(psi') = xi**2 + (xi - xi**2) * nu(psi)`` (equation (3)),
so after estimating ``p`` by ``t = ceil(9 / (2 xi eps^2) ln(1/delta))``
world samples, ``alpha = (p_hat - xi**2) / (xi - xi**2)`` approximates
``nu(psi)`` within ``2 * eps`` additively with confidence ``1 - delta``
(equation (5)); calling the estimator with ``eps / 2`` yields the stated
bound.  Everything here follows the proof line by line; the exact
identity (3) is checked by tests on small databases.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product
from typing import Any, Optional, Sequence, Tuple, Union

from repro.logic.evaluator import FOQuery
from repro.logic.fo import Formula
from repro.relational.atoms import Atom
from repro.relational.schema import RelationSymbol, Vocabulary
from repro.reliability.approx import AdditiveEstimate
from repro.reliability.exact import as_query, _instantiated
from repro.reliability.unreliable import UnreliableDatabase
from repro.runtime.budget import CHECKPOINT_CHUNK, checkpoint
from repro.runtime.preflight import preflight_samples
from repro.util.errors import ProbabilityError, QueryError
from repro.util.rationals import RationalLike, parse_probability

# Fresh names for the padding gadget.  They only clash if the user's
# vocabulary already uses them; pad_database validates and lets the caller
# rename via parameters in that case.
PAD_RELATION = "PadR"
PAD_C = "__pad_c__"
PAD_D = "__pad_d__"


class PaddedQuery:
    """``psi' = (psi | R(c)) & R(d)`` as a query-protocol object.

    Works for *any* Boolean query object, not just first-order formulas —
    that is the point of Theorem 5.12.

    Reproduction note: the paper adjoins fresh constants ``c, d`` to the
    universe and keeps writing ``psi`` as if its value were unaffected.
    For quantified queries that is only true when ``psi`` is evaluated on
    the *reduct* to the original universe — which is what this wrapper
    does (``base_universe``/``base_vocabulary`` below).
    """

    __slots__ = ("inner", "relation", "c", "d", "base_universe", "base_vocabulary")

    arity = 0

    def __init__(
        self,
        inner: Any,
        relation: str,
        c: Any,
        d: Any,
        base_universe: Optional[Tuple[Any, ...]] = None,
        base_vocabulary=None,
    ):
        if inner.arity != 0:
            raise QueryError("PaddedQuery wraps Boolean queries only")
        self.inner = inner
        self.relation = relation
        self.c = c
        self.d = d
        self.base_universe = base_universe
        self.base_vocabulary = base_vocabulary

    def evaluate(self, structure, args: Sequence[Any] = ()) -> bool:
        if args:
            raise QueryError("padded query is Boolean")
        rows = structure.relation(self.relation)
        if (self.d,) not in rows:
            return False
        if (self.c,) in rows:
            return True
        inner_structure = structure
        if self.base_universe is not None:
            inner_structure = structure.restrict(
                self.base_universe, self.base_vocabulary
            )
        return self.inner.evaluate(inner_structure, ())

    def answers(self, structure):
        return {()} if self.evaluate(structure) else set()


def pad_database(
    db: UnreliableDatabase,
    xi: RationalLike,
    relation: str = PAD_RELATION,
    c: Any = PAD_C,
    d: Any = PAD_D,
) -> UnreliableDatabase:
    """The modified database ``D'`` of Theorem 5.12.

    Adds constants ``c != d`` to the universe, an empty unary relation,
    and error probability ``xi`` on exactly ``R(c)`` and ``R(d)``.
    """
    xi = parse_probability(xi)
    if not 0 < xi < Fraction(1, 2):
        raise ProbabilityError(f"xi must lie in (0, 1/2), got {xi}")
    structure = db.structure
    if relation in structure.vocabulary:
        raise QueryError(f"relation {relation!r} already in the vocabulary")
    for element in (c, d):
        if element in structure.universe:
            raise QueryError(f"padding constant {element!r} already in universe")
    if c == d:
        raise QueryError("padding constants must be distinct")
    expanded = structure.expand(
        Vocabulary([RelationSymbol(relation, 1)]),
        extra_universe=(c, d),
        relations={relation: ()},
    )
    extra = {Atom(relation, (c,)): xi, Atom(relation, (d,)): xi}
    merged = dict(db.error_table())
    merged.update(extra)
    return UnreliableDatabase(expanded, merged, db.default_error)


def padding_sample_count(xi: RationalLike, epsilon: float, delta: float) -> int:
    """``t = ceil(9 / (2 xi eps^2) * ln(1/delta))`` — the paper's budget."""
    xi = parse_probability(xi)
    if epsilon <= 0 or delta <= 0 or delta >= 1:
        raise ProbabilityError(
            f"need epsilon > 0 and 0 < delta < 1, got {epsilon}, {delta}"
        )
    return max(
        1,
        math.ceil(9.0 / (2.0 * float(xi) * epsilon**2) * math.log(1.0 / delta)),
    )


def padded_truth_probability(
    db: UnreliableDatabase,
    query: Any,
    epsilon: float,
    delta: float,
    rng: random.Random,
    xi: RationalLike = Fraction(1, 4),
    args: Sequence[Any] = (),
) -> AdditiveEstimate:
    """Estimate ``nu(psi(args))`` with the Theorem 5.12 machinery.

    Guarantee: ``Pr[|alpha - nu(psi)| > epsilon] < delta``.  Per the
    proof, the internal run uses ``epsilon / 2``, and the de-biasing map
    ``alpha = (X_bar - xi^2) / (xi - xi^2)`` inverts equation (3).
    """
    xi = parse_probability(xi)
    query = as_query(query)
    boolean = _instantiated(query, args)
    padded_db = pad_database(db, xi)
    padded_query = PaddedQuery(
        boolean,
        PAD_RELATION,
        PAD_C,
        PAD_D,
        base_universe=db.structure.universe,
        base_vocabulary=db.structure.vocabulary,
    )
    half_epsilon = epsilon / 2.0
    t = padding_sample_count(xi, half_epsilon, delta)
    # Refuse up front when the active budget cannot fit the run.
    preflight_samples(t)
    hits = 0
    pending = 0
    for drawn in range(1, t + 1):
        pending += 1
        if pending >= CHECKPOINT_CHUNK or drawn == t:
            checkpoint(samples=pending)
            pending = 0
        world = padded_db.sample(rng)
        if padded_query.evaluate(world):
            hits += 1
    x_bar = hits / t
    xi_f = float(xi)
    alpha = (x_bar - xi_f * xi_f) / (xi_f - xi_f * xi_f)
    alpha = min(max(alpha, 0.0), 1.0)
    return AdditiveEstimate(alpha, epsilon, delta, t)


def exact_padded_identity(
    db: UnreliableDatabase,
    query: Any,
    xi: RationalLike = Fraction(1, 4),
) -> Tuple[Fraction, Fraction]:
    """Exact check of equation (3): returns ``(p, nu(psi))`` with
    ``p = nu'(psi') = xi^2 + (xi - xi^2) * nu(psi)``.

    Used by tests; both values are computed by exact world enumeration.
    """
    from repro.reliability.exact import truth_probability

    xi = parse_probability(xi)
    query = as_query(query)
    padded_db = pad_database(db, xi)
    padded_query = PaddedQuery(
        query,
        PAD_RELATION,
        PAD_C,
        PAD_D,
        base_universe=db.structure.universe,
        base_vocabulary=db.structure.vocabulary,
    )
    p = truth_probability(padded_db, padded_query, method="worlds")
    nu_psi = truth_probability(db, query, method="worlds")
    return p, nu_psi


def padded_reliability(
    db: UnreliableDatabase,
    query: Any,
    epsilon: float,
    delta: float,
    rng: random.Random,
    xi: RationalLike = Fraction(1, 4),
) -> AdditiveEstimate:
    """Theorem 5.12: additive reliability estimate for any PTIME query.

    ``Pr[|M(D) - R_psi(D)| > epsilon] < delta`` for queries of any arity.
    The k-ary case follows the theorem's proof: approximate each tuple's
    wrong-probability with stricter bounds (``delta / n**k`` failure
    budget; absolute accuracy ``epsilon`` per tuple suffices because the
    final division by ``n**k`` averages the errors).
    """
    query = as_query(query)
    n = db.universe_size
    k = query.arity
    cells = n**k
    if cells == 0:
        raise QueryError("reliability undefined on an empty universe")
    per_delta = delta / cells
    total_wrong = 0.0
    total_samples = 0
    for args in product(db.structure.universe, repeat=k):
        observed = query.evaluate(db.structure, args)
        estimate = padded_truth_probability(
            db, query, epsilon, per_delta, rng, xi, args
        )
        wrong = 1.0 - estimate.value if observed else estimate.value
        total_wrong += wrong
        total_samples += estimate.samples
    return AdditiveEstimate(
        1.0 - total_wrong / cells, epsilon, delta, total_samples
    )
