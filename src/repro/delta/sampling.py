"""Karp–Luby sample reuse under probability updates.

A Karp–Luby sample is a pair ``(i, sigma)``: clause ``i`` drawn with
probability ``W_i / W`` and assignment ``sigma`` drawn from the
variable distribution conditioned on clause ``i`` holding, so

    q(i, sigma) = (W_i / W) * prod_{v not in C_i} f_v(sigma_v).

When a variable probability changes, the already-drawn samples are
still a perfectly good sample of the *old* proposal — importance
weighting corrects them to the new target without redrawing:

    Pr'[dnf] = (W0 / t) * sum_s X_s * (W'_{i_s} / W0_{i_s}) * r_s

where ``W0_i`` are the draw-time clause weights, ``W'_i`` the current
ones, and ``r_s`` multiplies ``f'_v(sigma_v) / f0_v(sigma_v)`` over
the changed free variables of sample ``s``.  (The new total ``W'``
cancels — only per-clause ratios survive.)  ``X_s`` depends on the
DNF's *structure* and ``sigma`` alone, so it never needs recomputing
for weight-only updates; a structural update invalidates the set
(:attr:`stale`) and the session redraws.

The price of reuse is variance: the effective sample size
``(sum w)^2 / sum w^2`` shrinks as probabilities drift from the
draw point.  Callers watch :meth:`effective_sample_size` (mirrored on
the ``delta.kl.ess`` gauge) and redraw when it dips too low.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro import obs
from repro.propositional.counting import _check_probs
from repro.propositional.formula import DNF, Variable
from repro.runtime.budget import CHECKPOINT_CHUNK, checkpoint
from repro.runtime.preflight import preflight_samples
from repro.util.errors import ProbabilityError, QueryError
from repro.util.rng import as_rng


def _bisect(cumulative: Sequence[float], target: float) -> int:
    low, high = 0, len(cumulative) - 1
    while low < high:
        mid = (low + high) // 2
        if cumulative[mid] <= target:
            low = mid + 1
        else:
            high = mid
    return low


def _first_satisfied(dnf: DNF, assignment: Mapping[Variable, bool]) -> int:
    for index, clause in enumerate(dnf.clauses):
        if clause.satisfied_by(assignment):
            return index
    raise AssertionError("sampled assignment satisfies no clause")


class ReweightableKarpLuby:
    """A drawn Karp–Luby sample set that re-weights instead of redrawing."""

    def __init__(
        self,
        dnf: DNF,
        probs: Mapping[Variable, float],
        samples: int,
        rng,
        method: str = "coverage",
        negate: bool = False,
    ):
        if method not in ("coverage", "canonical"):
            raise QueryError(f"unknown Karp-Luby method {method!r}")
        if samples <= 0:
            raise ProbabilityError(
                f"sample budget must be positive, got {samples}"
            )
        _check_probs(dnf, probs)
        self.dnf = dnf
        self.method = method
        self.negate = negate
        self.samples = samples
        self.stale = dnf.is_true() or dnf.is_false()
        self._variables: Tuple[Variable, ...] = tuple(
            sorted(dnf.variables, key=repr)
        )
        self._orig_probs: Dict[Variable, float] = {
            v: float(probs[v]) for v in self._variables
        }
        self._probs = dict(self._orig_probs)
        self._orig_weights = _weights(dnf, self._probs)
        self._weights = list(self._orig_weights)
        self._orig_total = sum(self._orig_weights)
        # Per-sample draw-time state: clause index, estimator value,
        # assignment, and the running importance ratio r_s.
        self._clause: List[int] = []
        self._x: List[float] = []
        self._assign: List[Dict[Variable, bool]] = []
        self._ratio: List[float] = []
        # variable -> clause indices containing it, for O(Δ) weight fixes.
        self._clauses_of: Dict[Variable, List[int]] = {
            v: [] for v in self._variables
        }
        for index, clause in enumerate(dnf.clauses):
            for variable in clause.variables:
                self._clauses_of[variable].append(index)
        if not self.stale:
            self._draw(as_rng(rng))

    def _draw(self, rng) -> None:
        if self._orig_total <= 0.0:
            self.stale = True
            return
        preflight_samples(self.samples)
        cumulative: List[float] = []
        running = 0.0
        for weight in self._orig_weights:
            running += weight
            cumulative.append(running)
        pending = 0
        for drawn in range(1, self.samples + 1):
            pending += 1
            if pending >= CHECKPOINT_CHUNK or drawn == self.samples:
                checkpoint(samples=pending)
                pending = 0
            index = _bisect(cumulative, rng.random() * self._orig_total)
            clause = self.dnf.clauses[index]
            assignment: Dict[Variable, bool] = {}
            for variable in self._variables:
                if variable in clause:
                    assignment[variable] = clause.polarity(variable)
                else:
                    assignment[variable] = (
                        rng.random() < self._orig_probs[variable]
                    )
            if self.method == "coverage":
                x = 1.0 / self.dnf.satisfied_count(assignment)
            else:
                x = 1.0 if _first_satisfied(self.dnf, assignment) == index else 0.0
            self._clause.append(index)
            self._x.append(x)
            self._assign.append(assignment)
            self._ratio.append(1.0)
        obs.inc("karp_luby.samples", self.samples)
        obs.inc("delta.kl.draws")

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #

    def set_prob(self, variable: Variable, probability: float) -> None:
        """Move one variable's probability; O(samples + clauses-of-v).

        The new ratios and weights are built aside and committed last,
        so a checkpoint that raises leaves the sample set as it was.
        """
        if variable not in self._clauses_of:
            return  # not a DNF variable: samples don't mention it
        if self.stale:
            return
        old = self._probs[variable]
        new = float(probability)
        if new == old:
            return
        # Sample ratios: every sample whose clause leaves v free.
        ratios = list(self._ratio)
        for s in range(len(ratios)):
            if s % CHECKPOINT_CHUNK == 0:
                checkpoint()
            clause = self.dnf.clauses[self._clause[s]]
            if variable in clause:
                continue
            value = self._assign[s][variable]
            num = new if value else 1.0 - new
            den = old if value else 1.0 - old
            if den == 0.0:
                # The draw distribution gave this sigma zero mass at v;
                # reuse is unsound — require a redraw.
                self.stale = True
                obs.inc("delta.kl.degenerate")
                return
            ratios[s] *= num / den
        probs = dict(self._probs)
        probs[variable] = new
        # Clause weights: only clauses containing v change.
        weights = list(self._weights)
        for index in self._clauses_of[variable]:
            clause = self.dnf.clauses[index]
            factor_old = old if clause.polarity(variable) else 1.0 - old
            factor_new = new if clause.polarity(variable) else 1.0 - new
            if factor_old == 0.0:
                weights[index] = _clause_weight(clause, probs)
            else:
                weights[index] *= factor_new / factor_old
        ess = _kish(self._sample_weights(weights, ratios))
        self._probs, self._weights, self._ratio = probs, weights, ratios
        obs.inc("delta.kl.reweights")
        obs.gauge("delta.kl.ess", ess)

    def mark_stale(self) -> None:
        """Structural change: stored X values no longer apply."""
        self.stale = True

    # ------------------------------------------------------------------ #
    # estimates
    # ------------------------------------------------------------------ #

    def _sample_weights(
        self, clause_weights: Sequence[float], ratios: Sequence[float]
    ) -> List[float]:
        weights = []
        for s in range(len(ratios)):
            if s % CHECKPOINT_CHUNK == 0:
                checkpoint()
            index = self._clause[s]
            orig = self._orig_weights[index]
            shift = clause_weights[index] / orig if orig > 0.0 else 0.0
            weights.append(shift * ratios[s])
        return weights

    def estimate(self) -> float:
        """Importance-corrected ``Pr[dnf]`` (or its complement) estimate."""
        if self.stale:
            raise ProbabilityError(
                "sample set is stale (structural update); redraw via "
                "DeltaSession.attach_karp_luby"
            )
        total = 0.0
        weights = self._sample_weights(self._weights, self._ratio)
        for s, weight in enumerate(weights):
            total += self._x[s] * weight
        p = min(self._orig_total * total / self.samples, 1.0)
        return 1.0 - p if self.negate else p

    def effective_sample_size(self) -> float:
        """Kish ESS of the current importance weights, in ``[0, t]``."""
        return _kish(self._sample_weights(self._weights, self._ratio))


def _kish(weights: Sequence[float]) -> float:
    total = sum(weights)
    square = sum(w * w for w in weights)
    if square <= 0.0:
        return 0.0
    return (total * total) / square


def _clause_weight(clause, probs: Mapping[Variable, float]) -> float:
    weight = 1.0
    for literal in clause:
        p = probs[literal.variable]
        weight *= p if literal.positive else 1.0 - p
    return weight


def _weights(dnf: DNF, probs: Mapping[Variable, float]) -> List[float]:
    return [_clause_weight(clause, probs) for clause in dnf.clauses]
