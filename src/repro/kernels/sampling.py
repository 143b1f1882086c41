"""Batched sample loops over bit columns.

Every sampling estimator runs through one sample loop,
:func:`run_batches`.  It walks a layout of ``(index, width)`` batches
and hands each batch's generator ``batch_rng(base, index)`` to a
worker, which draws per-variable Bernoulli columns and evaluates the
compiled clause plan with big-int AND/OR/popcount — a few hundred
interpreter operations per batch instead of a few thousand per
*sample*.

Two layouts feed the loop, and each seeds its own sample stream:

* fixed-budget runs split the budget with :func:`plan_batches`, whose
  width adapts to the plan (:func:`~repro.kernels.bitops.pick_batch_bits`:
  at most :data:`~repro.kernels.bitops.BATCH_BITS` worlds, narrower
  for wide plans and tiny budgets);
* adaptive runs (:func:`repro.runtime.adaptive.adaptive_mean`) walk
  fixed-width blocks and pass a stop rule that the loop calls on a
  doubling grid of block counts.

Determinism contract: the caller's ``rng`` contributes exactly one
``getrandbits(64)`` draw, the ``base`` of every batch generator.
Batch results are combined in index order, so the estimate is a pure
function of (plan, seed, layout), whether or not a recorder is on.

Budgets are charged through ``runtime.checkpoint(samples=width)``
*before* each batch is drawn: ``BudgetExceeded`` is accurate to one
batch, and a cancelled attempt draws nothing.  Convergence traces emit
one event per batch (``montecarlo.batch``, ``karp_luby.batch``, ...).
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

from repro import obs
from repro.kernels.bitops import (
    add_to_counter,
    bernoulli_column,
    column_bits,
    count_tally,
    full_mask,
    pick_batch_bits,
    popcount,
)
from repro.kernels.plan import (
    HammingPlan,
    TruthPlan,
    clause_masks,
    satisfied_mask,
)
from repro.runtime.budget import checkpoint


def batch_rng(base: int, index: int) -> random.Random:
    """The deterministic generator of one batch.

    Seeding by *batch index* makes a batch's samples independent of
    how many batches ran before it or how the layout was walked.
    """
    return random.Random(f"{base:x}:batch:{index}")


def draw_columns(
    rng: random.Random,
    bits: Sequence[Optional[Tuple[int, ...]]],
    width: int,
    full: int,
) -> List[int]:
    """One Bernoulli column per variable, in plan variable order."""
    return [bernoulli_column(rng, width, b, full) for b in bits]


def split_layout(total: int, width: int) -> List[Tuple[int, int]]:
    """``(index, width)`` batches covering ``total`` samples, the last
    truncated."""
    return [
        (index, min(width, total - start))
        for index, start in enumerate(range(0, total, width))
    ]


def plan_batches(budget: int, lanes: int = 1) -> List[Tuple[int, int]]:
    """Split a fixed sample budget into ``(index, width)`` batches.

    The width is adaptive (:func:`~repro.kernels.bitops.pick_batch_bits`):
    ``lanes`` — the plan's live column count — narrows wide plans for
    locality, and a tiny budget yields one narrow batch instead of a
    full-width column.  The split never depends on whether a recorder
    is on: batches seed the sample stream, so a traced run draws
    exactly the samples an untraced one does, and the convergence
    trace gets one event per batch.
    """
    return split_layout(budget, pick_batch_bits(budget, lanes))


class Tally:
    """Running sums of one sampling run.

    ``total`` sums the per-sample values and ``total_sq`` their squares
    (kept only under a stop rule); ``drawn`` counts samples and
    ``batches`` the batches done.
    """

    __slots__ = ("total", "total_sq", "drawn", "batches")

    def __init__(self):
        self.total = 0
        self.total_sq = 0
        self.drawn = 0
        self.batches = 0


def run_batches(
    draw: Callable,
    rng: random.Random,
    layout: Sequence[Tuple[int, int]],
    on_batch: Optional[Callable[[Tally], None]] = None,
    stop: Optional[Callable[[Tally], bool]] = None,
    grid: Sequence[int] = (),
) -> Tally:
    """The one sample loop of every batched estimator.

    Takes the ``base`` of the batch generators from ``rng``, then for
    each ``(index, width)`` of ``layout`` charges
    ``checkpoint(samples=width)`` and calls
    ``draw(batch_rng(base, index), width)``.  Without a stop rule
    ``draw`` returns the batch's sum of per-sample values; with one it
    returns ``(sum, sum of squares)``.  ``on_batch(tally)`` runs after
    every batch; ``stop(tally)`` runs each time the batch count reaches
    the next entry of ``grid`` and ends the run by returning true.
    """
    base = rng.getrandbits(64)
    tally = Tally()
    checks = iter(grid)
    due = next(checks, None)
    for index, width in layout:
        checkpoint(samples=width)
        batch = batch_rng(base, index)
        if stop is None:
            tally.total += draw(batch, width)
        else:
            first, second = draw(batch, width)
            tally.total += first
            tally.total_sq += second
        tally.drawn += width
        tally.batches += 1
        if on_batch is not None:
            on_batch(tally)
        if tally.batches == due:
            if stop(tally):
                break
            due = next(checks, None)
    return tally


def _fixed_run(
    label: str,
    draw: Callable,
    rng: random.Random,
    budget: int,
    lanes: int,
    event: Callable[[Tally], None],
) -> Tally:
    """A fixed-budget run: the :func:`plan_batches` layout, no stop rule.

    ``label`` names the kernel on the ``kernels.batched`` span;
    ``event(tally)`` emits the kernel's convergence-trace record after
    each batch while a recorder is on.
    """
    batches = plan_batches(budget, lanes)
    trace = obs.enabled()

    def on_batch(tally: Tally) -> None:
        obs.inc("kernels.batches")
        if trace:
            event(tally)

    with obs.span("kernels.batched", kernel=label, batches=len(batches)):
        tally = run_batches(draw, rng, batches, on_batch=on_batch)
    obs.inc("kernels.batch_samples", budget)
    return tally


# ---------------------------------------------------------------------- #
# truth probability and naive DNF Monte Carlo
# ---------------------------------------------------------------------- #


def dnf_hits(clauses, bits, rng: random.Random, width: int) -> int:
    """Satisfying-lane count of one batch of a compiled DNF."""
    full = full_mask(width)
    columns = draw_columns(rng, bits, width, full)
    return popcount(satisfied_mask(clauses, columns, full))


def truth_moments(
    plan: TruthPlan, rng: random.Random, width: int
) -> Tuple[float, float]:
    """One batch's hits as moments: 0/1 samples square to themselves."""
    hits = float(dnf_hits(plan.plan.clauses, plan.bits, rng, width))
    return hits, hits


def sample_truth_batches(
    plan: TruthPlan,
    rng: random.Random,
    budget: int,
    delta: float,
) -> float:
    """Batched ``estimate_truth_probability`` inner loop."""
    from repro.reliability.montecarlo import _half_width

    if plan.constant is not None:
        checkpoint(samples=budget)
        if obs.enabled():
            obs.event(
                "montecarlo.batch",
                samples=budget,
                estimate=plan.constant,
                half_width=_half_width(budget, delta),
            )
        obs.inc("montecarlo.samples", budget)
        return plan.constant

    def event(tally: Tally) -> None:
        estimate = tally.total / tally.drawn
        obs.event(
            "montecarlo.batch",
            samples=tally.drawn,
            estimate=1.0 - estimate if plan.negate else estimate,
            half_width=_half_width(tally.drawn, delta),
        )

    draw = partial(dnf_hits, plan.plan.clauses, plan.bits)
    tally = _fixed_run("truth", draw, rng, budget, len(plan.bits), event)
    obs.inc("montecarlo.samples", budget)
    estimate = tally.total / budget
    return 1.0 - estimate if plan.negate else estimate


def sample_naive_batches(
    clauses,
    bits,
    rng: random.Random,
    samples: int,
) -> float:
    """Batched naive Monte-Carlo estimate of ``Pr[dnf]``."""

    def event(tally: Tally) -> None:
        obs.event(
            "naive_mc.batch",
            samples=tally.drawn,
            estimate=tally.total / tally.drawn,
        )

    draw = partial(dnf_hits, clauses, bits)
    tally = _fixed_run("naive_mc", draw, rng, samples, len(bits), event)
    obs.inc("naive_mc.samples", samples)
    return tally.total / samples


# ---------------------------------------------------------------------- #
# Hamming reliability
# ---------------------------------------------------------------------- #


def _hamming_diffs(
    plan: HammingPlan, rng: random.Random, width: int
) -> Tuple[int, int, List[int]]:
    """One batch's disagreement with the observed answer table.

    Returns ``(full, constant, diffs)``: the batch's all-lanes mask,
    the number of cells whose grounded DNF folded to a constant that
    disagrees with the observation (they add to every lane's
    distance), and one lane mask per sampled cell of the lanes where
    the cell's truth value disagrees.
    """
    full = full_mask(width)
    columns = draw_columns(rng, plan.bits, width, full)
    constant = 0
    diffs = []
    for cell in plan.tuples:
        if cell.constant is not None:
            if cell.constant != cell.observed:
                constant += 1
            continue
        sat = satisfied_mask(cell.clauses, columns, full)
        if cell.negate:
            sat ^= full
        diff = sat ^ full if cell.observed else sat
        if diff:
            diffs.append(diff)
    return full, constant, diffs


def hamming_batch_distance(
    plan: HammingPlan, rng: random.Random, width: int
) -> int:
    """Total Hamming distance over one batch of sampled worlds."""
    _, constant, diffs = _hamming_diffs(plan, rng, width)
    return constant * width + sum(popcount(diff) for diff in diffs)


def hamming_block_moments(
    plan: HammingPlan, rng: random.Random, width: int
) -> Tuple[int, int]:
    """Per-lane Hamming distance first and second moments of one block.

    The adaptive controller needs the empirical variance of the
    per-world distance, which :func:`hamming_batch_distance`'s batch
    total cannot provide — so this worker counts, per lane, the cells
    that disagree in a vertical counter and reads the lanes of each
    distance off its tally.  The lane total matches
    ``hamming_batch_distance`` on the same generator exactly.
    """
    full, constant, diffs = _hamming_diffs(plan, rng, width)
    planes: List[int] = []
    for diff in diffs:
        add_to_counter(planes, diff)
    total = 0
    total_sq = 0
    for count, lanes in count_tally(planes, full):
        distance = count + constant
        total += lanes * distance
        total_sq += lanes * distance * distance
    return total, total_sq


def hamming_moments(
    plan: HammingPlan, rng: random.Random, width: int
) -> Tuple[float, float]:
    """:func:`hamming_block_moments` of the per-world normalised distance
    ``distance / cells``, a value in [0, 1]."""
    total, total_sq = hamming_block_moments(plan, rng, width)
    cells = float(plan.cells)
    return total / cells, total_sq / (cells * cells)


def sample_hamming_batches(
    plan: HammingPlan,
    rng: random.Random,
    budget: int,
    delta: float,
) -> float:
    """Batched ``estimate_reliability_hamming`` inner loop."""
    from repro.reliability.montecarlo import _half_width

    cells = plan.cells

    def draw(batch: random.Random, width: int) -> float:
        return hamming_batch_distance(plan, batch, width) / cells

    def event(tally: Tally) -> None:
        obs.event(
            "montecarlo.hamming_batch",
            samples=tally.drawn,
            estimate=1.0 - tally.total / tally.drawn,
            half_width=_half_width(tally.drawn, delta),
        )

    tally = _fixed_run("hamming", draw, rng, budget, len(plan.bits), event)
    obs.inc("montecarlo.samples", budget)
    return 1.0 - tally.total / budget


# ---------------------------------------------------------------------- #
# Karp–Luby
# ---------------------------------------------------------------------- #


class KlPlan:
    """The state of a batched Karp–Luby run.

    ``clauses``/``bits`` come from the compiled DNF plan; ``weights``
    are the per-clause weights ``W_i`` (their sum is ``total_weight``)
    and drive the clause choice through :attr:`tree`, the split tree
    :func:`clause_split_tree` builds once per plan; ``method`` is
    ``"coverage"`` or ``"canonical"``.
    """

    __slots__ = ("clauses", "bits", "tree", "total_weight", "method")

    def __init__(self, clauses, bits, weights, total_weight, method):
        self.clauses = clauses
        self.bits = bits
        self.tree = clause_split_tree(weights)
        self.total_weight = total_weight
        self.method = method


def clause_split_tree(weights: Sequence[float]):
    """A binary split tree over the clauses of positive weight.

    A leaf is a clause index; an inner node is ``(bits, left, right)``
    where ``bits`` (:func:`~repro.kernels.bitops.column_bits`) encodes
    ``q``, the left subtree's share of the node's weight.  Zero-weight
    clauses are pruned, so no draw can choose one.  ``None`` when no
    clause has positive weight.
    """

    def build(indices):
        if len(indices) == 1:
            return indices[0]
        mid = len(indices) // 2
        left = sum(weights[i] for i in indices[:mid])
        right = sum(weights[i] for i in indices[mid:])
        share = left / (left + right)
        return (column_bits(share), build(indices[:mid]), build(indices[mid:]))

    live = [i for i, weight in enumerate(weights) if weight > 0.0]
    return build(live) if live else None


def clause_counts(tree, rng: random.Random, width: int) -> List[Tuple[int, int]]:
    """Multinomial(width, W_i / W) clause counts, as ``(clause, count)``.

    Walks the split tree from the root: a node with ``n`` lanes sends
    ``Binomial(n, q)`` of them left — the popcount of an ``n``-wide
    Bernoulli(q) column — and the rest right; subtrees that get no
    lanes are skipped.  Clauses drawn zero times are omitted.
    """
    counts = []
    pending = [(tree, width)]
    while pending:
        node, lanes = pending.pop()
        if isinstance(node, int):
            counts.append((node, lanes))
            continue
        bits, left, right = node
        sent = popcount(bernoulli_column(rng, lanes, bits, full_mask(lanes)))
        if lanes - sent:
            pending.append((right, lanes - sent))
        if sent:
            pending.append((left, sent))
    return counts


def kl_block_moments(
    plan: KlPlan, rng: random.Random, width: int
) -> Tuple[float, float]:
    """One Karp–Luby block's per-sample sum and sum of squares.

    Lanes are exchangeable — the world columns are drawn independently
    of the clause choice — so only how many lanes choose each clause
    matters: clause ``i``'s lanes are one contiguous block, its
    literals are forced true there, and every clause is then evaluated
    on all lanes at once.  The coverage estimator ``1 / #covered``
    reads the lanes per cover count off a vertical counter; canonical
    samples are 0/1, so their sum of squares is the sum.
    """
    full = full_mask(width)
    chosen = [0] * len(plan.clauses)
    offset = 0
    for clause_index, count in clause_counts(plan.tree, rng, width):
        chosen[clause_index] = full_mask(count) << offset
        offset += count
    columns = draw_columns(rng, plan.bits, width, full)
    # Condition each lane on its chosen clause being true.
    for clause_index, mask in enumerate(chosen):
        if not mask:
            continue
        positive, negative = plan.clauses[clause_index]
        for slot in positive:
            columns[slot] |= mask
        for slot in negative:
            columns[slot] &= ~mask
    masks = clause_masks(plan.clauses, columns, full)
    if plan.method == "canonical":
        assigned = 0
        hits = 0
        for clause_index, mask in enumerate(masks):
            first = mask & ~assigned
            assigned |= mask
            if first:
                hits += popcount(first & chosen[clause_index])
        return float(hits), float(hits)
    planes: List[int] = []
    for mask in masks:
        if mask:
            add_to_counter(planes, mask)
    acc = 0.0
    acc_sq = 0.0
    # Every lane covers at least its chosen clause: no count is 0.
    for count, lanes in count_tally(planes, full):
        acc += lanes / count
        acc_sq += lanes / (count * count)
    return acc, acc_sq


def sample_kl_batches(
    plan: KlPlan,
    rng: random.Random,
    samples: int,
) -> float:
    """Batched Karp–Luby accumulator over the full sample budget."""

    def draw(batch: random.Random, width: int) -> float:
        return kl_block_moments(plan, batch, width)[0]

    def event(tally: Tally) -> None:
        obs.event(
            "karp_luby.batch",
            samples=tally.drawn,
            estimate=min(plan.total_weight * tally.total / tally.drawn, 1.0),
            cover_weight=plan.total_weight,
        )

    tally = _fixed_run("karp_luby", draw, rng, samples, len(plan.bits), event)
    return tally.total
