"""Batched sample loops over bit columns.

Every sampling estimator runs through one layout and one sample loop.
:func:`sample_layout` turns a worst-case budget into ``(index, width)``
batches and a grid of stopping checks; :func:`run_batches` walks the
batches and hands each batch's generator ``batch_rng(base, index)`` to
a worker, which draws per-variable Bernoulli columns and evaluates the
compiled clause plan with big-int AND/OR/popcount — a few hundred
interpreter operations per batch instead of a few thousand per
*sample*.

The checks fall at cumulative sample counts that double from
:data:`FIRST_CHECK`, plus the worst case; each segment between two
checks is drawn in batches no wider than
:func:`~repro.kernels.bitops.pick_batch_bits` (at most
:data:`~repro.kernels.bitops.BATCH_BITS` worlds, narrower for wide
plans and tiny budgets).  An adaptive run
(:func:`repro.runtime.adaptive.adaptive_mean`) asks its stop rule at
each check; a fixed-budget run walks the same batches with no stop
rule.

Determinism contract: the caller's ``rng`` contributes exactly one
``getrandbits(64)`` draw, the ``base`` of every batch generator.
Batch results are combined in index order, so the estimate is a pure
function of (plan, seed, worst-case budget, lanes) and of where the
stop rule fires, whether or not a recorder is on.

Budgets are charged through ``runtime.checkpoint(samples=width)``
*before* each batch is drawn: ``BudgetExceeded`` is accurate to one
batch, and an attempt over its budget draws nothing.  Convergence traces emit
one event per batch (``montecarlo.batch``, ``karp_luby.batch``, ...).
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, Tuple

from repro.kernels.bitops import (
    add_to_counter,
    bernoulli_column,
    column_bits,
    count_tally,
    full_mask,
    pick_batch_bits,
    popcount,
)
from repro.kernels.plan import HammingPlan, clause_masks, satisfied_mask
from repro.runtime.budget import checkpoint

#: Cumulative sample count of the first stopping check; each later
#: check doubles it.  Earlier checks cost more batches than they save:
#: a batch costs nearly the same whatever its width, and a check at 256
#: samples rarely certifies anything.
FIRST_CHECK = 1024


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


def sample_layout(
    worst: int, lanes: int = 1
) -> Tuple[Tuple[Tuple[int, int], ...], Tuple[int, ...]]:
    """The batches and the check grid of a run of at most ``worst``
    samples.

    Returns ``(batches, grid)``: ``batches`` are ``(index, width)``
    pairs whose widths sum to ``worst``; ``grid`` holds the cumulative
    sample counts at which a stop rule is asked — :data:`FIRST_CHECK`,
    doubling while below ``worst``, then ``worst``.  Every check falls
    on a batch boundary, and no batch is wider than
    ``pick_batch_bits(worst, lanes)``, where ``lanes`` is the plan's
    live column count.  A pure function of ``(worst, lanes)``: batches
    seed the sample stream, so a traced run draws exactly the samples
    an untraced one does.
    """
    if worst <= 0:
        raise ValueError("worst-case budget must be positive")
    width = pick_batch_bits(worst, lanes)
    grid = []
    check = FIRST_CHECK
    while check < worst:
        grid.append(check)
        check <<= 1
    grid.append(worst)
    batches: List[Tuple[int, int]] = []
    start = 0
    for end in grid:
        for offset in range(start, end, width):
            batches.append((len(batches), min(width, end - offset)))
        start = end
    return tuple(batches), tuple(grid)


class Tally:
    """Running sums of one sampling run.

    ``total`` sums the per-sample values and ``total_sq`` their
    squares; ``drawn`` counts samples and ``batches`` the batches done.
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
    batches: Sequence[Tuple[int, int]],
    on_batch: Callable[[Tally], None],
    stop: Optional[Callable[[Tally], bool]] = None,
    grid: Sequence[int] = (),
) -> Tally:
    """The one sample loop of every batched estimator.

    Takes the ``base`` of the batch generators from ``rng``, then for
    each ``(index, width)`` of ``batches`` charges
    ``checkpoint(samples=width)`` and calls
    ``draw(batch_rng(base, index), width)``, which returns the batch's
    ``(sum, sum of squares)`` of per-sample values.  ``on_batch(tally)``
    runs after every batch; ``stop(tally)``, when given, runs each time
    the samples drawn reach the next count of ``grid`` and ends the run
    by returning true.
    """
    base = rng.getrandbits(64)
    tally = Tally()
    checks = iter(grid if stop is not None else ())
    due = next(checks, None)
    for index, width in batches:
        checkpoint(samples=width)
        first, second = draw(batch_rng(base, index), width)
        tally.total += first
        tally.total_sq += second
        tally.drawn += width
        tally.batches += 1
        on_batch(tally)
        if tally.drawn == due:
            if stop(tally):
                break
            due = next(checks, None)
    return tally


# ---------------------------------------------------------------------- #
# truth probability and naive DNF Monte Carlo
# ---------------------------------------------------------------------- #


def dnf_moments(
    clauses, bits, rng: random.Random, width: int
) -> Tuple[int, int]:
    """One batch's satisfying-lane count of a compiled DNF, as moments:
    0/1 samples square to themselves."""
    full = full_mask(width)
    columns = draw_columns(rng, bits, width, full)
    hits = popcount(satisfied_mask(clauses, columns, full))
    return hits, hits


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
        diff = sat ^ full if cell.observed else sat
        if diff:
            diffs.append(diff)
    return full, constant, diffs


def hamming_block_moments(
    plan: HammingPlan, rng: random.Random, width: int
) -> Tuple[int, int]:
    """Per-lane Hamming distance first and second moments of one block.

    The stop rule needs the empirical variance of the per-world
    distance, so this worker counts, per lane, the cells that disagree
    in a vertical counter and reads the lanes of each distance off its
    tally.
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


# ---------------------------------------------------------------------- #
# Karp–Luby
# ---------------------------------------------------------------------- #


class KlPlan:
    """The state of a batched Karp–Luby run.

    ``clauses``/``bits`` come from the compiled DNF plan; ``weights``
    are the per-clause weights ``W_i`` (their sum is ``total_weight``)
    and drive the clause choice through :attr:`tree`, the split tree
    :func:`clause_split_tree` builds once per plan.
    """

    __slots__ = ("clauses", "bits", "tree", "total_weight")

    def __init__(self, clauses, bits, weights, total_weight):
        self.clauses = clauses
        self.bits = bits
        self.tree = clause_split_tree(weights)
        self.total_weight = total_weight


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
    reads the lanes per cover count off a vertical counter.
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
