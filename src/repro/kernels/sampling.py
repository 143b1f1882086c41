"""Batched sample loops over bit columns.

Each driver partitions a sample budget into batches of an adaptive
width (:func:`~repro.kernels.bitops.pick_batch_bits`: at most
:data:`~repro.kernels.bitops.BATCH_BITS` worlds, narrower for wide
plans and tiny budgets), draws every batch as
per-variable Bernoulli columns, and evaluates the compiled clause plan
with big-int AND/OR/popcount — a few hundred interpreter operations
per batch instead of a few thousand per *sample*.

Determinism contract: the caller's ``rng`` contributes exactly one
``getrandbits(64)`` draw, which seeds an independent ``random.Random``
per *batch index*.  Batch results are combined in index order, so the
estimate is a pure function of (plan, seed, budget) — identical
whether batches run sequentially or fanned out over any number of
:mod:`repro.kernels.shard` workers, and whether or not a recorder is
on.

Budgets are charged through ``runtime.checkpoint`` at batch
granularity (the documented accuracy of ``BudgetExceeded`` is one
batch); convergence traces keep the same event names and fields as the
scalar loops (``montecarlo.batch``, ``karp_luby.batch``, ...).
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Sequence, Tuple

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

    Seeding by *batch index* (not worker id) is what makes sharded runs
    reproducible: any partition of the batches over workers draws the
    same columns.
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


def plan_batches(budget: int, lanes: int = 1) -> List[Tuple[int, int]]:
    """Split a sample budget into ``(index, width)`` batches.

    The width is adaptive (:func:`~repro.kernels.bitops.pick_batch_bits`):
    ``lanes`` — the plan's live column count — narrows wide plans for
    locality, and a tiny budget yields one narrow batch instead of a
    full-width column.  The split never depends on whether a recorder
    is on: batches seed the sample stream, so a traced run draws
    exactly the samples an untraced one does, and the convergence
    trace gets one event per batch.
    """
    cap = pick_batch_bits(budget, lanes)
    batches = []
    start = 0
    index = 0
    while start < budget:
        width = min(cap, budget - start)
        batches.append((index, width))
        start += width
        index += 1
    return batches


def _execute(worker, payloads, shards: int, shared: tuple = ()) -> Iterator:
    """Run batch payloads, fanned out over ``shards`` processes if asked.

    Sequential execution is lazy (a generator), so the driver's
    ``checkpoint`` runs *before* each batch is computed; a sharded run
    computes everything up front and the driver charges the budget as
    it combines results, still in batch order.

    ``shared`` carries the leading worker arguments common to every
    batch (the compiled plan): shipped once per worker process in a
    sharded run instead of pickled into every payload, so workers never
    recompile and the payloads stay ``(base, index, width)`` triples.
    """
    if shards > 1 and len(payloads) > 1:
        from repro.kernels.shard import run_jobs

        results = run_jobs(worker, payloads, shards, shared=shared or None)
        if results is not None:
            return iter(results)
    if shared:
        return (worker(*shared, *payload) for payload in payloads)
    return (worker(*payload) for payload in payloads)


# ---------------------------------------------------------------------- #
# truth probability
# ---------------------------------------------------------------------- #


def truth_batch_hits(plan: TruthPlan, base: int, index: int, width: int) -> int:
    """Satisfying-lane count of one batch (a shard-safe pure function)."""
    rng = batch_rng(base, index)
    full = full_mask(width)
    columns = draw_columns(rng, plan.bits, width, full)
    return popcount(plan.plan.satisfied_mask(columns, full))


def sample_truth_batches(
    plan: TruthPlan,
    rng: random.Random,
    budget: int,
    delta: float,
    shards: int = 1,
) -> float:
    """Batched ``estimate_truth_probability`` inner loop."""
    from repro.reliability.montecarlo import _half_width

    trace = obs.enabled()
    if plan.constant is not None:
        checkpoint(samples=budget)
        if trace:
            obs.event(
                "montecarlo.batch",
                samples=budget,
                estimate=plan.constant,
                half_width=_half_width(budget, delta),
            )
        obs.inc("montecarlo.samples", budget)
        return plan.constant
    base = rng.getrandbits(64)
    batches = plan_batches(budget, lanes=len(plan.bits))
    payloads = [(base, index, width) for index, width in batches]
    results = _execute(truth_batch_hits, payloads, shards, shared=(plan,))
    hits = 0
    drawn = 0
    with obs.span("kernels.batched", kernel="truth", batches=len(batches)):
        for (_, width), batch_hits in zip(batches, results):
            checkpoint(samples=width)
            hits += batch_hits
            drawn += width
            obs.inc("kernels.batches")
            if trace:
                estimate = hits / drawn
                obs.event(
                    "montecarlo.batch",
                    samples=drawn,
                    estimate=1.0 - estimate if plan.negate else estimate,
                    half_width=_half_width(drawn, delta),
                )
    obs.inc("kernels.batch_samples", budget)
    obs.inc("montecarlo.samples", budget)
    estimate = hits / budget
    return 1.0 - estimate if plan.negate else estimate


# ---------------------------------------------------------------------- #
# Hamming reliability
# ---------------------------------------------------------------------- #


def _hamming_diffs(
    plan: HammingPlan, base: int, index: int, width: int
) -> Tuple[int, int, List[int]]:
    """One batch's disagreement with the observed answer table.

    Returns ``(full, constant, diffs)``: the batch's all-lanes mask,
    the number of cells whose grounded DNF folded to a constant that
    disagrees with the observation (they add to every lane's
    distance), and one lane mask per sampled cell of the lanes where
    the cell's truth value disagrees.
    """
    rng = batch_rng(base, index)
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
    plan: HammingPlan, base: int, index: int, width: int
) -> int:
    """Total Hamming distance over one batch of sampled worlds."""
    _, constant, diffs = _hamming_diffs(plan, base, index, width)
    return constant * width + sum(popcount(diff) for diff in diffs)


def hamming_block_moments(
    plan: HammingPlan, base: int, index: int, width: int
) -> Tuple[int, int]:
    """Per-lane Hamming distance first and second moments of one block.

    The adaptive controller needs the empirical variance of the
    per-world distance, which :func:`hamming_batch_distance`'s batch
    total cannot provide — so this worker counts, per lane, the cells
    that disagree in a vertical counter and reads the lanes of each
    distance off its tally.  The lane total matches
    ``hamming_batch_distance(plan, base, index, width)`` exactly.
    """
    full, constant, diffs = _hamming_diffs(plan, base, index, width)
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


def sample_hamming_batches(
    plan: HammingPlan,
    rng: random.Random,
    budget: int,
    delta: float,
    shards: int = 1,
) -> float:
    """Batched ``estimate_reliability_hamming`` inner loop."""
    from repro.reliability.montecarlo import _half_width

    trace = obs.enabled()
    base = rng.getrandbits(64)
    batches = plan_batches(budget, lanes=len(plan.bits))
    payloads = [(base, index, width) for index, width in batches]
    results = _execute(hamming_batch_distance, payloads, shards, shared=(plan,))
    total = 0.0
    drawn = 0
    cells = plan.cells
    with obs.span("kernels.batched", kernel="hamming", batches=len(batches)):
        for (_, width), distance in zip(batches, results):
            checkpoint(samples=width)
            total += distance / cells
            drawn += width
            obs.inc("kernels.batches")
            if trace:
                obs.event(
                    "montecarlo.hamming_batch",
                    samples=drawn,
                    estimate=1.0 - total / drawn,
                    half_width=_half_width(drawn, delta),
                )
    obs.inc("kernels.batch_samples", budget)
    obs.inc("montecarlo.samples", budget)
    return 1.0 - total / budget


# ---------------------------------------------------------------------- #
# Karp–Luby
# ---------------------------------------------------------------------- #


class KlPlan:
    """The picklable state of a batched Karp–Luby run.

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
    plan: KlPlan, base: int, index: int, width: int
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
    rng = batch_rng(base, index)
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


def kl_batch(plan: KlPlan, base: int, index: int, width: int) -> float:
    """One batch of the Karp–Luby estimator; returns its accumulator sum.

    The first moment of :func:`kl_block_moments`, so fixed-budget and
    adaptive runs share one worker.
    """
    return kl_block_moments(plan, base, index, width)[0]


def sample_kl_batches(
    plan: KlPlan,
    rng: random.Random,
    samples: int,
    shards: int = 1,
) -> float:
    """Batched Karp–Luby accumulator over the full sample budget."""
    trace = obs.enabled()
    base = rng.getrandbits(64)
    batches = plan_batches(samples, lanes=len(plan.bits))
    payloads = [(base, index, width) for index, width in batches]
    results = _execute(kl_batch, payloads, shards, shared=(plan,))
    accumulator = 0.0
    drawn = 0
    with obs.span("kernels.batched", kernel="karp_luby", batches=len(batches)):
        for (_, width), batch_acc in zip(batches, results):
            checkpoint(samples=width)
            accumulator += batch_acc
            drawn += width
            obs.inc("kernels.batches")
            if trace:
                obs.event(
                    "karp_luby.batch",
                    samples=drawn,
                    estimate=min(
                        plan.total_weight * accumulator / drawn, 1.0
                    ),
                    cover_weight=plan.total_weight,
                )
    obs.inc("kernels.batch_samples", samples)
    return accumulator


# ---------------------------------------------------------------------- #
# naive DNF Monte Carlo
# ---------------------------------------------------------------------- #


def naive_batch_hits(
    clauses, bits, base: int, index: int, width: int
) -> int:
    """Satisfying-lane count for the naive DNF sampler's batch."""
    rng = batch_rng(base, index)
    full = full_mask(width)
    columns = draw_columns(rng, bits, width, full)
    return popcount(satisfied_mask(clauses, columns, full))


def sample_naive_batches(
    clauses,
    bits,
    rng: random.Random,
    samples: int,
    shards: int = 1,
) -> float:
    """Batched naive Monte-Carlo estimate of ``Pr[dnf]``."""
    trace = obs.enabled()
    base = rng.getrandbits(64)
    batches = plan_batches(samples, lanes=len(bits))
    payloads = [(base, index, width) for index, width in batches]
    results = _execute(naive_batch_hits, payloads, shards, shared=(clauses, bits))
    hits = 0
    drawn = 0
    with obs.span("kernels.batched", kernel="naive_mc", batches=len(batches)):
        for (_, width), batch_hits in zip(batches, results):
            checkpoint(samples=width)
            hits += batch_hits
            drawn += width
            obs.inc("kernels.batches")
            if trace:
                obs.event(
                    "naive_mc.batch", samples=drawn, estimate=hits / drawn
                )
    obs.inc("kernels.batch_samples", samples)
    obs.inc("naive_mc.samples", samples)
    return hits / samples
