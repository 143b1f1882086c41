"""Command-line interface: query reliability from the shell.

The CLI reads an unreliable database in the canonical text format (see
:mod:`repro.relational.encoding`: ``universe`` / ``relation`` /
``tuple`` / ``error`` lines) and computes or estimates the reliability
of a first-order query.

Examples::

    python -m repro compute db.txt "exists x y. E(x, y) & S(y)"
    python -m repro compute db.txt "E(x, y)" --free x y --method qf
    python -m repro estimate db.txt "exists x. S(x)" --epsilon 0.05 \\
        --delta 0.05 --seed 7
    python -m repro estimate db.txt "forall x. exists y. E(x, y)" \\
        --estimator padding
    python -m repro run db.txt "exists x y. E(x, y)" --deadline 5
    python -m repro run db.txt "exists x y. E(x, y)" --stats
    python -m repro inspect db.txt

Every subcommand accepts ``--stats`` (print engine-internal counters —
worlds enumerated, clauses grounded, samples drawn — after the result),
``--trace FILE`` (write span/event records as JSON-lines; see
docs/OBSERVABILITY.md for the schema) and ``--profile`` (print the
span-tree profile — per-phase count, total and self time — after the
result).  ``compute``, ``estimate``, ``analyze`` and ``run``
additionally accept ``--deadline SECONDS`` and ``--max-cost N``
resource budgets; ``run`` degrades along an engine chain instead of
failing outright (see docs/ROBUSTNESS.md).

The ``bench`` subcommand family drives the unified benchmark harness
(:mod:`repro.bench`)::

    python -m repro bench list
    python -m repro bench run --all --quick
    python -m repro bench run experiments.e4_fptras --out fresh.jsonl --no-append
    python -m repro bench compare --fresh fresh.jsonl
    python -m repro bench report experiments.e1_qf_reliability
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction
from typing import List, Optional

from repro import obs
from repro.relational.encoding import decode_unreliable_database
from repro.util.errors import (
    BudgetExceeded,
    CostRefused,
    FallbackExhausted,
    QueryError,
    ReproError,
)

# Distinct exit codes so scripts can branch on *why* a query failed
# without parsing stderr.  2 stays the generic error code.
EXIT_COST_REFUSED = 3
EXIT_BUDGET_EXCEEDED = 4
EXIT_FALLBACK_EXHAUSTED = 5


# Each command imports what it runs, so ``import repro.cli`` loads only
# argparse, ``repro.obs`` and the database decoder.  perfbench wraps
# ``decode_unreliable_database`` and ``run_with_fallback`` as attributes
# of this module, so the handlers call both through its globals.


def run_with_fallback(*args, **kwargs):
    """:func:`repro.runtime.executor.run_with_fallback`, imported on the
    first call."""
    from repro.runtime import executor

    return executor.run_with_fallback(*args, **kwargs)


def _load(path: str):
    with open(path) as handle:
        return decode_unreliable_database(handle.read())


def _query(args: argparse.Namespace):
    from repro.logic.evaluator import FOQuery

    return FOQuery(args.query, args.free or None)


def _cmd_compute(args: argparse.Namespace) -> int:
    from repro.reliability.exact import expected_error, reliability

    db = _load(args.database)
    query = _query(args)
    value = reliability(db, query, method=args.method)
    print(f"reliability = {value} ({float(value):.6f})")
    if args.expected_error:
        h = expected_error(db, query, method=args.method)
        print(f"expected_error = {h} ({float(h):.6f})")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    from repro.reliability.approx import reliability_additive
    from repro.reliability.montecarlo import estimate_reliability_hamming
    from repro.reliability.padding import padded_reliability

    db = _load(args.database)
    query = _query(args)
    rng = random.Random(args.seed)
    if args.estimator == "karp-luby":
        estimate = reliability_additive(
            db, query, args.epsilon, args.delta, rng
        )
        print(
            f"reliability ~ {estimate.value:.6f}  "
            f"(+/- {args.epsilon} with prob >= {1 - args.delta}; "
            f"{estimate.samples} samples)"
        )
    elif args.estimator == "padding":
        estimate = padded_reliability(
            db, query, args.epsilon, args.delta, rng, xi=Fraction(1, 4)
        )
        print(
            f"reliability ~ {estimate.value:.6f}  "
            f"(+/- {args.epsilon} with prob >= {1 - args.delta}; "
            f"{estimate.samples} samples)"
        )
    else:
        value = estimate_reliability_hamming(
            db, query, rng, epsilon=args.epsilon, delta=args.delta
        )
        print(
            f"reliability ~ {value:.6f}  "
            f"(+/- {args.epsilon} with prob >= {1 - args.delta})"
        )
    return 0


def _adaptive_flag(args: argparse.Namespace) -> bool:
    """``--adaptive[=off|on]`` to the executor's boolean (default on)."""
    return getattr(args, "adaptive", None) != "off"


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.reliability.report import analyze

    db = _load(args.database)
    query = _query(args)
    rng = random.Random(args.seed) if args.seed is not None else None
    report = analyze(
        db,
        query,
        rng=rng,
        epsilon=args.epsilon,
        delta=args.delta,
        adaptive=_adaptive_flag(args),
    )
    print(report.render())
    if getattr(args, "explain_dichotomy", False):
        print(report.explain_dichotomy())
    return 0


def _activate_cache(args: argparse.Namespace) -> None:
    """Turn on the persistent compilation cache for this invocation.

    ``--cache-dir`` wins; otherwise ``$REPRO_CACHE_DIR`` (when set and
    nonempty) activates the tier.  Without either, compilation stays
    memory-only.
    """
    from repro.kernels import cache_persist

    if getattr(args, "cache_dir", None):
        cache_persist.configure(args.cache_dir)
    else:
        cache_persist.configure_from_env()


def _cache_tier(args: argparse.Namespace):
    """The persistent cache named by ``--cache-dir`` / the environment."""
    from repro.kernels import cache_persist

    if getattr(args, "cache_dir", None):
        return cache_persist.PersistentCache(args.cache_dir)
    import os

    directory = os.environ.get(cache_persist.ENV_CACHE_DIR, "").strip()
    if not directory:
        raise QueryError(
            "no cache directory: pass --cache-dir or set "
            f"${cache_persist.ENV_CACHE_DIR}"
        )
    return cache_persist.PersistentCache(directory)


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    stats = _cache_tier(args).stats()
    print(f"directory  {stats['directory']}")
    print(f"files      {stats['files']}")
    print(f"bytes      {stats['bytes']}")
    return 0


def _cmd_cache_clear(args: argparse.Namespace) -> int:
    tier = _cache_tier(args)
    removed = tier.clear()
    print(f"removed {removed} cache file(s) from {tier.directory}")
    return 0


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    tier = _cache_tier(args)
    removed = tier.gc(max_files=args.max_files, max_bytes=args.max_bytes)
    stats = tier.stats()
    print(
        f"evicted {removed} cache file(s); {stats['files']} file(s), "
        f"{stats['bytes']} byte(s) remain in {tier.directory}"
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    _activate_cache(args)
    db = _load(args.database)
    query = _query(args)
    chain = tuple(
        name.strip() for name in args.engine_chain.split(",") if name.strip()
    )
    result = run_with_fallback(
        db,
        query,
        chain=chain,
        quantity=args.quantity,
        epsilon=args.epsilon,
        delta=args.delta,
        rng=random.Random(args.seed),
        adaptive=_adaptive_flag(args),
    )
    print(result.describe())
    return 0


def _read_request_lines(source: str) -> List[str]:
    if source == "-":
        return sys.stdin.read().splitlines()
    with open(source) as handle:
        return handle.read().splitlines()


def _cmd_serve(args: argparse.Namespace) -> int:
    """Batch serving: drain a JSONL request stream through one Server.

    Every non-blank input line yields exactly one JSON response line on
    stdout — lines that do not even parse into a request are answered
    ``invalid`` immediately (with the ``id`` recovered when possible),
    everything else goes through admission/scheduling.
    """
    from repro.serve import protocol
    from repro.serve.admission import DegradationLadder
    from repro.serve.breaker import CircuitBreaker
    from repro.serve.retry import RetryPolicy
    from repro.serve.scheduler import Server

    _activate_cache(args)
    db = _load(args.database)
    requests = []
    invalid = 0
    for line in _read_request_lines(args.input):
        if not line.strip():
            continue
        try:
            requests.append(protocol.parse_request_line(line))
        except QueryError as exc:
            invalid += 1
            payload = {"id": None, "code": "invalid", "detail": str(exc)}
            try:
                raw = json.loads(line)
                if isinstance(raw, dict) and "id" in raw:
                    payload["id"] = str(raw["id"])
            except json.JSONDecodeError:
                pass
            print(json.dumps(payload, sort_keys=True))
    server = Server(
        db,
        pool_size=args.pool,
        queue_capacity=args.queue,
        ladder=DegradationLadder(
            relative_at=args.relative_at, additive_at=args.additive_at
        ),
        retry=RetryPolicy(max_retries=args.retries),
        breaker=CircuitBreaker(
            threshold=args.breaker_threshold,
            cooldown=args.breaker_cooldown,
        ),
        adaptive=_adaptive_flag(args),
    )
    responses = server.run(requests)
    for response in responses:
        print(protocol.format_response(response))
    ok = sum(1 for response in responses if response.ok)
    total = len(responses) + invalid
    print(
        f"served {total} request(s): {ok} ok, {total - ok} not ok",
        file=sys.stderr,
    )
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """Emit one validated request line for `repro serve` to consume."""
    from repro.serve import protocol
    from repro.serve.request import ServeRequest

    chain = None
    if args.engine_chain:
        chain = tuple(
            name.strip()
            for name in args.engine_chain.split(",")
            if name.strip()
        )
    request = ServeRequest(
        id=args.id,
        query=args.query,
        free=tuple(args.free) if args.free else None,
        tenant=args.tenant,
        quantity=args.quantity,
        epsilon=args.epsilon,
        delta=args.delta,
        deadline=args.deadline,
        max_cost=args.max_cost,
        chain=chain,
        seed=args.seed,
        arrival=args.arrival,
    )
    request.validate()
    print(json.dumps(protocol.request_to_payload(request), sort_keys=True))
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    db = _load(args.database)
    structure = db.structure
    print(f"universe: {len(structure)} elements")
    for symbol in structure.vocabulary:
        rows = structure.relation(symbol.name)
        print(f"relation {symbol}: {len(rows)} tuples")
    uncertain = db.uncertain_atoms()
    print(f"uncertain atoms: {len(uncertain)}")
    if uncertain:
        rates = sorted({str(db.mu(a)) for a in uncertain})
        print(f"error rates in use: {', '.join(rates)}")
        print(f"possible worlds: 2^{len(uncertain)}")
    if args.query:
        from repro.logic.classify import classify

        query = _query(args)
        print(f"query fragment: {classify(query.formula)}")
        answers = query.answers(structure)
        print(f"observed answer: {len(answers)} tuples")
    return 0


def _cmd_bench_list(args: argparse.Namespace) -> int:
    from repro import bench

    cases = bench.all_cases()
    if not cases:
        print("(no registered benchmarks)")
        return 0
    width = max(len(case.bench_id) for case in cases)
    for case in cases:
        print(
            f"{case.bench_id:<{width}}  repeats={case.repeats}  "
            f"{case.description}"
        )
    return 0


def _cmd_bench_run(args: argparse.Namespace) -> int:
    from repro import bench

    if not args.benchmarks and not args.all:
        print("error: name benchmarks, or pass --all", file=sys.stderr)
        return 2
    bench_ids = args.benchmarks or None
    results = bench.run_many(
        bench_ids,
        quick=args.quick,
        repeats=args.repeats,
        progress=lambda line: print(f"  running {line}"),
    )
    history = bench.History(args.history)
    out_lines = []
    for result in results:
        record = result.to_dict()
        if not args.no_append:
            history.append(record)
        out_lines.append(result.to_json())
        print(
            f"{result.bench:<36} {result.seconds:>10.6f}s  "
            f"key={result.workload_key}"
        )
    if args.out:
        with open(args.out, "w") as handle:
            handle.write("\n".join(out_lines) + "\n")
        print(f"wrote {len(out_lines)} record(s) to {args.out}")
    if not args.no_append:
        print(f"appended {len(results)} record(s) to {history.path}")
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro import bench

    history = bench.History(args.history)
    if not history.exists():
        print(f"error: no history at {history.path}", file=sys.stderr)
        return 2
    kwargs = {}
    if args.tolerance is not None:
        kwargs["tolerance"] = args.tolerance
    if args.window is not None:
        kwargs["window"] = args.window
    if args.fresh:
        fresh, skipped = bench.History(args.fresh).load()
        if skipped:
            print(f"warning: skipped {skipped} invalid fresh record(s)")
        comparison = bench.compare_against_history(fresh, history, **kwargs)
    else:
        comparison = bench.self_compare(history, **kwargs)
    print(comparison.render())
    return 0 if comparison.ok else 1


def _cmd_bench_report(args: argparse.Namespace) -> int:
    from repro import bench
    from repro.bench import report as bench_report

    history = bench.History(args.history)
    if not history.exists():
        print(f"error: no history at {history.path}", file=sys.stderr)
        return 2
    if args.benchmark:
        print(bench_report.bench_detail(history, args.benchmark, args.key))
    else:
        print(bench_report.trend_table(history))
    return 0


def _print_stats(recorder: obs.StatsRecorder) -> None:
    """Render the recorder's registry as an aligned summary table."""
    snapshot = recorder.summary()
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    print("-- engine stats --")
    if not (counters or gauges or histograms):
        print("(no instrumented engine ran)")
        return
    width = max(
        (len(name) for name in (*counters, *gauges, *histograms)), default=0
    )
    for name, value in counters.items():
        print(f"{name:<{width}}  {value}")
    for name, value in gauges.items():
        print(f"{name:<{width}}  {value}")
    for name, stats in histograms.items():
        mean = stats["mean"]
        print(
            f"{name:<{width}}  count={stats['count']} "
            f"total={stats['total']:.6g} "
            f"mean={0.0 if mean is None else mean:.6g}"
        )


def build_parser() -> argparse.ArgumentParser:
    from repro.runtime import DEFAULT_CHAIN

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Query reliability on unreliable databases "
            "(Grädel-Gurevich-Hirsch, PODS 1998)"
        ),
    )
    # The flags are accepted both before the subcommand (global) and
    # after it (per-command); distinct dests keep argparse's
    # subparser-defaults-override-namespace behaviour from clobbering a
    # globally-given value.
    parser.add_argument(
        "--stats",
        dest="stats_global",
        action="store_true",
        help="print engine counters/timings after the result",
    )
    parser.add_argument(
        "--trace",
        dest="trace_global",
        metavar="FILE",
        help="write structured span/event trace as JSON-lines to FILE",
    )
    parser.add_argument(
        "--profile",
        dest="profile_global",
        action="store_true",
        help="print the span-tree profile (per-phase self/total time) "
        "after the result",
    )
    observability = argparse.ArgumentParser(add_help=False)
    observability.add_argument(
        "--stats",
        action="store_true",
        help="print engine counters/timings after the result",
    )
    observability.add_argument(
        "--trace",
        metavar="FILE",
        help="write structured span/event trace as JSON-lines to FILE",
    )
    observability.add_argument(
        "--profile",
        action="store_true",
        help="print the span-tree profile (per-phase self/total time) "
        "after the result",
    )
    resources = argparse.ArgumentParser(add_help=False)
    resources.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="wall-clock budget; exceeding it aborts with an error "
        "(or degrades engines, under `run`)",
    )
    resources.add_argument(
        "--max-cost",
        type=int,
        metavar="N",
        dest="max_cost",
        help="cap on estimated work: worlds enumerated, clauses "
        "grounded, and samples drawn; hopeless runs are refused "
        "up front",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser(
        "compute",
        help="exact reliability",
        parents=[observability, resources],
    )
    compute.add_argument("database", help="database file (canonical text format)")
    compute.add_argument("query", help="first-order query text")
    compute.add_argument("--free", nargs="*", help="free-variable order")
    compute.add_argument(
        "--method",
        choices=["auto", "qf", "dnf", "worlds"],
        default="auto",
        help="exact engine selection",
    )
    compute.add_argument(
        "--expected-error",
        action="store_true",
        help="also print H_psi",
    )
    compute.set_defaults(handler=_cmd_compute)

    estimate = sub.add_parser(
        "estimate",
        help="randomized reliability",
        parents=[observability, resources],
    )
    estimate.add_argument("database")
    estimate.add_argument("query")
    estimate.add_argument("--free", nargs="*")
    estimate.add_argument("--epsilon", type=float, default=0.05)
    estimate.add_argument("--delta", type=float, default=0.05)
    estimate.add_argument("--seed", type=int, default=0)
    estimate.add_argument(
        "--estimator",
        choices=["karp-luby", "padding", "hamming"],
        default="karp-luby",
        help=(
            "karp-luby: Cor 5.5 (existential/universal); padding: Thm "
            "5.12 (any PTIME query); hamming: whole-table world sampling"
        ),
    )
    estimate.set_defaults(handler=_cmd_estimate)

    analyze_cmd = sub.add_parser(
        "analyze",
        help="classify, dispatch and explain in one call",
        parents=[observability, resources],
    )
    analyze_cmd.add_argument("database")
    analyze_cmd.add_argument("query")
    analyze_cmd.add_argument("--free", nargs="*")
    analyze_cmd.add_argument("--epsilon", type=float, default=0.05)
    analyze_cmd.add_argument("--delta", type=float, default=0.05)
    analyze_cmd.add_argument(
        "--seed",
        type=int,
        default=None,
        help="enable estimators with this seed (omit to force exact)",
    )
    analyze_cmd.add_argument(
        "--adaptive",
        nargs="?",
        const="on",
        choices=["off", "on"],
        default=None,
        help="price the sequential empirical-Bernstein stopper `run` "
        "uses (default on): sampling-engine forecasts show expected vs "
        "worst-case samples and surrogate-adjusted seconds; `off` "
        "prices the fixed worst-case budget",
    )
    analyze_cmd.add_argument(
        "--explain-dichotomy",
        action="store_true",
        help="print the static Dalvi-Suciu dichotomy verdict: the "
        "hierarchy tree (the safe plan) for safe queries, the "
        "#P-hardness witness for unsafe ones",
    )
    analyze_cmd.set_defaults(handler=_cmd_analyze)

    run = sub.add_parser(
        "run",
        help="resilient execution: degrade across an engine chain "
        "under a budget",
        parents=[observability, resources],
    )
    run.add_argument("database")
    run.add_argument("query")
    run.add_argument("--free", nargs="*")
    run.add_argument(
        "--engine-chain",
        dest="engine_chain",
        default=",".join(DEFAULT_CHAIN),
        metavar="a,b,c",
        help=f"fallback order (default: {','.join(DEFAULT_CHAIN)})",
    )
    run.add_argument(
        "--quantity",
        choices=["reliability", "probability"],
        default="reliability",
        help="what to compute: R_psi (any arity) or Pr[B |= psi] (Boolean)",
    )
    run.add_argument("--epsilon", type=float, default=0.05)
    run.add_argument("--delta", type=float, default=0.05)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--adaptive",
        nargs="?",
        const="on",
        choices=["off", "on"],
        default=None,
        help="stop the sampling engines as soon as empirical-Bernstein "
        "confidence intervals certify the (epsilon, delta) guarantee, "
        "with the worst-case sample count as a never-exceeded cap "
        "(default on); `off` draws the fixed worst-case budget "
        "(see docs/PERFORMANCE.md, 'Adaptive stopping')",
    )
    run.add_argument(
        "--cache-dir",
        dest="cache_dir",
        metavar="DIR",
        help="persist compiled plans/groundings under DIR so later "
        "processes warm-start (default: $REPRO_CACHE_DIR when set)",
    )
    run.set_defaults(handler=_cmd_run)

    serve = sub.add_parser(
        "serve",
        help="multi-query scheduler: drain a JSONL request batch over "
        "one shared worker pool with admission control",
        parents=[observability],
    )
    serve.add_argument("database")
    serve.add_argument(
        "--input",
        default="-",
        metavar="FILE",
        help="JSONL request stream (default: stdin; see `repro submit`)",
    )
    serve.add_argument(
        "--pool", type=int, default=4, metavar="N",
        help="worker pool size (queries in flight at once)",
    )
    serve.add_argument(
        "--queue", type=int, default=16, metavar="N",
        help="backlog capacity; admitted work beyond it is shed "
        "with code `overloaded`",
    )
    serve.add_argument(
        "--relative-at", type=int, default=4, metavar="DEPTH",
        help="backlog depth at which admissions degrade to the "
        "relative guarantee tier",
    )
    serve.add_argument(
        "--additive-at", type=int, default=8, metavar="DEPTH",
        help="backlog depth at which admissions degrade to the "
        "additive guarantee tier",
    )
    serve.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="max retries per query on transient engine faults",
    )
    serve.add_argument(
        "--breaker-threshold", type=int, default=3, metavar="N",
        help="consecutive engine failures before its circuit opens",
    )
    serve.add_argument(
        "--breaker-cooldown", type=float, default=1.0, metavar="SECONDS",
        help="open-circuit cooldown before a half-open probe",
    )
    serve.add_argument(
        "--adaptive",
        nargs="?",
        const="on",
        choices=["off", "on"],
        default=None,
        help="adaptive sampling for every request (default on): runs "
        "stop early once their guarantee is certified, and admission "
        "forecasts use the online surrogate's expected costs, admitting "
        "more under the same deadline as the surrogate warms; `off` "
        "draws and forecasts the fixed worst-case budget",
    )
    serve.add_argument(
        "--cache-dir",
        dest="cache_dir",
        metavar="DIR",
        help="persist compiled plans/groundings under DIR; requests "
        "across the batch (and later server processes) warm-start "
        "(default: $REPRO_CACHE_DIR when set)",
    )
    serve.set_defaults(handler=_cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="format one serve request as a JSONL line",
    )
    submit.add_argument("id", help="request id (echoed in the response)")
    submit.add_argument("query", help="first-order query text")
    submit.add_argument("--free", nargs="*")
    submit.add_argument("--tenant", default="default")
    submit.add_argument(
        "--quantity",
        choices=["reliability", "probability"],
        default="reliability",
    )
    submit.add_argument("--epsilon", type=float, default=0.05)
    submit.add_argument("--delta", type=float, default=0.05)
    submit.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-query wall-clock budget, enforced by the server",
    )
    submit.add_argument(
        "--max-cost", type=int, default=None, dest="max_cost", metavar="N",
    )
    submit.add_argument(
        "--engine-chain", dest="engine_chain", default=None, metavar="a,b,c",
    )
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument(
        "--arrival", type=float, default=0.0, metavar="SECONDS",
        help="scripted arrival offset (server replays arrivals in order)",
    )
    submit.set_defaults(handler=_cmd_submit)

    inspect = sub.add_parser(
        "inspect", help="summarise a database file", parents=[observability]
    )
    inspect.add_argument("database")
    inspect.add_argument("--query", help="optionally classify a query")
    inspect.add_argument("--free", nargs="*")
    inspect.set_defaults(handler=_cmd_inspect)

    bench_cmd = sub.add_parser(
        "bench",
        help="run registered benchmarks, track and gate the trajectory",
    )
    bench_sub = bench_cmd.add_subparsers(dest="bench_command", required=True)

    bench_list = bench_sub.add_parser(
        "list", help="list the registered benchmark cases"
    )
    bench_list.set_defaults(handler=_cmd_bench_list)

    bench_run = bench_sub.add_parser(
        "run",
        help="run benchmarks and record schema-versioned results",
    )
    bench_run.add_argument(
        "benchmarks", nargs="*", metavar="BENCH", help="benchmark ids"
    )
    bench_run.add_argument(
        "--all", action="store_true", help="run every registered case"
    )
    bench_run.add_argument(
        "--quick",
        action="store_true",
        help="quick parameter profile (CI-sized workloads; recorded as "
        "a separate trajectory)",
    )
    bench_run.add_argument(
        "--repeats", type=int, default=None, help="override repeat count"
    )
    bench_run.add_argument(
        "--history",
        metavar="PATH",
        help="trajectory store to append to (default: BENCH_history.jsonl)",
    )
    bench_run.add_argument(
        "--no-append",
        dest="no_append",
        action="store_true",
        help="do not append the records to the trajectory store",
    )
    bench_run.add_argument(
        "--out",
        metavar="FILE",
        help="also write the fresh records to FILE (JSON-lines)",
    )
    bench_run.set_defaults(handler=_cmd_bench_run)

    bench_compare = bench_sub.add_parser(
        "compare",
        help="gate fresh results against the recorded trajectory "
        "(robust relative bands; exit 1 on regression)",
    )
    bench_compare.add_argument(
        "--fresh",
        metavar="FILE",
        help="fresh records to gate (from `bench run --out`); omitted, "
        "each trajectory's newest record is gated against its past",
    )
    bench_compare.add_argument("--history", metavar="PATH")
    bench_compare.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="relative band floor (default 0.75: flag past ~1.75x the "
        "trajectory median)",
    )
    bench_compare.add_argument(
        "--window",
        type=int,
        default=None,
        help="baseline records per trajectory (default 20)",
    )
    bench_compare.set_defaults(handler=_cmd_bench_compare)

    bench_report = bench_sub.add_parser(
        "report", help="trend tables over the recorded trajectory"
    )
    bench_report.add_argument(
        "benchmark", nargs="?", help="detail view of one benchmark"
    )
    bench_report.add_argument(
        "--key", help="restrict the detail view to one workload key"
    )
    bench_report.add_argument("--history", metavar="PATH")
    bench_report.set_defaults(handler=_cmd_bench_report)

    cache_cmd = sub.add_parser(
        "cache",
        help="inspect and maintain the persistent compilation cache",
    )
    cache_dir_opt = argparse.ArgumentParser(add_help=False)
    cache_dir_opt.add_argument(
        "--cache-dir",
        dest="cache_dir",
        metavar="DIR",
        help="cache directory (default: $REPRO_CACHE_DIR)",
    )
    cache_sub = cache_cmd.add_subparsers(dest="cache_command", required=True)

    cache_stats = cache_sub.add_parser(
        "stats",
        help="file count and byte total for the cache directory",
        parents=[cache_dir_opt],
    )
    cache_stats.set_defaults(handler=_cmd_cache_stats)

    cache_clear = cache_sub.add_parser(
        "clear",
        help="delete every cache file",
        parents=[cache_dir_opt],
    )
    cache_clear.set_defaults(handler=_cmd_cache_clear)

    cache_gc = cache_sub.add_parser(
        "gc",
        help="evict oldest cache files beyond the given limits",
        parents=[cache_dir_opt],
    )
    cache_gc.add_argument(
        "--max-files",
        type=int,
        default=None,
        metavar="N",
        dest="max_files",
        help="keep at most N cache files",
    )
    cache_gc.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="N",
        dest="max_bytes",
        help="keep at most N bytes of cache files",
    )
    cache_gc.set_defaults(handler=_cmd_cache_gc)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: building every subparser costs more
    than a small query takes to answer, and parsing leaves no state on
    it (each call gets a fresh namespace)."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    stats = getattr(args, "stats", False) or args.stats_global
    trace = getattr(args, "trace", None) or args.trace_global
    profile = getattr(args, "profile", False) or args.profile_global
    recorder: Optional[obs.StatsRecorder] = None
    previous = None
    profile_events: Optional[obs.ListSink] = None
    if stats or trace or profile:
        sink = obs.JsonlSink(trace) if trace else None
        if profile:
            # Keep the span stream in memory for the profile; tee when a
            # trace file is also requested.
            profile_events = obs.ListSink()
            sink = (
                obs.TeeSink(sink, profile_events) if sink else profile_events
            )
        recorder = obs.StatsRecorder(sink=sink)
        previous = obs.set_recorder(recorder)
    deadline = getattr(args, "deadline", None)
    max_cost = getattr(args, "max_cost", None)
    try:
        if deadline is not None or max_cost is not None:
            from repro.runtime.budget import Budget, apply

            budget = Budget(
                deadline=deadline,
                max_worlds=max_cost,
                max_ground_clauses=max_cost,
                max_samples=max_cost,
            )
            with apply(budget):
                code = args.handler(args)
        else:
            code = args.handler(args)
        if recorder is not None and stats:
            _print_stats(recorder)
        if profile_events is not None:
            print("-- span profile --")
            print(obs.profile_spans(profile_events.events).render())
        return code
    except CostRefused as exc:
        print(f"cost refused: {exc}", file=sys.stderr)
        return EXIT_COST_REFUSED
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET_EXCEEDED
    except FallbackExhausted as exc:
        print(f"fallback exhausted: {exc}", file=sys.stderr)
        return EXIT_FALLBACK_EXHAUSTED
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if recorder is not None:
            obs.set_recorder(previous)
            recorder.close()


if __name__ == "__main__":
    raise SystemExit(main())
