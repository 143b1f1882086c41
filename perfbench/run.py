"""End-to-end benchmark of the query-reliability system: one workload per run.

Run from the root of a checkout (the program is imported from ``src``)::

    python3 perfbench/run.py --workload oneshot-cold --seed 1 --seconds 15 --trace 0

Workloads (see ``perfbench/NOTES.md``): ``oneshot-cold`` (``repro run``
with every compile cold), ``serve-hot`` (one ``Server``, hot queries,
open then closed loop) and ``update-stream`` (``DeltaSession`` writes and
reads); ``all`` runs the three one after the other, each in its own
process.  ``--trace 0`` measures the end-to-end metrics with tracing
off; ``--trace 1`` makes the traced run and reports the per-layer
metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it record the environment, the answer fingerprint, the raw wall-clock
values and, for traced runs, the per-layer table.  The exit code is 0
whenever a result is printed, 2 when the program sources are missing,
and non-zero without a result on any other error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import layers
import speed

WORKLOADS = ("oneshot-cold", "serve-hot", "update-stream")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="one workload, or all of them one after "
                        "the other, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program(root: str) -> str:
    """Put the checkout's ``src`` first on the path and import the CLI.

    Raises ``ImportError`` unless ``repro`` comes from this checkout.
    """
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise ImportError(f"no program sources at {src}")
    sys.path.insert(0, src)
    import repro
    import repro.cli  # noqa: F401  (imported before any timing)

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, not {src}")
    return src


def _environment(args) -> dict:
    """Pin and record the environment the run measured in."""
    from repro import obs
    from repro.kernels import cache_persist
    from repro.runtime import costmodel

    if os.environ.get("REPRO_CACHE_DIR") or cache_persist.active() is not None:
        raise RuntimeError("persistent compilation cache is active")
    if costmodel.active_model() is not None:
        raise RuntimeError("a calibrated cost model is installed")
    if not isinstance(obs.get_recorder(), obs.NullRecorder):
        raise RuntimeError("a recorder is active for the timed run")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "REPRO_CACHE_DIR": None,
        "calibration": None,
        "recorder": "NullRecorder",
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fingerprint(workload) -> str:
    """Digest of the seeded answers: equal seeds must give equal digests."""
    return hashlib.sha256(repr(workload.answers()).encode()).hexdigest()[:16]


def throughput(outcome) -> float:
    """Closed-loop operations per second (median segment when split)."""
    if outcome.segment_rates:
        return statistics.median(outcome.segment_rates)
    return outcome.closed_ops / outcome.closed_seconds


def end_to_end(workload, outcome, scaled: bool = True) -> dict:
    """The end-to-end metrics, times on the reference speed scale.

    ``scaled=False`` gives the raw wall-clock values instead.
    """
    latencies = outcome.latencies_ms
    run = speed.scale(outcome.probes,
                      workload.run_exponent if scaled else 0.0)
    setup = speed.scale(workload.setup_probes,
                        workload.setup_exponent if scaled else 0.0)
    return {
        "setup_s": (statistics.median(workload.setup_times) * setup, "s"),
        "latency_p50_ms": (statistics.median(latencies) * run, "ms"),
        "latency_p90_ms": (layers.decile(latencies, 9) * run, "ms"),
        "throughput_ops_s": (throughput(outcome) / run, "1/s"),
        "slo_met_share": (sum(
            ms * run <= workload.slo_ms for ms in outcome.correct_ms
        ) / len(latencies), "share"),
        "exact_share": (outcome.exact / len(latencies), "share"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def traced(workload, seconds: float):
    """Alternate untraced and traced units for ``seconds`` (two of each
    at least).

    Returns ``(metrics, outcomes, report lines, errors)``.
    """
    from repro import obs

    untraced_walls, traced_walls, passes, outcomes = [], [], [], []
    started = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - started < seconds:
        plain = workload.unit()
        outcomes.append(plain)
        untraced_walls.append(plain.closed_seconds)
        tracer = layers.Tracer()
        with layers.installed(tracer), obs.recording() as recorder:
            outcome = workload.unit()
        outcomes.append(outcome)
        traced_walls.append(outcome.closed_seconds)
        analysis = layers.PassAnalysis(
            tracer, recorder.summary()["counters"])
        requests = outcome.attempted if workload.queries else 0
        passes.append((analysis, outcome, layers.layer_metrics(
            analysis, outcome.attempted, requests,
            workload.layer_extra(outcome, analysis))))
    metrics = {}
    for key in passes[0][2]:
        values = [p[2][key] for p in passes]
        metrics[key] = statistics.median(values)
    metrics["obs.tracing_overhead_share"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls)
        - 1.0)
    errors = []
    if workload.name != "serve-hot":
        counts = [p[0].counters for p in passes]
        if any(c != counts[0] for c in counts[1:]):
            errors.append("obs counters differ between identical traced "
                          "passes")
    analysis, outcome, _ = passes[len(passes) // 2]
    lines = [f"# per-layer self time, traced pass of {outcome.attempted} "
             f"operations ({len(passes)} traced passes)"]
    lines += ["# " + line for line in layers.layer_table(
        analysis, outcome.attempted)]
    lines.append("# boundaries not reached from outside the program:")
    lines += [f"#   {text}" for text in layers.UNREACHED]
    lines += _observability_drift(workload)
    return metrics, outcomes, lines, errors


def _observability_drift(workload) -> list:
    """Report sampled answers that change when a recorder is on."""
    answers = getattr(workload, "first_answer", {})
    lines = []
    for (name, recording), answer in sorted(answers.items()):
        plain = answers.get((name, False))
        if recording and plain is not None and plain != answer:
            lines.append(f"# note: {name} answers {plain[0]} untraced but "
                         f"{answer[0]} with obs recording on (same seed)")
    return lines


def _join_threads(timeout: float = 30.0) -> None:
    """Wait for every thread this run started (serve pool workers)."""
    for thread in threading.enumerate():
        if thread is not threading.main_thread():
            thread.join(timeout)


def run_all(args) -> int:
    """Every workload in its own process, then one summary line."""
    results = {}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            return child.returncode
        lines = child.stdout.splitlines()
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]))
        results[name] = json.loads(lines[-1])
        for metric, value in results[name]["metrics"].items():
            print(f"[{name}] {metric:36s} {value['value']:14.6g} "
                  f"{value['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{metric}": value
                    for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    root = os.getcwd()
    try:
        src = _import_program(root)
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    os.environ.pop("REPRO_CACHE_DIR", None)
    import workloads

    classes = {cls.name: cls for cls in (
        workloads.OneshotCold, workloads.ServeHot, workloads.UpdateStream)}
    environment = _environment(args)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        workload = classes[args.workload](args.seed, workdir, src)
        workload.setup()
        if args.trace:
            metrics, outcomes, report, errors = traced(workload, args.seconds)
            units = {key: "ms" if key.endswith("_ms") else (
                "1/s" if key.endswith("_per_s") else (
                    "share" if key.endswith(("_share", "_ratio"))
                    else "count")) for key in metrics}
            metrics = {key: (value, units[key])
                       for key, value in metrics.items()}
        else:
            outcome = workload.measure(args.seconds)
            outcomes = [outcome]
            errors = []
            metrics = end_to_end(workload, outcome)
            raw = end_to_end(workload, outcome, scaled=False)
            report = [
                "# raw wall-clock values: " + json.dumps(
                    {k: v for k, (v, _u) in raw.items()}),
                f"# speed probe medians (reference {speed.REFERENCE_S} s): "
                f"setup {statistics.median(workload.setup_probes):.6f} s "
                f"(exponent {workload.setup_exponent}), run "
                f"{statistics.median(outcome.probes):.6f} s "
                f"(exponent {workload.run_exponent})",
                "# engine mix: " + json.dumps(outcome.engine_mix,
                                              sort_keys=True),
                f"# operations: {outcome.attempted}, closed loop "
                f"{outcome.closed_ops} in {outcome.closed_seconds:.3f} s",
            ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _join_threads()
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for outcome in outcomes:
        errors += outcome.errors
    environment["fingerprint"] = _fingerprint(workload)
    environment["setup_s_samples"] = workload.setup_times
    print("# environment: " + json.dumps(environment, sort_keys=True))
    for line in report:
        print(line)
    for error in errors:
        print(f"FAILED: {error}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
