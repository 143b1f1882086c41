"""The traced run: per-layer self time and counts, measured from outside.

Spans come from wrappers this module installs around module attributes
that callers look up at call time — the same mechanism
:func:`repro.runtime.faults.inject` uses on ``executor.ENGINES``.  The
program itself is not edited: spans stop at the boundaries listed in
:data:`UNREACHED`, and time below them is the enclosing span's self
time.  Counts come from the program's own ``repro.obs`` counters,
captured with ``obs.recording()`` during traced passes only.

A traced run alternates untraced and traced passes of one fixed-size
unit of the workload (:meth:`unit`), so the traced counts repeat exactly
from run to run and the wall-time ratio of the two gives the tracing
overhead.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

#: ``(module, attribute, span name)``: the wrapped layer boundaries.
PATCHES = (
    ("repro.cli", "main", "cli.main"),
    ("repro.cli", "decode_unreliable_database", "relational.decode"),
    ("repro.cli", "run_with_fallback", "runtime.run"),
    ("repro.runtime.executor", "run_with_fallback", "runtime.run"),
    ("repro.logic.evaluator", "parse", "logic.parse"),
    ("repro.logic.safety", "classify_dichotomy", "logic.classify"),
    ("repro.serve.admission", "assess", "runtime.admit"),
    ("repro.runtime.costmodel", "plan_chain", "runtime.plan"),
    ("repro.reliability.approx", "ground_existential_to_dnf",
     "reliability.ground"),
    ("repro.reliability.exact", "ground_existential_to_dnf",
     "reliability.ground"),
    ("repro.reliability.approx", "karp_luby", "propositional.karp_luby"),
    ("repro.reliability.exact", "probability_exact", "propositional.count"),
    ("repro.propositional.karp_luby", "compile_dnf_plan", "kernels.compile"),
    ("repro.propositional.karp_luby", "sample_kl_batches", "kernels.sample"),
    ("repro.delta.session", "compile_dnf", "propositional.bdd"),
    ("repro.delta.session.DeltaSession", "__init__", "delta.build"),
    ("repro.delta.session.DeltaSession", "set_mu", "delta.update"),
    ("repro.delta.session.DeltaSession", "insert", "delta.update"),
    ("repro.delta.session.DeltaSession", "delete", "delta.update"),
    ("repro.delta.session.DeltaSession", "probability", "delta.read"),
    ("repro.delta.reground.DeltaGrounding", "reground", "delta.reground"),
)

#: Engines wrapped in ``executor.ENGINES`` as ``engine.<name>`` spans.
ENGINES = ("safe_lifted", "exact", "lifted", "karp_luby", "montecarlo")

#: Layer boundaries no wrapper reaches: their time is the enclosing
#: span's self time until the program records spans of its own.
UNREACHED = (
    "cli: argparse and answer rendering inside cli.main",
    "serve: the Server scheduling loop (queueing, fair-share picks, thread "
    "spawns, breaker and retry bookkeeping)",
    "reliability: the lifted plan, per-tuple loops of k-ary reliability "
    "and Monte-Carlo world sampling (called by names bound at import)",
    "propositional: DNF construction and folding inside grounding",
    "kernels: compilation-cache lookups and plans compiled outside "
    "karp_luby (truth and Hamming plans)",
    "delta: dirty-node re-evaluation (bound methods called from inside "
    "DeltaSession)",
)


def layer_of(span: str) -> str:
    head = span.split(".", 1)[0]
    return "reliability" if head == "engine" else head


class Tracer:
    """Spans in memory: ``[name, start, end, thread, parent index]``."""

    def __init__(self):
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def open(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = [name, time.perf_counter(), None, threading.get_ident(),
                  stack[-1] if stack else None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._local.stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced


def _resolve(path: str):
    """A module, or a class inside one, from a dotted path."""
    try:
        return importlib.import_module(path)
    except ImportError:
        module, _, attribute = path.rpartition(".")
        return getattr(importlib.import_module(module), attribute)


#: The tracer of the active traced pass, or ``None``.  The workloads
#: open their root spans through :func:`root`.
ACTIVE: Optional[Tracer] = None


@contextmanager
def root(name: str):
    """A root span around one operation (no-op when not tracing)."""
    if ACTIVE is None:
        yield
    else:
        with ACTIVE.span(name):
            yield


@contextmanager
def installed(tracer: Tracer):
    """Wrap every boundary in :data:`PATCHES` for the block."""
    global ACTIVE
    from repro.runtime import executor

    restore = []
    try:
        for path, attribute, name in PATCHES:
            owner = _resolve(path)
            original = owner.__dict__[attribute]
            restore.append((owner, attribute, original))
            setattr(owner, attribute, tracer.wrap(name, original))
        for engine in ENGINES:
            original = executor.ENGINES[engine]
            restore.append((executor.ENGINES, engine, original))
            executor.ENGINES[engine] = tracer.wrap(f"engine.{engine}",
                                                   original)
        ACTIVE = tracer
        yield tracer
    finally:
        ACTIVE = None
        for owner, attribute, original in reversed(restore):
            if isinstance(owner, dict):
                owner[attribute] = original
            else:
                setattr(owner, attribute, original)


# ---------------------------------------------------------------------- #
# Analysis of one traced pass
# ---------------------------------------------------------------------- #


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


class PassAnalysis:
    """Span and counter arithmetic for one traced pass."""

    def __init__(self, tracer: Tracer, counters: Dict[str, float]):
        self.spans = tracer.spans
        self.counters = counters
        children: Dict[int, float] = {}
        for name, start, end, _tid, parent in self.spans:
            if parent is not None:
                children[parent] = children.get(parent, 0.0) + end - start
        self.self_time: Dict[str, float] = {}
        self.inclusive: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        for index, (name, start, end, _tid, parent) in enumerate(self.spans):
            duration = end - start
            own = duration - children.get(index, 0.0)
            self.self_time[name] = self.self_time.get(name, 0.0) + own
            self.calls[name] = self.calls.get(name, 0) + 1
            # Inclusive time counts outermost spans of a name only.
            if parent is None or self.spans[parent][0] != name:
                self.inclusive[name] = (
                    self.inclusive.get(name, 0.0) + duration)

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0)

    def durations(self, name: str) -> List[float]:
        return [end - start for n, start, end, _t, _p in self.spans
                if n == name]

    def layer_self(self) -> Dict[str, float]:
        layers: Dict[str, float] = {}
        for name, seconds in self.self_time.items():
            layer = layer_of(name)
            layers[layer] = layers.get(layer, 0.0) + seconds
        return layers

    def unattributed_share(self) -> float:
        """Share of root-span time that no layer span covers.

        A root span's children are the spans it opened on its own
        thread plus the top-level spans of other threads (the serve
        worker pool) inside its interval.
        """
        roots = [i for i, s in enumerate(self.spans) if s[0].startswith("bench.")]
        total = 0.0
        uncovered = 0.0
        for index in roots:
            _name, start, end, tid, _parent = self.spans[index]
            covered = [
                (s[1], s[2]) for s in self.spans
                if s[4] == index
                or (s[4] is None and s[3] != tid
                    and s[1] >= start and s[2] <= end)
            ]
            total += end - start
            uncovered += end - start - _union_length(covered)
        return uncovered / total if total else 0.0


def decile(values: List[float], q: int) -> float:
    """The q-th decile (q=5 the median) of ``values``, 0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10)[q - 1]


def layer_metrics(analysis: PassAnalysis, ops: int,
                  requests: int, extra: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of one traced pass.

    Times are milliseconds per operation of the pass; counts are totals
    over the pass.  ``requests`` is the number of query requests (zero
    on ``update-stream``); ``extra`` holds workload-specific values.
    """
    a = analysis
    per_op = 1000.0 / ops
    m: Dict[str, float] = {}
    m["cli.run_ms"] = a.self_time.get("cli.main", 0.0) * per_op
    m["relational.decode_ms"] = a.inclusive.get("relational.decode", 0.0) * per_op
    m["logic.parse_ms"] = a.inclusive.get("logic.parse", 0.0) * per_op
    m["logic.classify_ms"] = a.inclusive.get("logic.classify", 0.0) * per_op
    m["runtime.self_ms"] = a.self_time.get("runtime.run", 0.0) * per_op
    # Planner time: admission (which contains plan_chain) plus any
    # plan_chain call made outside admission.
    plan = a.inclusive.get("runtime.admit", 0.0) + sum(
        s[2] - s[1] for s in a.spans
        if s[0] == "runtime.plan"
        and (s[4] is None or a.spans[s[4]][0] != "runtime.admit"))
    m["runtime.plan_ms"] = plan * per_op
    attempts = a.counter("runtime.attempts")
    m["runtime.attempts_per_req"] = attempts / requests if requests else 0.0
    m["runtime.cost_refused_per_req"] = (
        a.counter("runtime.cost_refused") / requests if requests else 0.0)
    m["runtime.useful_attempt_ratio"] = (
        a.counter("runtime.completed") / attempts if attempts else 0.0)
    for engine in ("safe_lifted", "exact", "karp_luby", "montecarlo"):
        name = f"engine.{engine}"
        m[f"{name}.busy_ms"] = a.inclusive.get(name, 0.0) * per_op
        m[f"{name}.calls"] = a.calls.get(name, 0)
    m["grounding.clauses_kept"] = a.counter("grounding.clauses_kept")
    hits = a.counter("kernels.cache.hits")
    misses = a.counter("kernels.cache.misses")
    m["kernels.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["kernels.cache.misses"] = misses
    sampling = (a.inclusive.get("engine.karp_luby", 0.0)
                + a.inclusive.get("engine.montecarlo", 0.0))
    samples = a.counter("karp_luby.samples") + a.counter("montecarlo.samples")
    m["kernels.samples_per_s"] = samples / sampling if sampling else 0.0
    m["reliability.ground_ms"] = a.inclusive.get("reliability.ground", 0.0) * per_op
    layers = a.layer_self()
    for layer in ("propositional", "kernels", "delta"):
        m[f"{layer}.self_ms"] = layers.get(layer, 0.0) * per_op
    m["delta.build_ms"] = a.inclusive.get("delta.build", 0.0) * 1000.0
    m["delta.regrounds"] = a.counter("delta.regrounds")
    m["delta.recompiles"] = a.counter("delta.recompiles")
    m["trace.unattributed_share"] = a.unattributed_share()
    for key in ("serve.queue_wait_p50_ms", "serve.queue_wait_p90_ms",
                "serve.exec_p50_ms", "serve.degraded_share",
                "serve.shed_share", "bench.generator_lag_p90_ms",
                "delta.weight_update_ms", "delta.structural_update_ms",
                "delta.nodes_reevaluated_per_update"):
        m[key] = extra.get(key, 0.0)
    return m


def layer_table(analysis: PassAnalysis, ops: int) -> List[str]:
    """The per-layer self-time table of one traced pass, as text lines."""
    roots = sum(s[2] - s[1] for s in analysis.spans if s[0].startswith("bench."))
    layers = analysis.layer_self()
    layers.pop("bench", None)
    rows = sorted(layers.items(), key=lambda kv: -kv[1])
    rows.append(("(unattributed)", analysis.unattributed_share() * roots))
    total = sum(seconds for _layer, seconds in rows)
    lines = [f"{'layer':<16}{'self ms/op':>12}{'share':>9}"]
    for layer, seconds in rows:
        share = seconds / total if total else 0.0
        lines.append(f"{layer:<16}{seconds * 1000.0 / ops:>12.3f}{share:>9.1%}")
    return lines
