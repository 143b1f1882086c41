"""repro.obs — zero-dependency instrumentation for the reliability engines.

The engines (exact world enumeration, the grounded-DNF ROBDD,
Karp–Luby, Monte-Carlo baselines, lifted inference) report what they do
through this module: named counters and gauges, span timers, and
structured per-batch events that make estimator convergence plottable.

Design:

* One module-level *active recorder*.  The default is a
  :class:`NullRecorder` whose methods are all no-ops, so instrumented
  code costs roughly one function call per site when observability is
  off (perfbench's ``obs.tracing_overhead_share`` measures tracing's
  cost end to end).
* Engines call the module-level helpers (:func:`inc`, :func:`gauge`,
  :func:`observe`, :func:`event`, :func:`span`) which delegate to the
  active recorder.  They never hold a recorder reference, so recorder
  swaps take effect immediately.
* Consumers install a :class:`StatsRecorder` — directly, via the
  :func:`use` context manager, or via the CLI's ``--stats`` /
  ``--trace FILE`` flags — and read :func:`summary` or the JSONL trace.

Typical library use::

    from repro import obs

    recorder = obs.StatsRecorder(sink=obs.JsonlSink("trace.jsonl"))
    with obs.use(recorder):
        reliability(db, query)
    print(recorder.summary()["counters"])
    recorder.close()

Metric names and the trace event schema are documented in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Union

from repro.obs.profile import (
    PhaseStats,
    SpanProfile,
    TeeSink,
    profile_spans,
    profile_trace,
)
from repro.obs.recorder import NullRecorder, StatsRecorder
from repro.obs.registry import Counter, Gauge, Histogram, Registry
from repro.obs.sink import JsonlSink, ListSink, read_jsonl

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "NullRecorder",
    "StatsRecorder",
    "JsonlSink",
    "ListSink",
    "TeeSink",
    "PhaseStats",
    "SpanProfile",
    "profile_spans",
    "profile_trace",
    "read_jsonl",
    "NULL",
    "get_recorder",
    "set_recorder",
    "use",
    "recording",
    "enabled",
    "inc",
    "gauge",
    "observe",
    "event",
    "span",
    "summary",
]

NULL = NullRecorder()
_active = NULL


def get_recorder():
    """The currently active recorder (the NullRecorder by default)."""
    return _active


def set_recorder(recorder) -> object:
    """Install ``recorder`` as the active recorder; returns the previous one.

    Passing ``None`` restores the default :data:`NULL` recorder.
    """
    global _active
    previous = _active
    _active = recorder if recorder is not None else NULL
    return previous


@contextmanager
def use(recorder) -> Iterator[object]:
    """Scope-install a recorder: active inside the block, restored after."""
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)


@contextmanager
def recording(trace: Optional[str] = None) -> Iterator[StatsRecorder]:
    """Convenience: run a block under a fresh :class:`StatsRecorder`.

    ``trace`` names an optional JSONL file for span/event records.  The
    recorder (with its populated registry) is yielded; its sink is
    closed on exit::

        with obs.recording("run.jsonl") as recorder:
            reliability(db, query)
        print(recorder.summary())
    """
    sink = JsonlSink(trace) if trace is not None else None
    recorder = StatsRecorder(sink=sink)
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)
        recorder.close()


def enabled() -> bool:
    """True when the active recorder actually records.

    Engines use this to skip *preparing* per-batch trace payloads in hot
    loops; plain counter/span calls do not need the guard.
    """
    return _active.enabled


def inc(name: str, amount=1) -> None:
    """Increment the named counter on the active recorder."""
    _active.inc(name, amount)


def gauge(name: str, value) -> None:
    """Set the named gauge on the active recorder."""
    _active.gauge(name, value)


def observe(name: str, value) -> None:
    """Record one observation into the named histogram."""
    _active.observe(name, value)


def event(name: str, **fields) -> None:
    """Emit a structured point event (JSONL record when tracing)."""
    _active.event(name, **fields)


def span(name: str, **attrs):
    """A context manager timing a block as a (nestable) named span."""
    return _active.span(name, **attrs)


def summary(prefix: str = "") -> Dict[str, Dict]:
    """Snapshot of the active recorder's registry (``{}`` when off).

    ``prefix`` restricts every section (counters, gauges, histograms)
    to metric names starting with it — e.g. ``summary("serve.")`` for
    the serving dashboard.
    """
    snapshot = _active.summary()
    if not prefix:
        return snapshot
    return {
        section: {
            name: value
            for name, value in metrics.items()
            if name.startswith(prefix)
        }
        for section, metrics in snapshot.items()
    }
