"""Recorders: the write side of the instrumentation layer.

Two implementations share one duck-typed surface (``inc`` / ``gauge`` /
``observe`` / ``event`` / ``span`` / ``summary``):

* :class:`NullRecorder` — the default.  Every method is a no-op and
  ``span`` returns one shared reusable context manager, so instrumented
  code pays one attribute lookup and one call per site when
  observability is off.
* :class:`StatsRecorder` — aggregates into a :class:`Registry` and,
  when constructed with a sink, emits structured trace events
  (JSON-lines through :class:`repro.obs.sink.JsonlSink`).

Span events are emitted at *exit* (they carry the duration), so in a
trace the innermost span appears before its parent; the ``depth`` field
reconstructs the nesting.  Timestamps are seconds relative to recorder
creation, from a monotonic clock.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Optional

from repro.obs.registry import Registry


class _NullSpan:
    """A reusable, re-entrant no-op context manager."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The do-nothing recorder installed by default."""

    enabled = False

    def inc(self, name: str, amount=1) -> None:
        pass

    def gauge(self, name: str, value) -> None:
        pass

    def observe(self, name: str, value) -> None:
        pass

    def event(self, name: str, **fields) -> None:
        pass

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def summary(self) -> Dict[str, Dict]:
        return {}

    def close(self) -> None:
        pass


class _Span:
    """A live span: times a block and reports to its recorder on exit.

    Exited spans return to a per-recorder free list and are reused by
    the next ``span()`` call — hot loops open thousands of spans and
    the allocation per block is measurable.  The only constraint this
    puts on callers is the natural one: use a span as a ``with`` block
    and do not re-enter it after exit (the object may since have been
    handed out again).
    """

    __slots__ = ("recorder", "name", "attrs", "start", "depth")

    def __init__(self, recorder: "StatsRecorder", name: str, attrs: dict):
        self.recorder = recorder
        self.name = name
        self.attrs = attrs
        self.start = 0.0
        self.depth = 0

    def __enter__(self) -> "_Span":
        recorder = self.recorder
        state = recorder._span_state
        self.depth = getattr(state, "depth", 0)
        state.depth = self.depth + 1
        self.start = recorder._clock()
        return self

    def __exit__(self, *exc_info) -> bool:
        recorder = self.recorder
        end = recorder._clock()
        recorder._span_state.depth = self.depth
        recorder._finish_span(self, end - self.start, end)
        recorder._span_pool.append(self)
        return False


class StatsRecorder:
    """Aggregate metrics into a registry; optionally trace to a sink.

    ``clock`` is injectable for deterministic tests; it must be a
    zero-argument callable returning monotonically nondecreasing seconds.

    The recorder is safe to share across threads (serve pool workers
    emit from their own threads): counter and histogram updates go
    through the registry's locked instruments, and span nesting depth
    is tracked per thread, so each thread's span tree is internally
    consistent.  The span free list is shared — ``list.append``/``pop``
    are atomic under the GIL, with a guard for the pop-from-emptied
    race.
    """

    enabled = True

    def __init__(self, sink=None, clock: Callable[[], float] = time.perf_counter):
        self.registry = Registry()
        self.sink = sink
        self._clock = clock
        self._epoch = clock()
        self._span_state = threading.local()
        self._span_pool: list = []
        # Span-duration histograms, memoised per span name: hot loops
        # close thousands of spans and the f-string + registry lookup
        # per close is measurable (perfbench's
        # ``obs.tracing_overhead_share``).
        self._span_seconds: Dict[str, Any] = {}
        # Sink capabilities, resolved once: ``emit_span`` is the
        # dict-free span fast path, ``flush`` the buffered-sink drain.
        self._emit_span = getattr(sink, "emit_span", None)
        self._sink_flush = getattr(sink, "flush", None)

    # -- aggregation ---------------------------------------------------- #

    @property
    def _span_depth(self) -> int:
        """The calling thread's current span nesting depth."""
        return getattr(self._span_state, "depth", 0)

    def inc(self, name: str, amount=1) -> None:
        counter = self.registry.counters.get(name)
        if counter is None:
            counter = self.registry.counter(name)
        counter.inc(amount)

    def gauge(self, name: str, value) -> None:
        self.registry.gauge(name).set(value)

    def observe(self, name: str, value) -> None:
        histogram = self.registry.histograms.get(name)
        if histogram is None:
            histogram = self.registry.histogram(name)
        histogram.observe(value)

    # -- tracing -------------------------------------------------------- #

    def _timestamp(self) -> float:
        return self._clock() - self._epoch

    def event(self, name: str, **fields) -> None:
        """A point event; with a sink it becomes one JSONL record."""
        self.registry.counter(f"{name}.events").inc()
        if self.sink is not None:
            self.sink.emit(
                {
                    "ts": round(self._timestamp(), 9),
                    "type": "event",
                    "name": name,
                    "fields": fields,
                }
            )

    def span(self, name: str, **attrs) -> _Span:
        try:
            # pop() is atomic; the except covers two threads draining
            # the last pooled span at once.
            span = self._span_pool.pop()
        except IndexError:
            return _Span(self, name, attrs)
        span.name = name
        span.attrs = attrs
        return span

    def _finish_span(self, span: _Span, duration: float, end: float) -> None:
        histogram = self._span_seconds.get(span.name)
        if histogram is None:
            histogram = self.registry.histogram(f"{span.name}.seconds")
            self._span_seconds[span.name] = histogram
        histogram.observe(duration)
        if self.sink is not None:
            emit_span = self._emit_span
            if emit_span is not None:
                emit_span(end - self._epoch, span.name, duration,
                          span.depth, span.attrs)
            else:
                record: Dict[str, Any] = {
                    "ts": round(end - self._epoch, 9),
                    "type": "span",
                    "name": span.name,
                    "dur_s": round(duration, 9),
                    "depth": span.depth,
                }
                if span.attrs:
                    record["attrs"] = span.attrs
                self.sink.emit(record)
            if span.depth == 0:
                # A top-level span closing means one engine call is
                # complete; push buffered trace records to disk so the
                # file is readable between calls (buffered sinks only).
                flush = self._sink_flush
                if flush is not None:
                    flush()

    # -- lifecycle ------------------------------------------------------ #

    def summary(self) -> Dict[str, Dict]:
        return self.registry.snapshot()

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()
