"""Named metric instruments: counters, gauges, and histograms.

A :class:`Registry` is a flat namespace of instruments, created on
demand by name.  Instruments are small plain Python objects with no
label sets and no export protocol; the consumers are the ``--stats``
CLI table, :func:`repro.obs.summary` and the benchmark harness, all of
which read a :meth:`Registry.snapshot` dict.

**Thread safety.**  Serve pool workers run engines on several threads
at once, all emitting into one registry, so updates must not lose
increments.  Each counter and histogram
carries its own lock (``value += amount`` is *not* atomic in CPython —
the interpreter can switch threads between the load and the store), and
the registry guards instrument creation with a registry-level lock.
Gauges are last-value-wins single stores, which are atomic under the
GIL, so they stay lock-free.  The uncontended-lock cost is a few tens
of nanoseconds per update — negligible next to the f-string and dict
lookups already on the path (perfbench's ``obs.tracing_overhead_share``
tracks the whole cost of tracing).

Naming convention (documented in ``docs/OBSERVABILITY.md``): dotted
lower-case paths rooted at the engine, e.g. ``exact.worlds_enumerated``,
``grounding.clauses_kept``, ``karp_luby.samples``.  Span timings land in
histograms named ``<span name>.seconds``.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Union

Number = Union[int, float]


class Counter:
    """A monotonically increasing integer-or-float total.

    ``inc`` is thread-safe: concurrent increments from serve pool
    worker threads are serialised by a per-counter lock.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value: Number = 0
        self._lock = threading.Lock()

    def inc(self, amount: Number = 1) -> Number:
        with self._lock:
            self.value += amount
            return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A last-value-wins measurement (e.g. cover weight, formula size).

    A set is a single attribute store — atomic under the GIL — so the
    gauge needs no lock; concurrent writers race benignly to
    last-value-wins, which is the instrument's semantics anyway.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Optional[Number] = None

    def set(self, value: Number) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """Streaming summary of observed values: count/total/min/max/mean.

    No buckets — the trace sink carries the raw sequence when a caller
    needs a distribution; the histogram is for cheap summaries.
    ``observe`` is thread-safe (one lock per histogram) so the
    count/total/min/max quadruple stays mutually consistent under
    concurrent emission.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: Number) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def summary(self) -> Dict[str, Optional[float]]:
        with self._lock:
            count = self.count
            total = self.total
            low = self.min
            high = self.max
        return {
            "count": count,
            "total": total,
            "min": low,
            "max": high,
            "mean": total / count if count else None,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count})"


class Registry:
    """A namespace of instruments, created on first use.

    A name may hold at most one kind of instrument; asking for the same
    name as a different kind raises ``ValueError`` (catching typos like
    counting into a gauge).

    Creation is guarded by a registry-level lock with a lock-free fast
    path for the common already-exists case, so two threads asking for
    the same new name get the same instrument object.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def _check_free(self, name: str, kind: Dict) -> None:
        for family in (self.counters, self.gauges, self.histograms):
            if family is not kind and name in family:
                raise ValueError(
                    f"instrument name {name!r} already used with a "
                    "different kind"
                )

    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self.counters.get(name)
                if instrument is None:
                    self._check_free(name, self.counters)
                    instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self.gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self.gauges.get(name)
                if instrument is None:
                    self._check_free(name, self.gauges)
                    instrument = self.gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self.histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self.histograms.get(name)
                if instrument is None:
                    self._check_free(name, self.histograms)
                    instrument = self.histograms[name] = Histogram(name)
        return instrument

    def snapshot(self) -> Dict[str, Dict]:
        """A plain-dict view of every instrument, for printing or JSON.

        Instrument dicts are copied under the registry lock so the
        iteration cannot race concurrent creation; the per-instrument
        reads then go through each instrument's own synchronisation.
        """
        with self._lock:
            counters = sorted(self.counters.items())
            gauges = sorted(self.gauges.items())
            histograms = sorted(self.histograms.items())
        return {
            "counters": {name: counter.value for name, counter in counters},
            "gauges": {name: gauge.value for name, gauge in gauges},
            "histograms": {
                name: histogram.summary() for name, histogram in histograms
            },
        }

    def reset(self) -> None:
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()
