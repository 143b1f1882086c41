"""Concurrency regression tests for the instrumentation layer.

Serve pool workers run engines on several threads at once, and each
emits counters, histogram observations and spans into one shared
:class:`StatsRecorder`.  A
bare ``value += amount`` is not atomic in CPython — the interpreter
can switch threads between the load and the store — so an unlocked
registry loses increments under contention.  These tests hammer every
update path from many threads with an aggressive switch interval and
assert nothing is lost.
"""

import sys
import threading

import pytest

from repro import obs
from repro.obs.recorder import StatsRecorder
from repro.obs.registry import Registry
from repro.obs.sink import ListSink

THREADS = 8
PER_THREAD = 20_000


@pytest.fixture
def aggressive_switching():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def _run_threads(worker, count=THREADS):
    threads = [threading.Thread(target=worker) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestCounterConcurrency:
    def test_no_lost_increments_through_recorder(self, aggressive_switching):
        """The serve-pool emission shape: many threads, one counter name."""
        recorder = StatsRecorder()

        def worker():
            for _ in range(PER_THREAD):
                recorder.inc("worker.launched")

        _run_threads(worker)
        counters = recorder.summary()["counters"]
        assert counters["worker.launched"] == THREADS * PER_THREAD

    def test_no_lost_increments_direct(self, aggressive_switching):
        registry = Registry()
        counter = registry.counter("c")

        def worker():
            for _ in range(PER_THREAD):
                counter.inc()

        _run_threads(worker)
        assert counter.value == THREADS * PER_THREAD

    def test_weighted_increments(self, aggressive_switching):
        recorder = StatsRecorder()

        def worker():
            for _ in range(PER_THREAD // 4):
                recorder.inc("weighted", 3)

        _run_threads(worker)
        expected = THREADS * (PER_THREAD // 4) * 3
        assert recorder.summary()["counters"]["weighted"] == expected


class TestHistogramConcurrency:
    def test_no_lost_observations(self, aggressive_switching):
        recorder = StatsRecorder()

        def worker():
            for _ in range(PER_THREAD // 4):
                recorder.observe("worker.wasted_seconds", 1.0)

        _run_threads(worker)
        stats = recorder.summary()["histograms"][
            "worker.wasted_seconds"
        ]
        expected = THREADS * (PER_THREAD // 4)
        assert stats["count"] == expected
        assert stats["total"] == pytest.approx(float(expected))
        assert stats["min"] == 1.0
        assert stats["max"] == 1.0


class TestInstrumentCreationRace:
    def test_concurrent_creation_yields_one_instrument(
        self, aggressive_switching
    ):
        """All threads racing to create the same names must converge on
        one shared instrument per name (no increments split across
        orphaned twins)."""
        registry = Registry()
        names = [f"metric.{i}" for i in range(32)]
        barrier = threading.Barrier(THREADS)

        def worker():
            barrier.wait()
            for name in names:
                registry.counter(name).inc()

        _run_threads(worker)
        for name in names:
            assert registry.counter(name).value == THREADS

    def test_snapshot_during_concurrent_creation(self, aggressive_switching):
        """snapshot() must not blow up while instruments appear."""
        recorder = StatsRecorder()
        stop = threading.Event()

        def creator():
            index = 0
            while not stop.is_set():
                recorder.inc(f"churn.{index % 64}")
                index += 1

        threads = [threading.Thread(target=creator) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(200):
                snapshot = recorder.summary()
                assert isinstance(snapshot["counters"], dict)
        finally:
            stop.set()
            for thread in threads:
                thread.join()


class TestSpanConcurrency:
    def test_spans_from_many_threads(self, aggressive_switching):
        """Per-thread span depth: every span closes, none crash, and the
        duration histogram sees every occurrence."""
        recorder = StatsRecorder(sink=ListSink())
        spans_per_thread = 2_000

        def worker():
            for _ in range(spans_per_thread):
                with recorder.span("worker.attempt"):
                    with recorder.span("worker.inner"):
                        pass

        _run_threads(worker)
        histograms = recorder.summary()["histograms"]
        expected = THREADS * spans_per_thread
        assert histograms["worker.attempt.seconds"]["count"] == expected
        assert histograms["worker.inner.seconds"]["count"] == expected
        # The main thread's depth is untouched by worker-thread spans.
        assert recorder._span_depth == 0

    def test_module_level_emission_under_use(self, aggressive_switching):
        """The call shape serve workers use: obs.inc via the module-level
        helpers with a recorder installed."""
        recorder = StatsRecorder()
        with obs.use(recorder):

            def worker():
                for _ in range(PER_THREAD // 4):
                    obs.inc("worker.cancelled")
                    with obs.span("worker.lane"):
                        pass

            _run_threads(worker)
        expected = THREADS * (PER_THREAD // 4)
        counters = recorder.summary()["counters"]
        assert counters["worker.cancelled"] == expected
