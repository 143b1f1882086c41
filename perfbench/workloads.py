"""The three benchmark workloads: set-up, timed loop and output checks.

Each workload is a class with

* ``setup()`` — builds the seeded inputs and the reference answers, and
  times the user-visible set-up several times (``setup_times``, with
  speed probes between the repeats in ``setup_probes``);
* ``measure(seconds)`` — the timed, untraced run; returns an
  :class:`Outcome`;
* ``unit()`` — one fixed-size pass used by the traced run, so counts in
  a traced pass repeat exactly from run to run;
* ``answers()`` — the seeded answers, digested into the run's
  fingerprint; ``layer_extra()`` — per-layer values the workload, not
  the spans, knows.

Every operation's answer is checked against a reference computed by a
different exact engine (see :mod:`inputs`); a wrong answer, a response
that is not ``ok`` or an engine other than the expected one counts as a
failed operation.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import inputs
import layers
import speed
from repro import kernels, obs
from repro.delta import DeltaSession
from repro.logic.evaluator import FOQuery
from repro.relational.encoding import (
    decode_unreliable_database,
    encode_unreliable_database,
)
from repro.reliability.exact import reliability, truth_probability
from repro.serve import DegradationLadder, Server, ServeRequest

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5


@dataclass
class Outcome:
    """What one timed run observed."""

    attempted: int = 0
    failed: int = 0
    #: Latency of every operation behind the percentiles,
    #: ``slo_met_share`` and ``exact_share``, in ms.
    latencies_ms: List[float] = field(default_factory=list)
    #: The same latencies, by request class or update kind.
    by_class: Dict[str, List[float]] = field(default_factory=dict)
    #: Of those, the latencies (ms) of the ones answered correctly.
    correct_ms: List[float] = field(default_factory=list)
    #: Of those, answered correctly with an exact guarantee.
    exact: int = 0
    #: Closed-loop operations and the wall time they took.
    closed_ops: int = 0
    closed_seconds: float = 0.0
    #: Closed-loop throughput of each segment, when the loop is split.
    segment_rates: List[float] = field(default_factory=list)
    #: Engine that answered, per request class.
    engine_mix: Dict[str, Dict[str, int]] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    #: Seconds of each speed probe taken between operations.
    probes: List[float] = field(default_factory=list)

    def timed(self, cls: str, latency_ms: float) -> None:
        self.attempted += 1
        self.latencies_ms.append(latency_ms)
        self.by_class.setdefault(cls, []).append(latency_ms)

    def record(self, cls: str, engine: str) -> None:
        mix = self.engine_mix.setdefault(cls, {})
        mix[engine] = mix.get(engine, 0) + 1

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def repeat_setup(workload, build):
    """Run ``build`` :data:`SETUP_REPEATS` times cold, timing each run.

    Fills ``workload.setup_times`` and ``workload.setup_probes``;
    returns the last build's result.
    """
    workload.setup_times = []
    workload.setup_probes = []
    result = None
    for _ in range(SETUP_REPEATS):
        kernels.clear_caches()
        gc.collect()
        speed.burst(workload.setup_probes)
        started = time.perf_counter()
        result = build()
        workload.setup_times.append(time.perf_counter() - started)
    speed.burst(workload.setup_probes)
    return result


def within_band(value: float, exact: Fraction, guarantee: str,
                epsilon: float, slack: float = 0.0) -> bool:
    """Whether a sampled answer lies inside its (epsilon, delta) band."""
    truth = float(exact)
    if guarantee == "relative":
        return abs(value - truth) <= epsilon * truth + slack
    return abs(value - truth) <= epsilon + slack


@dataclass(frozen=True)
class RequestClass:
    """One class of request, the engine the program must route it to,
    and the independent exact method that computes its reference."""

    name: str
    query: str
    quantity: str
    #: Accuracy of sampled answers (exact engines ignore it).
    epsilon: float
    engine: str
    guarantee: str
    #: ``method`` of the exact reference: ``worlds`` (Theorem 4.2
    #: enumeration), ``qf`` (P3.1) or ``dnf`` (Shannon expansion).
    reference_method: str
    free: Tuple[str, ...] = ()
    #: Which of the workload's databases it runs on.
    database: str = "large"

    def reference(self, db) -> Fraction:
        query = FOQuery(self.query, list(self.free) or None)
        if self.quantity == "probability":
            return truth_probability(db, query, method=self.reference_method)
        return reliability(db, query, method=self.reference_method)


DELTA = 0.05
H0 = "exists x y. R(x) & S(x, y) & T(y)"


# ---------------------------------------------------------------------- #
# oneshot-cold: repro run, in-process, every compile cold
# ---------------------------------------------------------------------- #

RUN_CLASSES = {
    c.name: c
    for c in (
        RequestClass("safe_cq", "exists x y. R(x) & S(x, y)",
                     "reliability", 0.05, "safe_lifted", "exact", "dnf"),
        # The request runs Shannon expansion; the reference enumerates.
        RequestClass("unsafe_small", H0, "reliability", 0.05,
                     "exact", "exact", "worlds", database="small"),
        RequestClass("existential_reliability", "exists y. S(x, y) & T(y)",
                     "reliability", 0.22, "karp_luby", "additive", "dnf",
                     free=("x",)),
        RequestClass("unsafe_large", H0, "probability", 0.075,
                     "karp_luby", "relative", "dnf"),
        RequestClass("qf_reliability", "S(x, y)", "reliability", 0.1,
                     "karp_luby", "additive", "qf", free=("x", "y")),
    )
}

#: One cycle of requests.  Shares: safe_cq 4, unsafe_small 3 (the fast
#: exact classes, ranks 0-35%), existential_reliability 6 (35-65%, holds
#: p50), unsafe_large 3 (65-80%), qf_reliability 4 (80-100%, holds p90).
RUN_CYCLE = (
    "safe_cq", "existential_reliability", "qf_reliability", "unsafe_small",
    "existential_reliability", "unsafe_large", "safe_cq",
    "existential_reliability", "qf_reliability", "unsafe_small",
    "safe_cq", "existential_reliability", "unsafe_large", "qf_reliability",
    "existential_reliability", "unsafe_small", "safe_cq",
    "existential_reliability", "unsafe_large", "qf_reliability",
)


_ANSWER = re.compile(
    r"^(?:reliability|probability) = (\S+) via (\S+) \[(\w+)\]", re.M
)


class OneshotCold:
    name = "oneshot-cold"
    #: Every operation is a query request (per-request runtime counts).
    queries = True
    #: Latency limit of ``slo_met_share``, reference-scale ms.
    slo_ms = 400.0
    #: Exponents of the reference speed scale (see speed.py and
    #: NOTES.md): set-up is child-process start, paced by the OS.
    run_exponent, setup_exponent = 0.75, 0.0

    def __init__(self, seed: int, workdir: str, src: str):
        self.seed = seed
        self.workdir = workdir
        self.src = src

    def setup(self) -> None:
        rng = random.Random(f"{self.seed}:oneshot-cold")
        databases = {
            "large": inputs.make_database(
                inputs.layout_of(inputs.ONESHOT_LARGE), rng),
            "small": inputs.make_database(
                inputs.layout_of(inputs.ONESHOT_SMALL), rng),
        }
        files = {}
        for key, db in databases.items():
            path = os.path.join(self.workdir, f"oneshot-{key}.txt")
            with open(path, "w") as handle:
                handle.write(encode_unreliable_database(db))
            files[key] = path
        self.argv = {}
        self.reference = {}
        for name, cls in RUN_CLASSES.items():
            argv = ["run", files[cls.database], cls.query]
            if cls.free:
                argv += ["--free", *cls.free]
            self.argv[name] = argv + [
                "--quantity", cls.quantity,
                "--epsilon", str(cls.epsilon), "--delta", str(DELTA),
                "--seed", str(rng.getrandbits(32))]
            self.reference[name] = cls.reference(databases[cls.database])
        self.first_answer: Dict[Tuple[str, bool], Tuple[str, str, str]] = {}
        repeat_setup(self, self._interpreter_start)

    def _interpreter_start(self) -> None:
        """Interpreter start plus ``import repro.cli`` in a child process."""
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src
        subprocess.run([sys.executable, "-c", "import repro.cli"],
                       env=env, check=True, cwd=self.workdir)

    def _request(self, outcome: Outcome, name: str) -> None:
        from repro import cli

        cls = RUN_CLASSES[name]
        kernels.clear_caches()
        captured = io.StringIO()
        with layers.root("bench.request"):
            started = time.perf_counter()
            with contextlib.redirect_stdout(captured):
                code = cli.main(self.argv[name])
            elapsed_ms = (time.perf_counter() - started) * 1000.0
        outcome.timed(name, elapsed_ms)
        match = _ANSWER.search(captured.getvalue())
        if code != 0 or match is None:
            outcome.fail(f"{name}: exit {code}: {captured.getvalue()!r}")
            return
        text, engine, guarantee = match.groups()
        outcome.record(name, engine)
        answer = (text, engine, guarantee)
        # Sampled answers are compared within one observability mode:
        # with a recorder on, the sampling kernels cap batch widths at
        # the trace stride, which draws a different (equally valid)
        # sample stream.
        first = self.first_answer.setdefault((name, obs.enabled()), answer)
        if answer != first:
            outcome.fail(f"{name}: answer drifted {first} -> {answer}")
            return
        if (engine, guarantee) != (cls.engine, cls.guarantee):
            outcome.fail(
                f"{name}: routed to {engine} [{guarantee}], expected "
                f"{cls.engine} [{cls.guarantee}]")
            return
        exact = self.reference[name]
        if guarantee == "exact":
            ok = text == f"{float(exact):.6f}"
        else:
            # The CLI prints six decimals: allow half a unit of rounding.
            ok = within_band(float(text), exact, guarantee, cls.epsilon,
                             slack=5e-7)
        if not ok:
            outcome.fail(f"{name}: {text} vs exact {float(exact):.9f}")
            return
        if guarantee == "exact":
            outcome.exact += 1
        outcome.correct_ms.append(elapsed_ms)

    def measure(self, seconds: float) -> Outcome:
        outcome = Outcome()
        gc.collect()
        started = time.perf_counter()
        while True:
            for name in RUN_CYCLE:
                self._request(outcome, name)
                outcome.probes.append(speed.probe())
            if time.perf_counter() - started >= seconds:
                break
        outcome.closed_seconds = (time.perf_counter() - started
                                  - sum(outcome.probes))
        outcome.closed_ops = outcome.attempted
        return outcome

    def unit(self) -> Outcome:
        """One cycle of requests."""
        outcome = Outcome()
        started = time.perf_counter()
        for name in RUN_CYCLE:
            self._request(outcome, name)
        outcome.closed_seconds = time.perf_counter() - started
        outcome.closed_ops = outcome.attempted
        return outcome

    def answers(self) -> list:
        return sorted(self.first_answer.items())

    def layer_extra(self, outcome: Outcome, analysis) -> Dict[str, float]:
        return {}


# ---------------------------------------------------------------------- #
# serve-hot: one Server, hot queries from three tenants
# ---------------------------------------------------------------------- #


SERVE_CLASSES = {
    c.name: c
    for c in (
        RequestClass("safe_cq", "exists x y. R(x) & S(x, y)",
                     "reliability", 0.05, "safe_lifted", "exact", "dnf"),
        RequestClass("unsafe_small", "exists x y. A(x) & B(x, y) & C(y)",
                     "reliability", 0.05, "exact", "exact", "worlds"),
        RequestClass("unsafe_sampled", H0, "probability", 0.35,
                     "karp_luby", "relative", "dnf"),
    )
}

#: One cycle of requests.  Shares: unsafe_small 3 (ranks 0-30%), safe_cq
#: 5 (30-80%, holds p50), unsafe_sampled 2 (80-100%, holds p90).
SERVE_CYCLE = (
    "safe_cq", "unsafe_small", "safe_cq", "unsafe_sampled",
    "safe_cq", "unsafe_small", "safe_cq", "unsafe_small",
    "safe_cq", "unsafe_sampled",
)
TENANTS = ("tenant-a", "tenant-b", "tenant-c")
POOL_SIZE = 2
#: Open-loop arrival rate, requests per second (see NOTES.md).
SERVE_RATE = 40.0
#: Closed-loop outstanding requests; below the ladder's relative_at (4).
SERVE_CONCURRENCY = 3
#: Share of the run spent in the open loop; the rest is the closed loop.
OPEN_SHARE = 0.6
#: Requests per open-loop batch: four cycles, one second.
OPEN_BATCH = 40
#: Seconds per closed-loop segment.
CLOSED_SEGMENT_S = 1.0


class _Stamped(list):
    """The server's response list, stamping each response as it lands.

    ``Server`` appends every response here when it is finalised, so the
    stamp is the completion time on the server's own clock.  ``on_append``
    lets the closed loop submit the next request as one completes.
    """

    def __init__(self, clock, on_append=None):
        super().__init__()
        self.clock = clock
        self.on_append = on_append
        self.stamps: Dict[str, float] = {}

    def append(self, response) -> None:
        self.stamps[response.id] = self.clock()
        super().append(response)
        if self.on_append is not None:
            self.on_append()


class ServeHot:
    name = "serve-hot"
    queries = True
    #: Latency limit of ``slo_met_share``, reference-scale ms.
    slo_ms = 40.0
    #: Exponents of the reference speed scale (see speed.py and
    #: NOTES.md): serving waits on thread hand-offs as well, which do not
    #: follow the interpreter's speed.
    run_exponent, setup_exponent = 0.5, 0.75

    def __init__(self, seed: int, workdir: str, src: str):
        self.seed = seed

    def setup(self) -> None:
        rng = random.Random(f"{self.seed}:serve-hot")
        db = inputs.make_database(inputs.layout_of(inputs.SERVE_DB), rng)
        self.text = encode_unreliable_database(db)
        self.request_seed = {
            name: rng.getrandbits(32) for name in SERVE_CLASSES
        }
        self.reference = {
            name: cls.reference(db) for name, cls in SERVE_CLASSES.items()
        }
        self.server = repeat_setup(self, self._build)

    def _build(self) -> Server:
        """DB load, server construction and one warm-up per hot query."""
        db = decode_unreliable_database(self.text)
        server = Server(db, pool_size=POOL_SIZE,
                        ladder=DegradationLadder())
        for index in range(len(SERVE_CYCLE)):
            for response in server.run([self._request(index, "warm", 0.0)]):
                if not response.ok:
                    raise RuntimeError(f"warm-up failed: {response}")
        return server

    def _request(self, index: int, tag: str, arrival: float) -> ServeRequest:
        name = SERVE_CYCLE[index % len(SERVE_CYCLE)]
        cls = SERVE_CLASSES[name]
        return ServeRequest(
            id=f"{tag}-{index}-{name}",
            query=cls.query,
            tenant=TENANTS[index % len(TENANTS)],
            quantity=cls.quantity,
            epsilon=cls.epsilon,
            delta=DELTA,
            seed=self.request_seed[name],
            arrival=arrival,
        )

    def _check(self, outcome: Outcome, response, latency_ms: float) -> None:
        name = response.id.rsplit("-", 1)[1]
        cls = SERVE_CLASSES[name]
        outcome.timed(name, latency_ms)
        if not response.ok:
            outcome.fail(f"{response.id}: {response.code} {response.detail}")
            return
        outcome.record(name, response.engine)
        exact = self.reference[name]
        if response.tier == "exact" and response.engine != cls.engine:
            outcome.fail(f"{response.id}: routed to {response.engine}, "
                         f"expected {cls.engine}")
            return
        if response.guarantee == "exact":
            ok = response.value == float(exact)
        else:
            ok = within_band(response.value, exact, response.guarantee,
                             response.epsilon)
        if not ok:
            outcome.fail(f"{response.id}: {response.value!r} vs exact "
                         f"{float(exact)!r}")
            return
        if response.guarantee == "exact":
            outcome.exact += 1
        outcome.correct_ms.append(latency_ms)

    def open_loop(self, outcome: Outcome, count: int, tag: str) -> None:
        """``count`` requests at :data:`SERVE_RATE`, evenly spaced.

        Latency runs from each request's due time; ``self.lags`` gets
        how late the server accepted each request after it was due (ms).
        """
        server = self.server
        interval = 1.0 / SERVE_RATE
        requests = [self._request(index, tag, index * interval)
                    for index in range(count)]
        due = {request.id: request.arrival for request in requests}
        stamped = _Stamped(server.scheduler.now)
        server.responses = stamped
        base = server.scheduler.now()
        responses = server.run(requests)
        self.open_responses += responses
        for response in responses:
            due_at = base + due[response.id]
            done = stamped.stamps[response.id]
            self._check(outcome, response, (done - due_at) * 1000.0)
            self.lags.append((done - response.elapsed - due_at) * 1000.0)

    def closed_loop(self, outcome: Outcome, tag: str,
                    seconds: Optional[float] = None,
                    count: Optional[int] = None) -> None:
        """:data:`SERVE_CONCURRENCY` outstanding requests until done.

        Stops submitting after ``seconds`` of wall time or ``count``
        requests, whichever is given.
        """
        server = self.server
        clock = server.scheduler.now
        submitted = SERVE_CONCURRENCY
        started = clock()

        def refill():
            nonlocal submitted
            if count is not None and submitted >= count:
                return
            if seconds is not None and clock() - started >= seconds:
                return
            server.submit(self._request(submitted, tag, 0.0))
            submitted += 1

        stamped = _Stamped(clock, refill)
        server.responses = stamped
        with layers.root("bench.serve"):
            started = clock()
            responses = server.run(
                [self._request(index, tag, 0.0)
                 for index in range(SERVE_CONCURRENCY)])
        finished = max(stamped.stamps.values())
        self.closed_responses += responses
        for response in responses:
            self._check(outcome, response, response.elapsed * 1000.0)
        outcome.closed_ops += len(responses)
        outcome.closed_seconds += finished - started
        outcome.segment_rates.append(len(responses) / (finished - started))

    def _phases(self, open_batches: int, closed_segments: int, tag: str,
                seconds: Optional[float] = None,
                count: Optional[int] = None) -> Outcome:
        """Open-loop batches, then closed-loop segments, as one outcome.

        Each open batch is :data:`OPEN_BATCH` requests; each closed
        segment runs ``seconds`` or ``count`` requests.  The server is
        idle between them, and speed probes run there.  Latency
        percentiles, ``slo_met_share`` and ``exact_share`` come from the
        open loop; throughput is the median segment's; failures come
        from both.
        """
        outcome = Outcome()
        self.lags = []
        self.open_responses = []
        self.closed_responses = []
        gc.collect()
        for batch in range(open_batches):
            speed.burst(outcome.probes)
            self.open_loop(outcome, OPEN_BATCH, f"{tag}-open{batch}")
        closed = Outcome()
        for segment in range(closed_segments):
            speed.burst(outcome.probes)
            self.closed_loop(closed, f"{tag}-closed{segment}",
                             seconds=seconds, count=count)
        speed.burst(outcome.probes)
        outcome.attempted += closed.attempted
        outcome.failed += closed.failed
        outcome.errors += closed.errors
        for name, mix in closed.engine_mix.items():
            for engine, hits in mix.items():
                outcome.engine_mix.setdefault(name, {})
                outcome.engine_mix[name][engine] = (
                    outcome.engine_mix[name].get(engine, 0) + hits)
        outcome.closed_ops = closed.closed_ops
        outcome.closed_seconds = closed.closed_seconds
        outcome.segment_rates = closed.segment_rates
        return outcome

    def measure(self, seconds: float) -> Outcome:
        batch_seconds = OPEN_BATCH / SERVE_RATE
        batches = max(1, round(seconds * OPEN_SHARE / batch_seconds))
        segments = max(1, round(seconds * (1.0 - OPEN_SHARE)
                                / CLOSED_SEGMENT_S))
        return self._phases(batches, segments, "run",
                            seconds=CLOSED_SEGMENT_S)

    def unit(self) -> Outcome:
        """One open batch and one closed segment of as many requests."""
        return self._phases(1, 1, "unit", count=OPEN_BATCH)

    def answers(self) -> list:
        return sorted((r.id, r.value, r.engine) for r in self.open_responses)

    def layer_extra(self, outcome: Outcome, analysis) -> Dict[str, float]:
        """Serve-layer values of the last :meth:`unit`."""
        responses = self.open_responses + self.closed_responses
        waits = [r.queued * 1000.0 for r in responses]
        return {
            "serve.exec_p50_ms": layers.decile(
                [d * 1000.0 for d in analysis.durations("runtime.run")], 5),
            "serve.queue_wait_p50_ms": layers.decile(waits, 5),
            "serve.queue_wait_p90_ms": layers.decile(waits, 9),
            "serve.degraded_share": sum(
                r.tier not in (None, "exact") for r in responses
            ) / len(responses),
            "serve.shed_share": sum(
                r.code == "overloaded" for r in responses) / len(responses),
            "bench.generator_lag_p90_ms": layers.decile(self.lags, 9),
        }


# ---------------------------------------------------------------------- #
# update-stream: DeltaSessions under a seeded write/read stream
# ---------------------------------------------------------------------- #

#: Standing Boolean queries, one DeltaSession each, over one database.
UPDATE_QUERIES = (
    H0,
    "exists x y z. R(x) & S(x, y) & S(y, z)",
    "forall x y. ~T(x) | ~S(x, y) | ~R(y)",
    "exists x y. S(x, y) & T(x) & T(y)",
)
#: Operations generated per run; a run stops early if it uses them all.
STREAM_LENGTH = 40000
#: Answers are compared with a cold recompute every CHECK_EVERY
#: operations, for the first CHECKS checkpoints.
CHECK_EVERY = 50
CHECKS = 8
#: Operations in one traced-run unit.
UNIT_OPS = 250
#: Operations between compilation-cache clears.
CLEAR_EVERY = 100


class UpdateStream:
    name = "update-stream"
    queries = False
    #: Latency limit of ``slo_met_share``, reference-scale ms.
    slo_ms = 60.0
    #: Exponents of the reference speed scale (see speed.py and
    #: NOTES.md).
    run_exponent, setup_exponent = 0.75, 0.75

    def __init__(self, seed: int, workdir: str, src: str):
        self.seed = seed

    def setup(self) -> None:
        rng = random.Random(f"{self.seed}:update-stream")
        self.db = inputs.make_database(inputs.layout_of(inputs.UPDATE_DB), rng)
        self.queries = [FOQuery(text) for text in UPDATE_QUERIES]
        self.stream = inputs.update_stream(self.db, rng, STREAM_LENGTH)
        # Cold recomputes at the checkpoints, by Shannon expansion of the
        # grounded DNF (the sessions evaluate a compiled BDD).
        self.reference: Dict[int, List[Fraction]] = {}
        db = self.db
        for step in range(CHECK_EVERY * CHECKS):
            db = inputs.apply_update(db, self.stream[step][1])
            if step % CHECK_EVERY == CHECK_EVERY - 1:
                self.reference[step] = [
                    truth_probability(db, query) for query in self.queries
                ]
        self.observed: Dict[int, List[Fraction]] = {}
        self.sessions = repeat_setup(self, self.build)

    def build(self) -> List[DeltaSession]:
        return [DeltaSession(self.db, query) for query in self.queries]

    def _apply(self, outcome: Outcome, sessions, step: int) -> None:
        kind, update = self.stream[step]
        op = update[0]
        with layers.root("bench.update"):
            started = time.perf_counter()
            for session in sessions:
                getattr(session, op)(*update[1:])
            answers = [session.probability() for session in sessions]
            elapsed_ms = (time.perf_counter() - started) * 1000.0
        outcome.timed(kind, elapsed_ms)
        outcome.record(kind, "delta")
        expected = self.reference.get(step)
        if expected is not None:
            self.observed[step] = answers
        if expected is not None and answers != expected:
            outcome.fail(f"step {step}: {answers} != cold {expected}")
            return
        if not all(isinstance(a, Fraction) and 0 <= a <= 1 for a in answers):
            outcome.fail(f"step {step}: malformed answers {answers}")
            return
        outcome.exact += 1
        outcome.correct_ms.append(elapsed_ms)

    def measure(self, seconds: float) -> Outcome:
        outcome = Outcome()
        sessions = self.sessions
        last_check = CHECK_EVERY * CHECKS
        paused = 0.0
        gc.collect()
        started = time.perf_counter()
        for step in range(len(self.stream)):
            if step % 10 == 0:
                pause = time.perf_counter()
                if step and step % CLEAR_EVERY == 0:
                    # Structural updates leave one compiled diagram per
                    # database state in the compilation cache; dropping
                    # them at fixed steps keeps peak memory a property
                    # of the stream, not of how many operations fit in
                    # the run.
                    kernels.clear_caches()
                    gc.collect()
                outcome.probes.append(speed.probe())
                paused += time.perf_counter() - pause
            self._apply(outcome, sessions, step)
            if (step >= last_check
                    and time.perf_counter() - started >= seconds):
                break
        outcome.closed_seconds = time.perf_counter() - started - paused
        outcome.closed_ops = outcome.attempted
        return outcome

    def unit(self) -> Outcome:
        """Fresh sessions, then the stream's first UNIT_OPS operations."""
        kernels.clear_caches()
        sessions = self.build()
        outcome = Outcome()
        started = time.perf_counter()
        for step in range(UNIT_OPS):
            self._apply(outcome, sessions, step)
        outcome.closed_seconds = time.perf_counter() - started
        outcome.closed_ops = outcome.attempted
        return outcome

    def answers(self) -> list:
        return sorted(self.observed.items())

    def layer_extra(self, outcome: Outcome, analysis) -> Dict[str, float]:
        updates = outcome.attempted * len(UPDATE_QUERIES)
        return {
            "delta.weight_update_ms": sum(outcome.by_class["weight"])
            / len(outcome.by_class["weight"]),
            "delta.structural_update_ms": sum(outcome.by_class["structural"])
            / len(outcome.by_class["structural"]),
            "delta.nodes_reevaluated_per_update": analysis.counter(
                "delta.nodes_reevaluated") / updates,
        }
