"""Engine instrumentation: the counters and traces the engines populate.

Smoke-tests the contract that downstream tooling (the ``--stats`` CLI
table, ``repro bench`` records, convergence plots) relies on:
each exact dispatch path populates its advertised counter names, the
estimators emit per-batch running estimates, and the CLI flags work end
to end.  Also audits seed threading: estimator entry points accept bare
seeds, and no library module touches the module-global RNG.
"""

import re
from fractions import Fraction
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.cli import main
from repro.logic.evaluator import FOQuery
from repro.obs.recorder import StatsRecorder
from repro.obs.sink import ListSink, read_jsonl
from repro.propositional.formula import DNF, Clause, Literal
from repro.propositional.karp_luby import karp_luby_samples
from repro.relational.encoding import encode_unreliable_database
from repro.reliability.exact import reliability, truth_probability
from repro.reliability.montecarlo import (
    estimate_reliability_hamming,
    estimate_truth_probability,
)
from repro.util.rng import as_rng, make_rng

EXISTENTIAL = FOQuery("exists x y. E(x, y) & S(y)")


@pytest.fixture
def recorder():
    with obs.use(StatsRecorder(sink=ListSink())) as active:
        yield active


class TestExactDispatchCounters:
    """reliability() populates the advertised counters on every path."""

    def test_qf_path(self, triangle_db, recorder):
        reliability(
            triangle_db, FOQuery("E(x, y) | S(x)", ("x", "y")), method="qf"
        )
        counters = recorder.summary()["counters"]
        # One per tuple whose lineage is not constant: 5 of the 9 (the
        # other 4 are answered from the lineage table without an engine).
        assert counters["exact.dispatch.qf"] == 5
        assert counters["reliability.tuples_visited"] == 5
        assert counters["exact.worlds_enumerated"] > 0
        assert "exact.relevant_atoms" in recorder.summary()["histograms"]

    def test_dnf_path(self, triangle_db, recorder):
        truth_probability(triangle_db, EXISTENTIAL, method="dnf")
        counters = recorder.summary()["counters"]
        assert counters["exact.dispatch.dnf"] == 1
        assert counters["grounding.clauses_raw"] >= counters[
            "grounding.clauses_kept"
        ]
        assert "shannon.nodes" in counters
        assert recorder.summary()["gauges"]["grounding.width"] == 2

    def test_worlds_path(self, triangle_db, recorder):
        truth_probability(triangle_db, EXISTENTIAL, method="worlds")
        counters = recorder.summary()["counters"]
        assert counters["exact.dispatch.worlds"] == 1
        # 4 uncertain atoms in the fixture, all on E/S relations.
        assert counters["exact.worlds_enumerated"] == 16

    def test_lifted_path(self, triangle_db, recorder):
        truth_probability(triangle_db, EXISTENTIAL, method="auto")
        counters = recorder.summary()["counters"]
        assert counters["exact.dispatch.lifted"] == 1
        assert counters["lifted.recursive_calls"] > 0


class TestEstimatorConvergenceEvents:
    def test_karp_luby_batches_trace_running_estimate(self, recorder):
        dnf = DNF(
            [
                Clause([Literal("a", True), Literal("b", True)]),
                Clause([Literal("c", True)]),
            ]
        )
        probs = {"a": Fraction(1, 2), "b": Fraction(1, 3), "c": Fraction(1, 5)}
        run = karp_luby_samples(dnf, probs, 200, make_rng(7))
        events = recorder.sink.by_name("karp_luby.batch")
        assert events, "no convergence events emitted"
        samples = [event["fields"]["samples"] for event in events]
        assert samples == sorted(samples)
        assert samples[-1] == 200
        for event in events:
            assert 0.0 <= event["fields"]["estimate"] <= 1.0
        # The last running estimate is the returned estimate.
        assert events[-1]["fields"]["estimate"] == pytest.approx(run.estimate)
        counters = recorder.summary()["counters"]
        assert counters["karp_luby.samples"] == 200
        assert recorder.summary()["gauges"]["karp_luby.cover_weight"] > 0

    def test_montecarlo_batches_have_shrinking_half_width(
        self, triangle_db, recorder
    ):
        estimate_truth_probability(
            triangle_db, EXISTENTIAL, make_rng(3), samples=120, delta=0.1
        )
        events = recorder.sink.by_name("montecarlo.batch")
        assert events
        widths = [event["fields"]["half_width"] for event in events]
        assert widths == sorted(widths, reverse=True)
        assert events[-1]["fields"]["samples"] == 120
        assert recorder.summary()["counters"]["montecarlo.samples"] == 120

    def test_hamming_estimator_emits_batches(self, triangle_db, recorder):
        estimate_reliability_hamming(
            triangle_db, EXISTENTIAL, make_rng(5), samples=60
        )
        events = recorder.sink.by_name("montecarlo.hamming_batch")
        assert events
        assert events[-1]["fields"]["samples"] == 60
        for event in events:
            assert 0.0 <= event["fields"]["estimate"] <= 1.0


class TestSeedThreading:
    """Estimators accept bare seeds; results match an equal-seed Random."""

    def test_as_rng_identity_and_seeding(self):
        rng = make_rng(9)
        assert as_rng(rng) is rng
        assert as_rng(9).random() == make_rng(9).random()

    def test_karp_luby_accepts_seed(self):
        dnf = DNF([Clause([Literal("a", True), Literal("b", True)])])
        probs = {"a": Fraction(1, 2), "b": Fraction(1, 2)}
        seeded = karp_luby_samples(dnf, probs, 50, 13)
        threaded = karp_luby_samples(dnf, probs, 50, make_rng(13))
        assert seeded.estimate == threaded.estimate

    def test_montecarlo_accepts_seed(self, triangle_db):
        seeded = estimate_truth_probability(
            triangle_db, EXISTENTIAL, 21, samples=40
        )
        threaded = estimate_truth_probability(
            triangle_db, EXISTENTIAL, make_rng(21), samples=40
        )
        assert seeded == threaded

    def test_no_module_global_rng_in_library(self):
        """Audit: no ``random.<draw>()`` on the module-global generator.

        Every coin flip must go through an explicit ``random.Random``
        so that traces are reproducible run to run.
        """
        source_root = Path(repro.__file__).parent
        forbidden = re.compile(
            r"(?<!\.)\brandom\.(random|randint|randrange|choice|choices|"
            r"shuffle|sample|uniform|gauss|getrandbits|betavariate)\("
        )
        offenders = []
        for path in sorted(source_root.rglob("*.py")):
            for number, line in enumerate(
                path.read_text().splitlines(), start=1
            ):
                if forbidden.search(line):
                    offenders.append(f"{path}:{number}: {line.strip()}")
        assert not offenders, "module-global RNG use:\n" + "\n".join(offenders)


class TestCliObservability:
    @pytest.fixture
    def db_file(self, tmp_path, triangle_db):
        path = tmp_path / "db.txt"
        path.write_text(encode_unreliable_database(triangle_db))
        return str(path)

    def test_compute_stats_prints_counters(self, db_file, capsys):
        code = main(
            ["compute", db_file, "exists x y. E(x, y) & S(y)", "--stats"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "-- engine stats --" in out
        assert "exact.dispatch." in out

    def test_compute_worlds_stats_shows_worlds_enumerated(
        self, db_file, capsys
    ):
        code = main(
            [
                "compute",
                db_file,
                "exists x y. E(x, y) & S(y)",
                "--method",
                "worlds",
                "--stats",
            ]
        )
        assert code == 0
        assert "exact.worlds_enumerated" in capsys.readouterr().out

    def test_estimate_trace_writes_valid_jsonl(self, db_file, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        code = main(
            [
                "estimate",
                db_file,
                "exists x. S(x) & E(x, 'c')",
                "--epsilon",
                "0.2",
                "--delta",
                "0.2",
                "--seed",
                "3",
                "--trace",
                trace,
            ]
        )
        assert code == 0
        events = read_jsonl(trace)
        assert events, "trace file empty"
        batches = [
            event for event in events if event["name"] == "karp_luby.batch"
        ]
        assert batches, "no convergence events in trace"
        for event in events:
            assert {"ts", "type", "name"} <= set(event)

    def test_recorder_restored_after_cli_run(self, db_file, capsys):
        main(["compute", db_file, "exists x y. E(x, y)", "--stats"])
        capsys.readouterr()
        assert not obs.enabled()

    def test_stats_off_by_default(self, db_file, capsys):
        code = main(["compute", db_file, "exists x y. E(x, y)"])
        assert code == 0
        assert "engine stats" not in capsys.readouterr().out
