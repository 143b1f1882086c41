"""Tests for the command-line interface and database file round-trip."""

from fractions import Fraction

import pytest

from repro.cli import main
from repro.relational.atoms import Atom
from repro.relational.encoding import (
    decode_error_function,
    decode_unreliable_database,
    encode_unreliable_database,
)
from repro.reliability.unreliable import UnreliableDatabase


@pytest.fixture
def db_file(tmp_path, triangle_db):
    path = tmp_path / "db.txt"
    path.write_text(encode_unreliable_database(triangle_db))
    return str(path)


class TestEncodingRoundTrip:
    def test_full_round_trip(self, triangle_db):
        text = encode_unreliable_database(triangle_db)
        decoded = decode_unreliable_database(text)
        assert decoded.structure == triangle_db.structure
        assert decoded.error_table() == triangle_db.error_table()

    def test_error_lines_parse(self):
        text = "error E 1/4 'a' 'b'\nerror S 1/3 'a'\n"
        mu = decode_error_function(text)
        assert mu[Atom("E", ("a", "b"))] == Fraction(1, 4)
        assert mu[Atom("S", ("a",))] == Fraction(1, 3)

    def test_comments_skipped(self):
        assert decode_error_function("# nothing\n") == {}


class TestComputeCommand:
    def test_exact_reliability(self, db_file, capsys):
        code = main(["compute", db_file, "exists x y. E(x, y)"])
        assert code == 0
        out = capsys.readouterr().out
        assert "reliability = 1 " in out

    def test_with_free_order_and_method(self, db_file, capsys):
        code = main(
            ["compute", db_file, "E(x, y)", "--free", "x", "y", "--method", "qf"]
        )
        assert code == 0
        assert "reliability" in capsys.readouterr().out

    def test_expected_error_flag(self, db_file, capsys):
        code = main(
            ["compute", db_file, "exists x. S(x) & ~E(x, x)", "--expected-error"]
        )
        assert code == 0
        assert "expected_error" in capsys.readouterr().out

    def test_bad_query_reports_error(self, db_file, capsys):
        code = main(["compute", db_file, "E(x,"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_reports_error(self, capsys):
        code = main(["compute", "/no/such/file", "exists x. S(x)"])
        assert code == 2


class TestEstimateCommand:
    def test_karp_luby(self, db_file, capsys):
        code = main(
            [
                "estimate",
                db_file,
                "exists x y. E(x, y) & S(y)",
                "--epsilon",
                "0.1",
                "--delta",
                "0.1",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        assert "reliability ~" in capsys.readouterr().out

    def test_padding(self, db_file, capsys):
        code = main(
            [
                "estimate",
                db_file,
                "exists x. E(x, x)",
                "--estimator",
                "padding",
                "--epsilon",
                "0.2",
                "--delta",
                "0.2",
            ]
        )
        assert code == 0
        assert "reliability ~" in capsys.readouterr().out

    def test_hamming(self, db_file, capsys):
        code = main(
            [
                "estimate",
                db_file,
                "E(x, y)",
                "--free",
                "x",
                "y",
                "--estimator",
                "hamming",
                "--epsilon",
                "0.1",
                "--delta",
                "0.2",
            ]
        )
        assert code == 0
        assert "reliability ~" in capsys.readouterr().out


class TestInspectCommand:
    def test_summary(self, db_file, capsys):
        code = main(["inspect", db_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "universe: 3 elements" in out
        assert "uncertain atoms: 4" in out

    def test_with_query_classification(self, db_file, capsys):
        code = main(
            ["inspect", db_file, "--query", "exists x y. E(x, y) & S(y)"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "conjunctive" in out


class TestAnalyzeCommand:
    def test_exact_path(self, db_file, capsys):
        code = main(["analyze", db_file, "exists x y. E(x, y) & S(y)"])
        assert code == 0
        out = capsys.readouterr().out
        assert "engine:" in out
        assert "[exact]" in out

    def test_fragment_reported(self, db_file, capsys):
        code = main(["analyze", db_file, "E(x, y)", "--free", "x", "y"])
        assert code == 0
        assert "quantifier-free" in capsys.readouterr().out

    def test_explain_dichotomy_safe_prints_hierarchy_tree(
        self, db_file, capsys
    ):
        code = main(
            [
                "analyze",
                db_file,
                "exists x y. E(x, y) & S(y)",
                "--explain-dichotomy",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "safe: hierarchical self-join-free Boolean CQ" in out
        assert "hierarchy tree:" in out
        assert "project" in out

    def test_explain_dichotomy_unsafe_prints_witness(self, db_file, capsys):
        code = main(
            [
                "analyze",
                db_file,
                "exists x y. E(x, y) & E(y, x)",
                "--explain-dichotomy",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "unsafe: relation E occurs in two atoms" in out
        assert "offending atoms:" in out
        assert "falls through to the general engine chain" in out

    def test_without_flag_no_dichotomy_section(self, db_file, capsys):
        code = main(["analyze", db_file, "exists x y. E(x, y) & S(y)"])
        assert code == 0
        out = capsys.readouterr().out
        assert "hierarchy tree:" not in out


class TestErrorReporting:
    """ReproError -> one-line `error: ...` on stderr and exit code 2."""

    def test_malformed_query(self, db_file, capsys):
        code = main(["compute", db_file, "exists x. E(x,"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        err = captured.err
        assert err.startswith("error: ")
        assert err.count("\n") == 1  # one line, no traceback

    def test_mu_out_of_unit_interval(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(
            "universe 'a' 'b'\n"
            "relation E 2\n"
            "tuple E 'a' 'b'\n"
            "error E 3/2 'a' 'b'\n"
        )
        code = main(["compute", str(bad), "exists x y. E(x, y)"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "3/2" in captured.err

    def test_exceeded_deadline_is_reported_not_raised(self, db_file, capsys):
        # An impossible-to-meet max-cost on a non-degrading subcommand
        # surfaces as a one-line refusal with its dedicated exit code.
        code = main(
            ["compute", db_file, "exists x y. E(x, y)",
             "--method", "worlds", "--max-cost", "2"]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "cost refused: " in captured.err
        assert "worlds" in captured.err


class TestRunCommand:
    def test_exact_answers_with_provenance(self, db_file, capsys):
        code = main(["run", db_file, "exists x y. E(x, y) & S(y)"])
        assert code == 0
        out = capsys.readouterr().out
        assert "safe_lifted: ok" in out
        assert "[exact]" in out
        assert "reliability =" in out

    def test_degrades_under_max_cost(self, tmp_path, capsys):
        # 20 uncertain atoms -> 2^20 worlds: exact is refused at a
        # 100k cap, while the Monte-Carlo Hoeffding budget (~29 samples
        # at eps=delta=0.2) fits comfortably.
        from repro.util.rng import make_rng
        from repro.workloads.random_db import random_unreliable_database

        db = random_unreliable_database(
            make_rng(5), 4, {"E": 2, "S": 1}, density=0.5,
            uncertain_fraction=1.0,
        )
        path = tmp_path / "big.txt"
        path.write_text(encode_unreliable_database(db))
        code = main(
            ["run", str(path),
             "exists x y. E(x, y) & S(y) | exists x. S(x)",
             "--max-cost", "100000", "--epsilon", "0.2", "--delta", "0.2",
             "--deadline", "30"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "safe_lifted: skipped_static" in out
        assert "exact: cost_refused" in out
        assert "[additive]" in out

    def test_custom_chain_and_quantity(self, db_file, capsys):
        code = main(
            ["run", db_file, "exists x y. E(x, y)",
             "--engine-chain", "montecarlo",
             "--quantity", "probability",
             "--epsilon", "0.2", "--delta", "0.2", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "probability =" in out
        assert "via montecarlo" in out

    def test_unknown_engine_in_chain_reports_error(self, db_file, capsys):
        code = main(
            ["run", db_file, "exists x y. E(x, y)",
             "--engine-chain", "exact,warp_drive"]
        )
        assert code == 2
        assert "warp_drive" in capsys.readouterr().err

    def test_exhausted_chain_reports_error(self, db_file, capsys):
        # lifted alone cannot answer a k-ary query.
        code = main(
            ["run", db_file, "E(x, y)", "--free", "x", "y",
             "--engine-chain", "lifted"]
        )
        captured = capsys.readouterr()
        assert code == 5
        assert "fallback exhausted: " in captured.err
        assert "lifted" in captured.err

    def test_stats_include_runtime_counters(self, db_file, capsys):
        code = main(
            ["run", db_file, "exists x y. E(x, y)", "--stats"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "runtime.attempts" in out
        assert "runtime.completed" in out

    def test_profile_prints_span_tree(self, db_file, capsys):
        code = main(
            ["compute", db_file, "exists x y. E(x, y) & S(y)", "--profile"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "-- span profile --" in out
        assert "total_s" in out and "self_s" in out

    def test_profile_tees_alongside_trace(self, db_file, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = main(
            ["compute", db_file, "exists x y. E(x, y) & S(y)",
             "--profile", "--trace", str(trace)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "-- span profile --" in out
        # The trace file still receives the span records.
        from repro.obs import read_jsonl

        spans = [e for e in read_jsonl(str(trace)) if e.get("type") == "span"]
        assert spans


class TestBudgetFlags:
    def test_max_cost_caps_samples_too(self, db_file, capsys):
        # The sampler preflights its Hoeffding budget against max-cost.
        code = main(
            ["estimate", db_file, "exists x y. E(x, y)",
             "--estimator", "hamming", "--max-cost", "10"]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "cost refused: " in captured.err
        assert "samples" in captured.err

    def test_generous_budget_passes(self, db_file, capsys):
        code = main(
            ["compute", db_file, "exists x y. E(x, y)",
             "--deadline", "30", "--max-cost", "1000000"]
        )
        assert code == 0
        assert "reliability" in capsys.readouterr().out


class TestCalibrationCommands:
    """`calibrate` -> `run/analyze --calibration` round trip."""

    @pytest.fixture(scope="class")
    def calibration_file(self, tmp_path_factory):
        # Class-scoped: the calibration workload runs every engine and
        # is the slow part; the consumers below just read the file.
        path = tmp_path_factory.mktemp("calibration") / "calibration.json"
        code = main(
            ["calibrate", "--out", str(path), "--seed", "3", "--repeats", "1"]
        )
        assert code == 0
        return str(path)

    def test_calibrate_writes_loadable_model(self, calibration_file, capsys):
        import json

        from repro.runtime import costmodel

        payload = json.loads(open(calibration_file).read())
        assert payload["version"] == costmodel.CALIBRATION_VERSION
        model = costmodel.load_calibration(calibration_file)
        assert model.engines, "workload should calibrate at least one engine"

    def test_calibrate_reports_per_engine_fit(self, db_file, tmp_path, capsys):
        path = tmp_path / "cal.json"
        code = main(["calibrate", "--out", str(path), "--repeats", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "calibration written to" in out
        assert "observations" in out and "rmse" in out

    def test_run_accepts_calibration(self, db_file, calibration_file, capsys):
        code = main(
            ["run", db_file, "exists x y. E(x, y) & S(y)",
             "--calibration", calibration_file]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "reliability =" in out

    def test_analyze_matches_run_selection(
        self, db_file, calibration_file, capsys
    ):
        query = "exists x y. E(x, y) & S(y)"
        assert main(
            ["analyze", db_file, query, "--calibration", calibration_file]
        ) == 0
        analyze_out = capsys.readouterr().out
        assert "run would select:" in analyze_out
        recommended = analyze_out.split("run would select:")[1].split()[0]
        assert main(
            ["run", db_file, query, "--calibration", calibration_file]
        ) == 0
        run_out = capsys.readouterr().out
        assert f"via {recommended}" in run_out

    def test_run_stats_show_costmodel_metrics(
        self, db_file, calibration_file, capsys
    ):
        code = main(
            ["run", db_file, "exists x y. E(x, y)",
             "--calibration", calibration_file, "--stats"]
        )
        assert code == 0
        assert "costmodel." in capsys.readouterr().out

    def test_corrupt_calibration_degrades_not_crashes(
        self, db_file, tmp_path, capsys
    ):
        path = tmp_path / "broken.json"
        path.write_text("{definitely not json")
        code = main(
            ["run", db_file, "exists x y. E(x, y)",
             "--calibration", str(path), "--stats"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "reliability =" in out
        assert "costmodel.fallback" in out


class TestServeCommands:
    def test_submit_emits_a_request_line(self, capsys):
        import json

        code = main(
            ["submit", "q1", "exists x y. E(x, y)",
             "--deadline", "5", "--tenant", "alice", "--seed", "7"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["id"] == "q1"
        assert payload["deadline"] == 5.0
        assert payload["tenant"] == "alice"
        assert payload["seed"] == 7

    def test_submit_validates_the_request(self, capsys):
        code = main(
            ["submit", "q1", "exists x y. E(x, y)", "--epsilon", "2.0"]
        )
        assert code == 2
        assert "epsilon" in capsys.readouterr().err

    def test_serve_batch_answers_every_line(self, db_file, tmp_path, capsys):
        import json

        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            "\n".join(
                [
                    json.dumps({"id": "a", "query": "exists x y. E(x, y)"}),
                    "this is not json",
                    json.dumps({"id": "b", "query": "exists x. S(x)",
                                "deadlien": 1.0}),
                    json.dumps({"id": "c", "query": "exists x. S(x)",
                                "tenant": "t2", "seed": 3}),
                ]
            )
            + "\n"
        )
        code = main(
            ["serve", db_file, "--input", str(requests), "--pool", "2"]
        )
        assert code == 0
        captured = capsys.readouterr()
        lines = [json.loads(line) for line in captured.out.splitlines()]
        assert len(lines) == 4  # one response per input line
        by_id = {line["id"]: line for line in lines}
        assert by_id[None]["code"] == "invalid"
        assert by_id["b"]["code"] == "invalid"
        assert "deadlien" in by_id["b"]["detail"]
        assert by_id["a"]["code"] == "ok" and by_id["a"]["engine"]
        assert by_id["c"]["code"] == "ok" and by_id["c"]["tenant"] == "t2"
        assert "served 4 request(s): 2 ok" in captured.err

    def test_serve_stats_include_serve_counters(self, db_file, tmp_path, capsys):
        import json

        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            json.dumps({"id": "a", "query": "exists x y. E(x, y)"}) + "\n"
        )
        code = main(
            ["serve", db_file, "--input", str(requests), "--stats"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serve.submitted" in out
        assert "serve.completed" in out


class TestParserReuse:
    """``main`` builds its parser once per process and parsing leaves
    nothing behind on it."""

    @pytest.fixture(autouse=True)
    def _fresh_parser(self):
        from repro import cli

        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def test_parser_built_once(self, db_file, monkeypatch, capsys):
        from repro import cli

        builds = []

        def counting_build_parser():
            builds.append(1)
            return build_parser()

        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        assert main(["compute", db_file, "exists x. S(x)"]) == 0
        assert main(["compute", db_file, "exists x y. E(x, y)"]) == 0
        assert len(builds) == 1

    def test_flags_do_not_leak_between_calls(self, db_file, capsys):
        code = main(
            ["compute", db_file, "E(x, y)", "--free", "x", "y", "--stats"]
        )
        assert code == 0
        first = capsys.readouterr().out
        assert "-- engine stats --" in first
        assert main(["compute", db_file, "exists x. S(x)"]) == 0
        second = capsys.readouterr().out
        assert "-- engine stats --" not in second
        assert second.startswith("reliability = ")
        # A leaked ``--free x y`` would make this sentence's free order
        # invalid; the Boolean answer equals a fresh process's.
        from repro.cli import _load
        from repro.reliability.exact import reliability

        expected = reliability(_load(db_file), "exists x. S(x)")
        assert second.splitlines()[0].startswith(f"reliability = {expected} ")


def test_cli_import_leaves_subsystems_unloaded():
    """``import repro.cli`` loads none of the subsystems a command
    imports on demand (cold start)."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys, repro.cli; "
        "print(' '.join(m for m in ('repro.serve', 'repro.bench', "
        "'repro.delta', 'repro.metafinite') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == ""
