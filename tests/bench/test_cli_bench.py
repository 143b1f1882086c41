"""The ``repro bench`` CLI family, driven through ``cli.main``."""

import json

import pytest

from repro import obs
from repro.bench.history import History
from repro.bench.record import migrate, validate
from repro.bench.registry import BenchCase, register_case, unregister
from repro.cli import main


@pytest.fixture
def tiny_case():
    def fn(params):
        with obs.span("tiny.work"):
            obs.inc("tiny.calls")
        return {"n": params["n"]}

    case = BenchCase(
        bench_id="testcli.tiny",
        fn=fn,
        params={"n": 3},
        quick={"n": 1},
        repeats=2,
    )
    register_case(case)
    try:
        yield case
    finally:
        unregister(case.bench_id)


def test_bench_list_names_cases(tiny_case, capsys):
    assert main(["bench", "list"]) == 0
    out = capsys.readouterr().out
    assert "testcli.tiny" in out
    assert "experiments.e1_qf_reliability" in out


def test_bench_run_records_and_appends(tiny_case, tmp_path, capsys):
    history = tmp_path / "h.jsonl"
    out_file = tmp_path / "fresh.jsonl"
    code = main(
        [
            "bench", "run", "testcli.tiny", "--quick",
            "--history", str(history), "--out", str(out_file),
        ]
    )
    assert code == 0
    records = History(str(history)).records()
    assert len(records) == 1
    record = records[0]
    validate(record)
    assert record["bench"] == "testcli.tiny"
    assert record["metrics"]["counters"]["tiny.calls"] == 1
    assert {p["name"] for p in record["profile"]["phases"]} == {"tiny.work"}
    fresh = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert len(fresh) == 1
    validate(migrate(fresh[0]))


def test_bench_run_no_append_leaves_history_alone(tiny_case, tmp_path):
    history = tmp_path / "h.jsonl"
    out_file = tmp_path / "fresh.jsonl"
    code = main(
        [
            "bench", "run", "testcli.tiny", "--quick", "--no-append",
            "--history", str(history), "--out", str(out_file),
        ]
    )
    assert code == 0
    assert not history.exists()
    assert out_file.exists()


def test_bench_run_requires_selection(tiny_case, capsys):
    assert main(["bench", "run"]) == 2


def test_bench_compare_gate_passes_then_fails_on_slowdown(
    tiny_case, tmp_path, capsys
):
    history = History(str(tmp_path / "h.jsonl"))
    for _ in range(3):
        main(
            [
                "bench", "run", "testcli.tiny", "--quick",
                "--history", history.path,
            ]
        )
    capsys.readouterr()

    # Healthy: same-speed fresh run against the trajectory.
    out_file = tmp_path / "fresh.jsonl"
    main(
        [
            "bench", "run", "testcli.tiny", "--quick", "--no-append",
            "--history", history.path, "--out", str(out_file),
        ]
    )
    assert (
        main(
            [
                "bench", "compare", "--fresh", str(out_file),
                "--history", history.path,
            ]
        )
        == 0
    )
    assert "PASS" in capsys.readouterr().out

    # Injected 5x slowdown: rewrite the fresh record's wall clock.
    fresh = [
        json.loads(line) for line in out_file.read_text().splitlines()
    ]
    baseline_median = sorted(
        r["wall_clock"]["seconds"] for r in history.records()
    )[1]
    slow = 5.0 * max(baseline_median, 0.05)
    fresh[0]["wall_clock"]["seconds"] = slow
    fresh[0]["wall_clock"]["min"] = slow
    fresh[0]["wall_clock"]["max"] = slow
    fresh[0]["wall_clock"]["mean"] = slow
    fresh[0]["wall_clock"]["samples"] = [slow]
    out_file.write_text(json.dumps(fresh[0]) + "\n")
    assert (
        main(
            [
                "bench", "compare", "--fresh", str(out_file),
                "--history", history.path,
            ]
        )
        == 1
    )
    out = capsys.readouterr().out
    assert "regression" in out and "FAIL" in out


def test_bench_compare_self_mode(tiny_case, tmp_path, capsys):
    history = History(str(tmp_path / "h.jsonl"))
    for _ in range(2):
        main(
            [
                "bench", "run", "testcli.tiny", "--quick",
                "--history", history.path,
            ]
        )
    assert main(["bench", "compare", "--history", history.path]) == 0


def test_bench_compare_missing_history_errors(tmp_path, capsys):
    code = main(
        ["bench", "compare", "--history", str(tmp_path / "none.jsonl")]
    )
    assert code == 2


def test_bench_report_trend_and_detail(tiny_case, tmp_path, capsys):
    history = History(str(tmp_path / "h.jsonl"))
    for _ in range(2):
        main(
            [
                "bench", "run", "testcli.tiny", "--quick",
                "--history", history.path,
            ]
        )
    capsys.readouterr()
    assert main(["bench", "report", "--history", history.path]) == 0
    assert "testcli.tiny" in capsys.readouterr().out
    assert (
        main(["bench", "report", "testcli.tiny", "--history", history.path])
        == 0
    )
    detail = capsys.readouterr().out
    assert "2 recorded run(s)" in detail
    assert "span profile" in detail



def test_bench_report_detail_prints_latest_results(tmp_path, capsys):
    """The detail view shows what the latest run measured, not only
    how long it took: the values a case returns (its ``extra``)."""

    def fn(params):
        return {
            "reliability": {"4": 0.9075, "8": 0.9184},
            "bit_identical": True,
            "speedup": params["speedup"],
        }

    case = BenchCase(
        bench_id="testcli.results",
        fn=fn,
        params={"speedup": 2.5},
        quick={"speedup": 7.25},
        repeats=1,
    )
    register_case(case)
    history = str(tmp_path / "h.jsonl")
    try:
        for mode in ([], ["--quick"]):
            main(["bench", "run", case.bench_id, "--history", history, *mode])
    finally:
        unregister(case.bench_id)
    capsys.readouterr()
    assert main(["bench", "report", case.bench_id, "--history", history]) == 0
    out = capsys.readouterr().out
    assert "latest results:" in out
    assert '  reliability: {"4": 0.9075, "8": 0.9184}' in out
    assert "  bit_identical: true" in out
    assert "  speedup: 7.25" in out  # the quick run came last
    assert "speedup: 2.5" not in out
