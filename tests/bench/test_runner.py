"""The benchmark runner: methodology, registry interplay, records."""

import pytest

from repro import obs
from repro.bench.record import SCHEMA_VERSION, validate
from repro.bench.registry import (
    BenchCase,
    UnknownBenchmark,
    all_cases,
    get_case,
    register_case,
    unregister,
)
from repro.bench.runner import run_case, run_many


@pytest.fixture
def sleeper_case():
    calls = {"count": 0}

    def fn(params):
        calls["count"] += 1
        with obs.span("fake.work", n=params["n"]):
            obs.inc("fake.calls")
        return {"answer": params["n"] * 2}

    case = BenchCase(
        bench_id="testgroup.sleeper",
        fn=fn,
        params={"n": 4},
        quick={"n": 2},
        repeats=3,
    )
    register_case(case)
    try:
        yield case, calls
    finally:
        unregister(case.bench_id)


def test_run_case_produces_valid_record(sleeper_case):
    case, calls = sleeper_case
    result = run_case(case)
    record = result.to_dict()
    validate(record)
    assert record["schema_version"] == SCHEMA_VERSION
    assert record["bench"] == "testgroup.sleeper"
    assert record["group"] == "testgroup"  # the id's prefix
    assert calls["count"] == 4  # 1 warmup + 3 repeats
    assert record["methodology"] == {
        "repeats": 3,
        "warmup": 1,
        "timer": "perf_counter",
        "reduce": "median",
        "quick": False,
    }
    assert len(record["wall_clock"]["samples"]) == 3


def test_metrics_and_profile_captured(sleeper_case):
    case, _ = sleeper_case
    record = run_case(case).to_dict()
    assert record["metrics"]["counters"]["fake.calls"] == 1
    phases = {p["name"] for p in record["profile"]["phases"]}
    assert "fake.work" in phases


def test_extra_comes_from_case_return(sleeper_case):
    case, _ = sleeper_case
    record = run_case(case).to_dict()
    assert record["extra"] == {"answer": 8}


def test_quick_mode_forks_workload_key(sleeper_case):
    case, _ = sleeper_case
    full = run_case(case)
    quick = run_case(case, quick=True)
    assert quick.workload == {"n": 2, "quick": True}
    assert quick.workload_key != full.workload_key
    assert quick.methodology["quick"] is True
    assert len(quick.wall_clock["samples"]) == 1


def test_repeats_override(sleeper_case):
    case, calls = sleeper_case
    run_case(case, repeats=2)
    assert calls["count"] == 3  # 1 warmup + 2 repeats


def test_zero_repeats_rejected(sleeper_case):
    case, _ = sleeper_case
    with pytest.raises(ValueError):
        run_case(case, repeats=0)


def test_run_case_by_id(sleeper_case):
    result = run_case("testgroup.sleeper", quick=True)
    assert result.bench == "testgroup.sleeper"


def test_run_many_by_ids(sleeper_case):
    results = run_many(["testgroup.sleeper"], quick=True)
    assert [r.bench for r in results] == ["testgroup.sleeper"]


def test_recorder_restored_after_run(sleeper_case):
    case, _ = sleeper_case
    before = obs.get_recorder()
    run_case(case, quick=True)
    assert obs.get_recorder() is before


class TestRegistry:
    def test_unknown_benchmark_raises(self):
        with pytest.raises(UnknownBenchmark):
            get_case("nope.missing")

    def test_double_registration_rejected(self, sleeper_case):
        case, _ = sleeper_case
        with pytest.raises(ValueError, match="twice"):
            register_case(case)

    def test_builtin_cases_registered(self):
        """Exactly the paper's E1-E12 series: the runtime's speed is
        perfbench's to measure, so no timing case comes back unseen."""
        ids = [case.bench_id for case in all_cases()]
        assert ids == [
            "experiments.e10_exact_vs_sampling",
            "experiments.e11_lifted",
            "experiments.e12_influence",
            "experiments.e1_qf_reliability",
            "experiments.e2_sat_count",
            "experiments.e3_tree_walk",
            "experiments.e4_fptras",
            "experiments.e5_additive",
            "experiments.e6_ar_decision",
            "experiments.e7_padded",
            "experiments.e8_metafinite",
            "experiments.e9_rare_unions",
        ]

    def test_ids_are_group_dotted(self):
        for case in all_cases():
            assert case.group == "experiments"
            assert case.bench_id.startswith(case.group + ".")
