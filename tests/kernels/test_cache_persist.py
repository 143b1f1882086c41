"""The persistent compilation-cache tier: fallback, counters, lifecycle.

The contract mirrors the costmodel calibration-file one: **a bad cache
file never takes a run down.**  Corrupt, truncated, version-mismatched,
foreign, and concurrently-half-written envelopes all fall back to a
cold compile (counted ``kernels.cache.persist.invalid``), and a disk
hit fills the memory tier *without* counting a compile miss — the
invariant the CI warm-start lane asserts across two processes.
"""

import os
import pickle
import subprocess
import sys
import threading

import pytest

from repro import obs
from repro.kernels import cache_persist
from repro.kernels.cache import LruCache, compilation_cache
from repro.kernels.cache_persist import (
    PERSIST_VERSION,
    PERSISTABLE_KINDS,
    PersistentCache,
    persistable,
)

KEY = ("grounding", "fingerprint", "query")


@pytest.fixture
def tier(tmp_path):
    return PersistentCache(str(tmp_path / "cache"))


def _counters(recorder):
    return recorder.summary()["counters"]


class TestRoundTrip:
    def test_store_then_load(self, tier):
        assert tier.store(KEY, {"plan": [1, 2, 3]}) is True
        assert tier.load(KEY) == {"plan": [1, 2, 3]}

    def test_absent_file_is_a_plain_miss(self, tier):
        recorder = obs.StatsRecorder()
        with obs.use(recorder):
            assert tier.load(KEY) is cache_persist._MISSING
        counters = _counters(recorder)
        assert counters["kernels.cache.persist.misses"] == 1
        assert "kernels.cache.persist.invalid" not in counters

    def test_overwrite_replaces_value(self, tier):
        tier.store(KEY, "old")
        tier.store(KEY, "new")
        assert tier.load(KEY) == "new"

    def test_counters_on_hit_and_store(self, tier):
        recorder = obs.StatsRecorder()
        with obs.use(recorder):
            tier.store(KEY, 42)
            tier.load(KEY)
        counters = _counters(recorder)
        assert counters["kernels.cache.persist.stores"] == 1
        assert counters["kernels.cache.persist.hits"] == 1


class TestFallback:
    """Every flavour of bad file reports a miss, never raises."""

    def _assert_invalid_miss(self, tier):
        recorder = obs.StatsRecorder()
        with obs.use(recorder):
            assert tier.load(KEY) is cache_persist._MISSING
        counters = _counters(recorder)
        assert counters["kernels.cache.persist.invalid"] == 1
        assert counters["kernels.cache.persist.misses"] == 1

    def test_corrupt_file(self, tier):
        with open(tier.path_for(KEY), "wb") as handle:
            handle.write(b"\x00not a pickle at all\xff")
        self._assert_invalid_miss(tier)

    def test_truncated_file(self, tier):
        tier.store(KEY, {"plan": list(range(100))})
        path = tier.path_for(KEY)
        payload = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(payload[: len(payload) // 2])
        self._assert_invalid_miss(tier)

    def test_empty_file(self, tier):
        open(tier.path_for(KEY), "wb").close()
        self._assert_invalid_miss(tier)

    def test_version_mismatch(self, tier):
        envelope = {"version": PERSIST_VERSION + 1, "key": KEY, "value": 1}
        with open(tier.path_for(KEY), "wb") as handle:
            pickle.dump(envelope, handle)
        self._assert_invalid_miss(tier)

    def test_wrong_envelope_shape(self, tier):
        with open(tier.path_for(KEY), "wb") as handle:
            pickle.dump(["not", "a", "dict"], handle)
        self._assert_invalid_miss(tier)

    def test_unpicklable_class_in_payload(self, tier):
        # An envelope referencing a class that does not exist in this
        # process (e.g. written by a newer version of the codebase).
        path = tier.path_for(KEY)
        with open(path, "wb") as handle:
            handle.write(
                b"\x80\x04\x95\x20\x00\x00\x00\x00\x00\x00\x00\x8c\x0b"
                b"no.such.mod\x94\x8c\x07NoClass\x94\x93\x94."
            )
        self._assert_invalid_miss(tier)

    def test_digest_collision_key_mismatch_is_plain_miss(self, tier):
        # Same file name, different key inside: equality check refuses
        # it without flagging the file invalid.
        other = ("grounding", "other-fingerprint", "other-query")
        envelope = {"version": PERSIST_VERSION, "key": other, "value": 9}
        with open(tier.path_for(KEY), "wb") as handle:
            pickle.dump(envelope, handle)
        recorder = obs.StatsRecorder()
        with obs.use(recorder):
            assert tier.load(KEY) is cache_persist._MISSING
        counters = _counters(recorder)
        assert counters["kernels.cache.persist.misses"] == 1
        assert "kernels.cache.persist.invalid" not in counters

    def test_unpicklable_value_store_fails_softly(self, tier):
        recorder = obs.StatsRecorder()
        with obs.use(recorder):
            assert tier.store(KEY, threading.Lock()) is False
        assert _counters(recorder)["kernels.cache.persist.invalid"] == 1
        assert tier.stats()["files"] == 0
        assert not os.listdir(tier.directory)  # no temp file left behind

    def test_concurrent_writers_leave_a_whole_file(self, tier):
        # Many threads racing the same key: atomic rename means the
        # survivor is one complete envelope, never a torn mix.
        threads = [
            threading.Thread(target=tier.store, args=(KEY, [i] * 50))
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        value = tier.load(KEY)
        assert value in [[i] * 50 for i in range(8)]
        assert tier.stats()["files"] == 1

    def test_stray_temp_files_do_not_break_stats_or_load(self, tier):
        tier.store(KEY, 1)
        # Simulate a writer that died mid-write in another process.
        stray = tier.path_for(KEY) + ".tmp.99999.1"
        with open(stray, "wb") as handle:
            handle.write(b"half an envelo")
        assert tier.load(KEY) == 1
        assert tier.stats()["files"] == 1  # .pkl files only
        assert tier.clear() >= 1
        assert not os.path.exists(stray)  # clear sweeps temp files too


class TestMaintenance:
    def test_stats_counts_files_and_bytes(self, tier):
        assert tier.stats() == {
            "directory": tier.directory,
            "files": 0,
            "bytes": 0,
        }
        tier.store(("grounding", "a"), "x" * 100)
        tier.store(("grounding", "b"), "y" * 100)
        stats = tier.stats()
        assert stats["files"] == 2
        assert stats["bytes"] > 200

    def test_gc_evicts_oldest_first(self, tier):
        for index in range(4):
            key = ("grounding", f"k{index}")
            tier.store(key, index)
            # Distinct mtimes so the eviction order is deterministic.
            os.utime(tier.path_for(key), (index, index))
        recorder = obs.StatsRecorder()
        with obs.use(recorder):
            assert tier.gc(max_files=2) == 2
        assert _counters(recorder)["kernels.cache.persist.evicted"] == 2
        assert tier.load(("grounding", "k0")) is cache_persist._MISSING
        assert tier.load(("grounding", "k3")) == 3

    def test_gc_by_bytes(self, tier):
        for index in range(4):
            key = ("grounding", f"k{index}")
            tier.store(key, "x" * 512)
            os.utime(tier.path_for(key), (index, index))
        per_file = tier.stats()["bytes"] // 4
        tier.gc(max_bytes=2 * per_file + 1)
        assert tier.stats()["files"] == 2

    def test_gc_without_limits_is_a_no_op(self, tier):
        tier.store(KEY, 1)
        assert tier.gc() == 0
        assert tier.stats()["files"] == 1

    def test_clear_removes_everything(self, tier):
        tier.store(("grounding", "a"), 1)
        tier.store(("grounding", "b"), 2)
        assert tier.clear() == 2
        assert tier.stats() == {
            "directory": tier.directory,
            "files": 0,
            "bytes": 0,
        }


class TestStableToken:
    def test_frozensets_render_sorted(self):
        token = cache_persist._stable_token(frozenset({"b", "a", "c"}))
        assert token == "{'a','b','c'}"

    def test_path_is_stable_across_calls(self, tier):
        key = ("grounding", frozenset({("a", 1), ("b", 2)}), "q")
        assert tier.path_for(key) == tier.path_for(key)

    def test_kind_prefixes_the_file_name(self, tier):
        name = os.path.basename(tier.path_for(("dnf_plan", "x")))
        assert name.startswith("dnf_plan-")
        assert name.endswith(".pkl")


class TestActivation:
    def test_persistable_kinds(self):
        for kind in PERSISTABLE_KINDS:
            assert persistable((kind, "rest"))
        assert not persistable(("mu_table", "rest"))
        assert not persistable("grounding")  # bare string, not a tuple
        assert not persistable(())

    def test_configure_and_deactivate(self, tmp_path):
        tier = cache_persist.configure(str(tmp_path / "c"))
        assert cache_persist.active() is tier
        cache_persist.deactivate()
        assert cache_persist.active() is None

    def test_configure_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache_persist.ENV_CACHE_DIR, str(tmp_path / "e"))
        tier = cache_persist.configure_from_env()
        assert tier is not None
        assert tier.directory == str(tmp_path / "e")

    def test_empty_env_keeps_current_tier(self, monkeypatch):
        monkeypatch.setenv(cache_persist.ENV_CACHE_DIR, "")
        assert cache_persist.configure_from_env() is None


class TestPlanPickling:
    def test_compiled_plan_is_picklable(self, tier, triangle_db):
        """Every persistable plan kind survives the disk tier: a loaded
        plan samples exactly what the compiled one does."""
        from repro.kernels.plan import (
            compile_dnf_plan,
            compile_hamming_plan,
            compile_truth_plan,
        )
        from repro.kernels.sampling import (
            sample_hamming_batches,
            sample_truth_batches,
        )
        from repro.reliability.exact import as_query
        from repro.reliability.grounding import ground_existential_to_dnf
        from repro.util.rng import make_rng

        query = as_query("exists x. exists y. E(x, y) & S(y)")
        grounded = ground_existential_to_dnf(triangle_db, query.formula).dnf
        plans = {
            "truth_plan": (
                compile_truth_plan(triangle_db, query),
                lambda plan: sample_truth_batches(plan, make_rng(1), 2000, 0.05),
            ),
            "hamming_plan": (
                compile_hamming_plan(triangle_db, as_query("E(x, y) & S(y)")),
                lambda plan: sample_hamming_batches(
                    plan, make_rng(1), 2000, 0.05
                ),
            ),
            "dnf_plan": (
                compile_dnf_plan(grounded),
                lambda plan: (plan.variables, plan.clauses),
            ),
        }
        for kind, (plan, fingerprint) in plans.items():
            assert kind in PERSISTABLE_KINDS
            assert tier.store((kind, "k"), plan) is True
            clone = tier.load((kind, "k"))
            assert clone is not plan
            assert fingerprint(clone) == fingerprint(plan), kind


class TestMemoryTierIntegration:
    """get_or_create consults the disk tier on memory misses."""

    def test_disk_hit_is_not_a_compile_miss(self, tmp_path):
        cache_persist.configure(str(tmp_path / "c"))
        first = LruCache(capacity=8)
        second = LruCache(capacity=8)  # a "new process"
        calls = []

        def factory():
            calls.append(1)
            return {"compiled": True}

        recorder = obs.StatsRecorder()
        with obs.use(recorder):
            first.get_or_create(KEY, factory)
            assert second.get_or_create(KEY, factory) == {"compiled": True}
        assert calls == [1]  # the second cache never compiled
        counters = _counters(recorder)
        assert counters["kernels.cache.misses"] == 1
        assert counters["kernels.cache.persist.hits"] == 1
        assert counters["kernels.cache.persist.stores"] == 1

    def test_non_persistable_kinds_stay_memory_only(self, tmp_path):
        tier = cache_persist.configure(str(tmp_path / "c"))
        cache = LruCache(capacity=8)
        cache.get_or_create(("mu_table", "k"), lambda: 1)
        assert tier.stats()["files"] == 0

    def test_corrupt_disk_entry_falls_back_to_factory(self, tmp_path):
        tier = cache_persist.configure(str(tmp_path / "c"))
        with open(tier.path_for(KEY), "wb") as handle:
            handle.write(b"garbage")
        cache = LruCache(capacity=8)
        assert cache.get_or_create(KEY, lambda: "cold") == "cold"
        # The cold compile repaired the file for the next process.
        assert tier.load(KEY) == "cold"

    def test_inactive_tier_changes_nothing(self, tmp_path):
        cache_persist.deactivate()
        cache = LruCache(capacity=8)
        assert cache.get_or_create(KEY, lambda: 5) == 5
        assert not os.path.exists(str(tmp_path / "never-created"))


class TestWarmStartAcrossProcesses:
    """The CI warm-start smoke, in miniature: two interpreters, one dir."""

    SCRIPT = """
import sys
from fractions import Fraction
from repro import obs
from repro.kernels import cache_persist
from repro.reliability.exact import truth_probability
from repro.reliability.unreliable import UnreliableDatabase
from repro.relational.builder import StructureBuilder
from repro.relational.atoms import Atom

cache_persist.configure(sys.argv[1])
builder = StructureBuilder(range(4))
builder.relation("E", 2)
for pair in [(0, 1), (1, 0), (1, 2), (2, 1)]:
    builder.add("E", pair)
mu = {Atom("E", pair): Fraction(1, 8)
      for pair in [(0, 1), (1, 0), (1, 2), (2, 1)]}
db = UnreliableDatabase(builder.build(), mu)
with obs.recording() as recorder:
    value = truth_probability(db, "exists x y. E(x, y) & E(y, x)",
                              method="dnf")
counters = recorder.summary()["counters"]
print(value)
print("compile_misses", counters.get("kernels.cache.misses", 0))
print("persist_hits", counters.get("kernels.cache.persist.hits", 0))
"""

    def _run(self, cache_dir):
        env = dict(os.environ)
        root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        env["PYTHONPATH"] = os.path.join(root, "src")
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, cache_dir],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        lines = result.stdout.strip().splitlines()
        value = lines[0]
        fields = dict(line.split() for line in lines[1:])
        return value, int(fields["compile_misses"]), int(
            fields["persist_hits"]
        )

    def test_second_process_starts_warm(self, tmp_path):
        cache_dir = str(tmp_path / "shared")
        cold_value, cold_misses, cold_hits = self._run(cache_dir)
        warm_value, warm_misses, warm_hits = self._run(cache_dir)
        assert cold_value == warm_value  # bit-identical Fractions
        assert cold_misses > 0 and cold_hits == 0
        assert warm_hits > 0
        assert warm_misses == 0  # zero recompiles on the warm path


class TestCliCacheCommands:
    def test_stats_clear_gc(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "c")
        tier = PersistentCache(cache_dir)
        for index in range(3):
            key = ("grounding", f"k{index}")
            tier.store(key, index)
            os.utime(tier.path_for(key), (index, index))

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "files      3" in out

        assert main(
            ["cache", "gc", "--cache-dir", cache_dir, "--max-files", "1"]
        ) == 0
        assert "evicted 2" in capsys.readouterr().out

        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert tier.stats()["files"] == 0

    def test_env_var_names_the_directory(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        cache_dir = str(tmp_path / "from-env")
        PersistentCache(cache_dir).store(KEY, 1)
        monkeypatch.setenv(cache_persist.ENV_CACHE_DIR, cache_dir)
        assert main(["cache", "stats"]) == 0
        assert "files      1" in capsys.readouterr().out

    def test_no_directory_is_a_clean_error(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.delenv(cache_persist.ENV_CACHE_DIR, raising=False)
        assert main(["cache", "stats"]) == 2
        assert "no cache directory" in capsys.readouterr().err

    def test_run_cache_dir_flag_warm_starts(self, tmp_path, capsys):
        from repro.cli import main
        from repro.relational.encoding import encode_unreliable_database
        from repro.relational.builder import StructureBuilder
        from repro.relational.atoms import Atom
        from repro.reliability.unreliable import UnreliableDatabase
        from fractions import Fraction

        builder = StructureBuilder(["a", "b"])
        builder.relation("E", 2)
        builder.add("E", ("a", "b"))
        builder.add("E", ("b", "a"))
        mu = {
            Atom("E", ("a", "b")): Fraction(1, 8),
            Atom("E", ("b", "a")): Fraction(1, 8),
        }
        db_path = tmp_path / "db.txt"
        db_path.write_text(
            encode_unreliable_database(UnreliableDatabase(builder.build(), mu))
        )
        cache_dir = str(tmp_path / "c")
        query = "exists x y. E(x, y) & E(y, x)"
        argv = [
            "run", str(db_path), query, "--cache-dir", cache_dir, "--stats"
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "kernels.cache.persist.stores" in cold
        # Same interpreter: clear the memory tier to simulate process two.
        from repro.kernels.cache import clear_caches

        clear_caches()
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "kernels.cache.persist.hits" in warm
        assert "kernels.cache.misses" not in warm
