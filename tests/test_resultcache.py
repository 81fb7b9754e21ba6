"""Content-addressed result cache: keys, pack robustness, warm parity.

The headline guarantee under test: a warm resubmit of a sweep serves
every task from the cache (hits == tasks, misses == 0), renders a
byte-identical ``aggregate.json`` at any worker count / executor /
cohort packing, and is at least 20x faster than the cold run that
populated it. Damage of any kind to an entry degrades to a miss —
never an error, never a wrong byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
import zlib

import pytest

from repro.fleet import FleetRunner
from repro.fleet.planner import (
    TaskSpec,
    plan_from_spec,
    plan_matrix,
    residual_plan,
)
from repro.fleet.resultcache import (
    ResultCache,
    _encode_entry,
    resolve_cache,
    task_key,
)
from repro.serve.jobs import JobQueue
from repro.serve.store import RunRegistry
from repro.testbed.harness import HandlingMode

TASK = TaskSpec(task_id=3, scenario="cp_timeout_transient",
                handling="legacy", seed=123, replica=1)
RECORD = {"task_id": 3, "scenario": "cp_timeout_transient",
          "handling": "legacy", "seed": 123, "disruption_ms": 40.0}
LEARNING = {"net_record": {"7": {"reset_sim": 2}}}


def fast_plan(replicas=2, modes=None, cohort_size=1, seed=77):
    """A cheap real plan: two quick scenarios, real simulation."""
    return plan_matrix(
        scenario_patterns=["cp_timeout_transient", "dp_transient"],
        modes=modes or [HandlingMode.LEGACY, HandlingMode.SEED_R],
        replicas=replicas, master_seed=seed, shard_size=2,
        cohort_size=cohort_size)


def task_count(plan):
    return sum(len(shard.tasks) for shard in plan.shards)


def run_once(plan, out, cache=None, workers=1, executor="auto"):
    return FleetRunner(plan, workers=workers, out_dir=str(out),
                       executor=executor, cache=cache).run()


def aggregate_bytes(out):
    return (out / "aggregate.json").read_bytes()


class TestKeys:
    def test_plan_coordinates_do_not_split_keys(self):
        # task_id and replica locate a task in a plan; the result bytes
        # do not depend on them, so neither may the key.
        relocated = TaskSpec(task_id=999, scenario=TASK.scenario,
                             handling=TASK.handling, seed=TASK.seed,
                             replica=7)
        assert task_key(TASK, "code") == task_key(relocated, "code")

    @pytest.mark.parametrize("field,value", [
        ("scenario", "dp_transient"),
        ("handling", "seed_r"),
        ("seed", 124),
        ("horizon", 30.0),
        ("android_timers", {"sync_period_s": 60.0}),
    ])
    def test_every_stable_field_reaches_the_key(self, field, value):
        varied = dataclasses.replace(TASK, **{field: value})
        assert task_key(TASK, "code") != task_key(varied, "code")

    def test_code_fingerprint_reaches_the_key(self):
        assert task_key(TASK, "aaaa") != task_key(TASK, "bbbb")

    def test_code_version_override_sets_generation(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="feedface")
        assert cache.generation == "feedface"
        cache.store(TASK, RECORD, LEARNING)
        assert [p.parent.name for p in tmp_path.rglob("*.log")] == ["feedface"]


class TestRoundtrip:
    def test_store_then_lookup(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="g1")
        assert cache.lookup(TASK) is None
        assert cache.store(TASK, RECORD, LEARNING)
        hit = cache.lookup(TASK)
        assert hit == (RECORD, LEARNING)

    def test_hit_rewrites_task_id_to_the_requesting_plan(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="g1")
        cache.store(TASK, RECORD, LEARNING)
        relocated = TaskSpec(task_id=41, scenario=TASK.scenario,
                             handling=TASK.handling, seed=TASK.seed)
        record, learning = cache.lookup(relocated)
        assert record["task_id"] == 41
        assert learning == LEARNING

    def test_store_leaves_no_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="g1")
        cache.store(TASK, RECORD, LEARNING)
        assert [p.name for p in tmp_path.rglob("*.tmp")] == []


class TestStoreReusesLookupKey:
    def test_inline_sweep_derives_each_key_once(self, tmp_path, monkeypatch):
        """The inline store of a miss reuses the key its lookup derived:
        one ``task_key`` call per stored task, and every stored frame
        still carries ``task_key(task, code)``."""
        from repro.fleet import resultcache

        derived = []
        real_task_key = resultcache.task_key

        def counting_task_key(task, code):
            derived.append(task.task_id)
            return real_task_key(task, code)

        monkeypatch.setattr(resultcache, "task_key", counting_task_key)
        plan = fast_plan()
        cache = ResultCache(tmp_path / "cache")
        report = run_once(plan, tmp_path / "cold", cache, executor="inline")

        tasks = plan.tasks
        assert report.cache_misses == len(tasks)
        assert sorted(derived) == sorted(task.task_id for task in tasks)
        stored = [raw_key
                  for name in sorted(os.listdir(cache._dir))
                  for _, raw_key, _ in resultcache._frames(
                      os.path.join(cache._dir, name), 0,
                      os.path.getsize(os.path.join(cache._dir, name)))]
        assert sorted(stored) == sorted(
            bytes.fromhex(real_task_key(task, cache.generation))
            for task in tasks)

    def test_stale_miss_of_another_task_is_not_reused(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.lookup(TASK) is None
        other = dataclasses.replace(TASK, seed=TASK.seed + 1)
        assert cache.store(other, RECORD, LEARNING)
        assert cache.lookup(TASK) is None
        assert cache.lookup(other) is not None


class TestDamage:
    """Every byte of an entry is load-bearing; no damage may raise."""

    def entry(self, tmp_path):
        # The entry is the one frame of the writer's log.
        cache = ResultCache(tmp_path, code_version="g1")
        cache.store(TASK, RECORD, LEARNING)
        [path] = (tmp_path / "g1").glob("*.log")
        return cache, path, path.read_bytes()

    def test_truncation_at_every_offset_is_a_miss(self, tmp_path):
        cache, path, data = self.entry(tmp_path)
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            assert cache.lookup(TASK) is None, f"truncated at {cut}"
        path.write_bytes(data)
        assert cache.lookup(TASK) is not None

    def test_byte_flip_at_every_offset_is_a_miss(self, tmp_path):
        cache, path, data = self.entry(tmp_path)
        for pos in range(len(data)):
            flipped = bytearray(data)
            flipped[pos] ^= 0xFF
            path.write_bytes(bytes(flipped))
            assert cache.lookup(TASK) is None, f"flipped byte {pos}"

    def test_garbage_and_empty_files_are_misses(self, tmp_path):
        cache, path, _ = self.entry(tmp_path)
        for junk in (b"", b"\x00" * 64, b"not a pack file at all"):
            path.write_bytes(junk)
            assert cache.lookup(TASK) is None

    def test_entry_under_the_wrong_key_is_a_miss(self, tmp_path):
        # A valid pack whose body names another key (e.g. a bad copy)
        # must not satisfy this task.
        cache, path, _ = self.entry(tmp_path)
        path.write_bytes(_encode_entry("0" * 64, RECORD, LEARNING))
        assert cache.lookup(TASK) is None

    def test_unreadable_root_is_a_miss_not_an_error(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created", code_version="g1")
        assert cache.lookup(TASK) is None

    def test_body_naming_another_key_is_a_miss(self, tmp_path):
        # The header names this task, the checksummed body another one
        # (a bad copy): both keys must match for a hit.
        cache, path, _ = self.entry(tmp_path)
        foreign = _encode_entry("0" * 64, RECORD, LEARNING)
        key_at = len(b"SEEDRC") + 1
        path.write_bytes(foreign[:key_at] + bytes.fromhex(cache.key(TASK))
                         + foreign[key_at + 32:])
        assert cache.lookup(TASK) is None


class TestConcurrentWriters:
    def test_last_writer_wins_and_bytes_stay_whole(self, tmp_path):
        # Two writers racing on one key (two pool workers, or two
        # daemons sharing a cache dir). Each appends whole frames to a
        # log of its own, so the reader sees one writer's bytes in full,
        # and a refresh indexes the later frame over the earlier one —
        # since real writers produce identical bytes for identical keys,
        # either answer is correct. Here the payloads differ to observe
        # the ordering.
        cache_a = ResultCache(tmp_path, code_version="g1")
        cache_b = ResultCache(tmp_path, code_version="g1")
        first = dict(RECORD, disruption_ms=1.0)
        second = dict(RECORD, disruption_ms=2.0)
        assert cache_a.store(TASK, first, LEARNING)
        assert cache_b.store(TASK, second, LEARNING)
        record, _ = cache_a.lookup(TASK)
        assert record["disruption_ms"] == 2.0
        record, _ = ResultCache(tmp_path, code_version="g1").lookup(TASK)
        assert record["disruption_ms"] == 2.0
        assert len(list((tmp_path / "g1").glob("*.log"))) == 2


class TestResidualPlan:
    def test_nothing_done_returns_the_plan_itself(self):
        plan = fast_plan()
        assert residual_plan(plan, set()) is plan

    def test_fully_covered_shards_disappear(self):
        plan = fast_plan()
        covered = {t.task_id for t in plan.shards[0].tasks}
        residual = residual_plan(plan, covered)
        assert len(residual.shards) == len(plan.shards) - 1
        assert plan.shards[0].shard_id not in {
            s.shard_id for s in residual.shards}

    def test_partial_shard_keeps_id_and_remaining_tasks(self):
        plan = fast_plan()
        victim = plan.shards[0]
        residual = residual_plan(plan, {victim.tasks[0].task_id})
        kept = residual.shards[0]
        assert kept.shard_id == victim.shard_id
        assert kept.tasks == victim.tasks[1:]

    def test_cohort_shrinks_and_singleton_degrades(self):
        plan = fast_plan(replicas=4, modes=[HandlingMode.LEGACY],
                         cohort_size=4)
        cohort = next(s for s in plan.shards if s.cohort_size == 4)
        # Drop one member: still a (smaller) cohort shard.
        one_gone = residual_plan(plan, {cohort.tasks[0].task_id})
        shrunk = next(s for s in one_gone.shards
                      if s.shard_id == cohort.shard_id)
        assert len(shrunk.tasks) == 3 and shrunk.cohort_size == 4
        # Drop all but one: degrades to a plain single-task shard,
        # exactly like a chunked singleton piece.
        all_but_one = residual_plan(
            plan, {t.task_id for t in cohort.tasks[1:]})
        single = next(s for s in all_but_one.shards
                      if s.shard_id == cohort.shard_id)
        assert len(single.tasks) == 1 and single.cohort_size == 1


class TestWarmResubmit:
    """The acceptance matrix: byte parity + full hits, everywhere."""

    @pytest.mark.parametrize("workers,executor,cohort_size", [
        (1, "inline", 1),
        (4, "pool", 1),
        (1, "inline", 2),
        (4, "pool", 2),
    ])
    def test_warm_run_is_all_hits_and_byte_identical(
            self, tmp_path, workers, executor, cohort_size):
        plan = fast_plan(cohort_size=cohort_size)
        tasks = task_count(plan)
        cache = ResultCache(tmp_path / "cache")

        run_once(plan, tmp_path / "ref")  # the no-cache reference
        cold = run_once(plan, tmp_path / "cold", cache,
                        workers=workers, executor=executor)
        warm = run_once(plan, tmp_path / "warm", cache,
                        workers=workers, executor=executor)

        assert (cold.cache_hits, cold.cache_misses) == (0, tasks)
        assert (warm.cache_hits, warm.cache_misses) == (tasks, 0)
        reference = aggregate_bytes(tmp_path / "ref")
        assert aggregate_bytes(tmp_path / "cold") == reference
        assert aggregate_bytes(tmp_path / "warm") == reference

    def test_partial_cohort_hit_shrinks_and_stays_byte_identical(
            self, tmp_path):
        # Prime the cache with half the replicas, then sweep them all:
        # the cohort shards run with the residual members only (the
        # PR 7 parity invariant makes any cohort partition record-
        # equivalent), and the bytes still match the uncached run.
        prime = fast_plan(replicas=2, modes=[HandlingMode.LEGACY],
                          cohort_size=4)
        full = fast_plan(replicas=4, modes=[HandlingMode.LEGACY],
                         cohort_size=4)
        cache = ResultCache(tmp_path / "cache")

        run_once(prime, tmp_path / "prime", cache)
        run_once(full, tmp_path / "ref")
        report = run_once(full, tmp_path / "mixed", cache)

        primed = task_count(prime)
        assert report.cache_hits == primed
        assert report.cache_misses == task_count(full) - primed
        assert (aggregate_bytes(tmp_path / "mixed")
                == aggregate_bytes(tmp_path / "ref"))

    def test_code_fingerprint_bump_is_a_full_miss(self, tmp_path):
        plan = fast_plan()
        tasks = task_count(plan)
        old = ResultCache(tmp_path / "cache", code_version="old-code")
        new = ResultCache(tmp_path / "cache", code_version="new-code")

        run_once(plan, tmp_path / "ref")
        run_once(plan, tmp_path / "old", old)
        report = run_once(plan, tmp_path / "new", new)

        # Nothing from the old generation may satisfy the new one; the
        # recompute still renders the same bytes.
        assert (report.cache_hits, report.cache_misses) == (0, tasks)
        assert (aggregate_bytes(tmp_path / "new")
                == aggregate_bytes(tmp_path / "ref"))

    def test_warm_resubmit_is_twenty_times_faster(self, tmp_path):
        # The headline perf claim, pinned on a real paper suite (the
        # quick scenarios are too cheap to separate signal from fixed
        # overhead): a fully-warm resubmit skips all simulation, so
        # even on a slow machine the gap is wide.
        plan = plan_from_spec(
            {"kind": "suite", "suite": "table4", "runs": 8, "seed": 4000})
        cache = ResultCache(tmp_path / "cache")

        started = time.perf_counter()
        run_once(plan, tmp_path / "cold", cache)
        cold_wall = time.perf_counter() - started

        started = time.perf_counter()
        warm = run_once(plan, tmp_path / "warm", cache)
        warm_wall = time.perf_counter() - started

        assert warm.cache_misses == 0
        assert warm_wall * 20 <= cold_wall, (
            f"warm {warm_wall:.4f}s vs cold {cold_wall:.4f}s")


class TestEviction:
    def test_dead_generations_go_first(self, tmp_path):
        dead = ResultCache(tmp_path, code_version="dead")
        dead.store(TASK, RECORD, LEARNING)
        live = ResultCache(tmp_path, code_version="live", max_bytes=10_000)
        live.store(TASK, RECORD, LEARNING)

        evicted = live.prune()  # under the bound: nothing to do
        assert evicted == {"removed_generations": 0, "removed_entries": 0}

        live.max_bytes = 300  # one entry's worth
        evicted = live.prune()
        assert evicted["removed_generations"] == 1
        assert "dead" not in live.stats()["generations"]
        assert live.lookup(TASK) is not None

    def test_live_generation_shrinks_to_the_bound(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="live", max_bytes=0)
        for seed in range(4):
            cache.store(TaskSpec(task_id=seed, scenario="s", handling="legacy",
                                 seed=seed), RECORD, LEARNING)
        evicted = cache.prune()
        assert evicted["removed_entries"] == 4
        assert cache.stats()["generations"]["live"]["entries"] == 0

    def test_entry_vanishing_mid_prune_never_raises(self, tmp_path,
                                                    monkeypatch):
        # A second pruner (another daemon on the same root) unlinks an
        # entry between this pruner's directory listing and its stat.
        # Prune must shrug that off: FleetRunner prunes before it writes
        # aggregate.json, and serve marks a job FAILED on any raise.
        plan = fast_plan()
        run_once(plan, tmp_path / "ref")
        cache = ResultCache(tmp_path / "cache", code_version="live",
                            max_bytes=0)
        for seed in range(4):
            cache.store(TaskSpec(task_id=seed, scenario="s", handling="legacy",
                                 seed=seed), RECORD, LEARNING)
        real_scandir = os.scandir
        vanished = []

        def racing_scandir(path="."):
            with real_scandir(path) as listing:
                entries = _Listing(listing)
            for entry in entries:
                if entry.name.endswith((".log", ".rc")):
                    os.unlink(entry.path)
                    vanished.append(entry.name)
                    break
            return entries

        monkeypatch.setattr(os, "scandir", racing_scandir)
        cache.prune()
        assert vanished
        assert list((tmp_path / "cache").rglob("*.log")) == []

        run_once(plan, tmp_path / "run", cache)
        assert aggregate_bytes(tmp_path / "run") == aggregate_bytes(
            tmp_path / "ref")


class _Listing(list):
    """A finished directory listing that still works as ``os.scandir``'s
    context manager."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


def log_names(directory):
    return sorted(p.name for p in directory.glob("*.log"))


def v1_entry(key, record, learning):
    """A version-1 pack file: magic, version 1, length, sha256, body."""
    body = zlib.compress(json.dumps(
        {"key": key, "learning": learning, "record": record},
        sort_keys=True, separators=(",", ":")).encode())
    return (b"SEEDRC" + bytes((1,)) + len(body).to_bytes(4, "little")
            + hashlib.sha256(body).digest() + body)


class TestLogStore:
    """Append-only logs: one writer per log, an index in the reader."""

    def test_forked_workers_append_to_their_own_logs(self, tmp_path):
        # The parent stores inline first, so its log is open when the
        # sweep's own pool forks: the children inherit the descriptor
        # and must never write through it.
        cache = ResultCache(tmp_path / "cache", code_version="g1")
        assert cache.store(TASK, RECORD, LEARNING)
        gen_dir = tmp_path / "cache" / "g1"
        [parent_log] = log_names(gen_dir)
        assert parent_log.startswith(f"{os.getpid()}-")
        parent_bytes = (gen_dir / parent_log).read_bytes()

        plan = fast_plan()
        tasks = task_count(plan)
        cold = run_once(plan, tmp_path / "cold", cache, workers=2,
                        executor="pool")
        assert (cold.cache_hits, cold.cache_misses) == (0, tasks)

        assert (gen_dir / parent_log).read_bytes() == parent_bytes
        children = [name for name in log_names(gen_dir) if name != parent_log]
        assert 1 <= len(children) <= 2
        assert len({name.split("-")[0] for name in children}) == len(children)
        assert not any(name.startswith(f"{os.getpid()}-")
                       for name in children)
        assert cache.stats()["generations"]["g1"]["entries"] == 1 + tasks

        warm = run_once(plan, tmp_path / "warm", cache, workers=2,
                        executor="pool")
        assert (warm.cache_hits, warm.cache_misses) == (tasks, 0)
        assert aggregate_bytes(tmp_path / "warm") == aggregate_bytes(
            tmp_path / "cold")

    def test_store_after_eviction_lands_in_a_new_visible_log(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="g1")
        assert cache.store(TASK, RECORD, LEARNING)
        [evicted] = log_names(tmp_path / "g1")
        cache.max_bytes = 0
        assert cache.prune()["removed_entries"] == 1
        cache.max_bytes = 10_000

        other = dataclasses.replace(TASK, seed=124)
        assert cache.store(other, RECORD, LEARNING)
        [fresh_log] = log_names(tmp_path / "g1")
        assert fresh_log != evicted
        reader = ResultCache(tmp_path, code_version="g1")
        assert reader.lookup(other) == (RECORD, LEARNING)
        assert reader.lookup(TASK) is None

    @pytest.mark.parametrize("cut", [1, 40, 100, -1])
    def test_half_written_frame_is_indexed_once_complete(self, tmp_path,
                                                         cut):
        # A writer caught mid-append: the log ends in part of a frame.
        # A refresh must stop there, then pick the frame up once the
        # rest has landed.
        other = dataclasses.replace(TASK, seed=124)
        first = _encode_entry(task_key(other, "g1"), RECORD, LEARNING)
        frame = _encode_entry(task_key(TASK, "g1"), RECORD, LEARNING)
        path = tmp_path / "g1" / "1-0.log"
        path.parent.mkdir()
        path.write_bytes(first + frame[:cut])

        reader = ResultCache(tmp_path, code_version="g1")
        assert reader.lookup(other) == (RECORD, LEARNING)
        assert reader.lookup(TASK) is None
        reader.refresh()
        assert reader.lookup(TASK) is None

        with path.open("ab") as log:
            log.write(frame[cut:])
        reader.refresh()
        assert reader.lookup(TASK) == (RECORD, LEARNING)

    def test_v1_tree_is_pruned_and_never_read(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="g1")
        key = cache.key(TASK)
        fanout = tmp_path / "g1" / key[:2]
        fanout.mkdir(parents=True)
        (fanout / f"{key}.rc").write_bytes(v1_entry(key, RECORD, LEARNING))
        other = dataclasses.replace(TASK, seed=124)
        assert cache.store(other, RECORD, LEARNING)

        assert cache.lookup(TASK) is None
        # Under the bound nothing live goes, but the v1 tree always does.
        assert cache.prune() == {"removed_generations": 0,
                                 "removed_entries": 0}
        assert not fanout.exists()
        assert cache.lookup(other) == (RECORD, LEARNING)
        assert ResultCache(tmp_path, code_version="g1").lookup(TASK) is None


class TestResolveCache:
    def test_flag_off_beats_everything(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        assert resolve_cache(False) is None

    def test_env_off_disables_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "off")
        assert resolve_cache(None) is None

    def test_explicit_flag_overrides_env_off(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "off")
        cache = resolve_cache(True, cache_dir=tmp_path / "c")
        assert cache is not None and cache.root == tmp_path / "c"

    def test_env_value_is_the_cache_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "env-dir"))
        cache = resolve_cache(None)
        assert cache is not None and cache.root == tmp_path / "env-dir"

    def test_flag_dir_beats_env_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "env-dir"))
        cache = resolve_cache(None, cache_dir=tmp_path / "flag-dir")
        assert cache.root == tmp_path / "flag-dir"

    def test_default_dir_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        cache = resolve_cache(None, default_dir=tmp_path / "d")
        assert cache.root == tmp_path / "d"


SPEC = {"kind": "matrix",
        "scenarios": ["cp_timeout_transient", "dp_transient"],
        "modes": ["legacy", "seed_r"],
        "replicas": 2, "seed": 77, "shard_size": 2}


def wait_terminal(job, timeout=180.0):
    for _ in range(int(timeout / 0.5) + 1):
        if job.state.terminal:
            return job
        job.wait(job.version, timeout=0.5)
    raise AssertionError(f"job stuck in {job.state} after {timeout}s")


class TestServeSharedCache:
    def test_second_job_is_all_hits(self, tmp_path):
        # The resubmit reshards the same tasks (shard_size 2 → 4):
        # a *different* plan fingerprint, so checkpoint resume cannot
        # satisfy it — every record comes from the shared cache. (An
        # identical spec would restore from its own checkpoint without
        # probing the cache at all, which is the cheaper path anyway.)
        cache = ResultCache(tmp_path / "cache")
        queue = JobQueue(None, RunRegistry(tmp_path / "registry"),
                         tmp_path / "jobs", cache=cache)
        queue.start()
        try:
            first = wait_terminal(queue.submit(SPEC))
            second = wait_terminal(queue.submit(dict(SPEC, shard_size=4)))
        finally:
            queue.stop()

        tasks = first.snapshot(aggregate=False)["tasks_total"]
        snap_first = first.snapshot(aggregate=False)
        snap_second = second.snapshot(aggregate=False)
        assert snap_first["state"] == snap_second["state"] == "done"
        assert (snap_first["cache_hits"],
                snap_first["cache_misses"]) == (0, tasks)
        assert (snap_second["cache_hits"],
                snap_second["cache_misses"]) == (tasks, 0)

        stats = queue.cache_stats()
        assert stats["enabled"] is True
        assert stats["hits"] == tasks and stats["misses"] == tasks
        assert stats["hit_rate"] == 0.5

    def test_disabled_queue_reports_no_cache(self, tmp_path):
        queue = JobQueue(None, RunRegistry(tmp_path / "registry"),
                         tmp_path / "jobs", cache=None)
        stats = queue.cache_stats()
        assert stats == {"enabled": False, "hits": 0, "misses": 0,
                         "hit_rate": None}
