"""Dispatch: executor modes, the sweep's own pool, the ``auto`` rule,
and the buffered checkpoint writer.

The invariant every parity test pins: ``aggregate.json`` is
byte-identical across executor modes (inline vs pool), pool owners
(the sweep's own vs a shared warm one), shard functions, cohort sizes
(4 and 2), and worker counts — dispatch mechanics must never be
observable in results.
"""

import multiprocessing
import os
from functools import partial

import pytest

from repro.fleet import FleetRunner, WorkerPool
from repro.fleet.checkpoint import Checkpoint
from repro.fleet.planner import plan_from_spec, plan_matrix, residual_plan
from repro.fleet.pool import execute_plan, resolve_executor
from repro.fleet.worker import run_shard
from repro.testbed.harness import HandlingMode


def cohort_plan(cohort_size=4):
    """8 tasks in cohort shards of ``cohort_size`` — the parity workload."""
    return plan_matrix(
        scenario_patterns=["cp_timeout_transient", "dp_transient"],
        modes=[HandlingMode.LEGACY, HandlingMode.SEED_R],
        replicas=2, master_seed=77, shard_size=4, cohort_size=cohort_size)


def tiny_plan():
    """One single-task shard (the cheapest real payload)."""
    return plan_matrix(
        scenario_patterns=["cp_timeout_transient"],
        modes=[HandlingMode.SEED_R], replicas=1, master_seed=5, shard_size=1)


def aggregate_bytes(tmp_path, name, plan, **runner_kwargs):
    out = tmp_path / name
    report = FleetRunner(plan, out_dir=str(out), **runner_kwargs).run()
    assert report.complete, report.failed_shards
    return (out / "aggregate.json").read_bytes()


def _proxy_shard(payload):
    """Picklable non-default shard_fn (the result cache ignores it)."""
    return run_shard(payload)


def _exit_once(marker, payload):
    """Kill the worker on shard 0's first attempt; later attempts run."""
    if payload["shard_id"] == 0 and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)
    return run_shard(payload)


# ---------------------------------------------------------------------------
# The tentpole invariant: dispatch mechanics are invisible in results
# ---------------------------------------------------------------------------
class TestAggregateParity:
    def test_pool_frames_and_chunking_match_inline(self, tmp_path):
        reference = aggregate_bytes(tmp_path, "ref", cohort_plan(), workers=1)
        # forced pool, the sweep's own pool, cohorts of 4 and of 2
        assert aggregate_bytes(tmp_path, "p4", cohort_plan(),
                               workers=2, executor="pool") == reference
        assert aggregate_bytes(tmp_path, "p2", cohort_plan(2),
                               workers=2, executor="pool") == reference
        # four workers
        assert aggregate_bytes(tmp_path, "w4", cohort_plan(2),
                               workers=4, executor="pool") == reference

    def test_legacy_dict_wire_matches_frames(self, tmp_path):
        reference = aggregate_bytes(tmp_path, "ref", cohort_plan(), workers=1)
        # a non-default shard_fn crosses the same wire as run_shard
        assert aggregate_bytes(tmp_path, "legacy", cohort_plan(), workers=2,
                               executor="pool", shard_fn=_proxy_shard,
                               ) == reference

    def test_warm_pool_frames_match_inline(self, tmp_path):
        reference = aggregate_bytes(tmp_path, "ref", cohort_plan(), workers=1)
        with WorkerPool(2) as pool:
            # a caller-owned pool: spawn-started, outlives the sweep
            assert aggregate_bytes(tmp_path, "warm", cohort_plan(2),
                                   pool=pool, executor="pool") == reference
            assert pool.executors_spawned == 1


class TestSweepPool:
    def test_killed_worker_recovers_in_round_two(self, tmp_path):
        reference = aggregate_bytes(tmp_path, "ref", cohort_plan(2), workers=1)
        out = tmp_path / "pooled"
        report = FleetRunner(
            cohort_plan(2), out_dir=str(out), workers=2, executor="pool",
            shard_fn=partial(_exit_once, str(tmp_path / "marker")),
        ).run()
        assert report.complete, report.failed_shards
        assert (tmp_path / "marker").exists()
        # the broken executor cost one attempt; round 2 finished the sweep
        assert max(report.shard_attempts.values()) == 2
        assert (out / "aggregate.json").read_bytes() == reference
        assert multiprocessing.active_children() == []


class TestExecutorResolution:
    def test_explicit_modes_pass_through(self):
        plan = tiny_plan()
        assert resolve_executor("inline", plan, 4) == "inline"
        assert resolve_executor("pool", plan, 1) == "pool"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            resolve_executor("turbo", tiny_plan(), 1)

    def test_auto_single_worker_is_inline(self):
        assert resolve_executor("auto", tiny_plan(), 1) == "inline"

    def test_auto_counts_tasks_on_benchmark_plan_shapes(self):
        """The repository benchmark's plan shapes, written out: probes
        and small warm-ups run inline, Table 4 and matrix sweeps on the
        pool, whether or not the pool has built its executor yet."""
        table4 = {"kind": "suite", "suite": "table4", "seed": 4096}
        cases = [  # (spec, tasks, executor at 2 workers)
            # serve probe: 3 scenarios x 3 modes x 2 replicas
            ({"kind": "matrix", "scenarios": [
                "cp_plmn_config", "dp_transient", "dd_gateway_stale"],
              "replicas": 2, "seed": 3}, 18, "inline"),
            # matrix warm-up on the cohort path
            ({"kind": "matrix", "modes": ["seed_r"], "replicas": 2,
              "cohort_size": 2, "seed": 3}, 36, "inline"),
            # matrix warm-up that forks the first pool
            ({"kind": "matrix", "scenarios": ["cp_*"], "modes": ["legacy"],
              "replicas": 16, "cohort_size": 16, "seed": 3}, 128, "pool"),
            # Table 4 sweeps: the serve warm-up, the serve self-test's
            # sweeps, the serve sweeps
            (dict(table4, runs=20), 138, "pool"),
            (dict(table4, runs=24), 162, "pool"),
            (dict(table4, runs=40), 270, "pool"),
            # the matrix sweep: 18 x 3 cells as 4-UE cohorts
            ({"kind": "matrix", "replicas": 4, "cohort_size": 4,
              "seed": 3}, 216, "pool"),
        ]
        plans = [(plan_from_spec(spec), tasks, want, spec)
                 for spec, tasks, want in cases]
        sweep = plans[-1][0]
        # a resubmit whose every task is a cache hit
        all_hit = residual_plan(sweep, {t.task_id for t in sweep.tasks})
        plans.append((all_hit, 0, "inline", "all-hit residual"))
        with WorkerPool(2) as warm:
            warm.executor()  # built, as after the daemon's first sweep
            for pool in (None, warm):
                for plan, tasks, want, spec in plans:
                    assert len(plan.tasks) == tasks, spec
                    assert resolve_executor("auto", plan, 2, pool) == want, spec

    def test_outcome_reports_resolved_mode(self, tmp_path):
        outcome = execute_plan(tiny_plan(), workers=4, executor="auto")
        assert outcome.executor_mode == "inline"


# ---------------------------------------------------------------------------
# Buffered checkpoint writer
# ---------------------------------------------------------------------------
class TestBufferedCheckpoint:
    def _entries(self):
        return [(0, {"shard_id": 0, "tasks": [], "learning": {}}),
                (1, {"shard_id": 1, "tasks": [], "learning": {}})]

    def test_buffered_bytes_equal_unbuffered(self, tmp_path):
        direct = Checkpoint(tmp_path / "direct")
        buffered = Checkpoint(tmp_path / "buffered")
        buffered.begin_buffered()
        for sid, result in self._entries():
            direct.record_ok(sid, result, 1)
            buffered.record_ok(sid, result, 1)
        assert not buffered.shards_path.exists()  # nothing hit disk yet
        buffered.flush()
        assert (buffered.shards_path.read_bytes()
                == direct.shards_path.read_bytes())

    def test_flush_is_idempotent_and_incremental(self, tmp_path):
        checkpoint = Checkpoint(tmp_path / "run")
        checkpoint.begin_buffered()
        checkpoint.record_ok(0, {"shard_id": 0, "tasks": [], "learning": {}}, 1)
        checkpoint.flush()
        first = checkpoint.shards_path.read_bytes()
        checkpoint.flush()  # empty buffer: no-op
        assert checkpoint.shards_path.read_bytes() == first
        checkpoint.record_failed(1, "boom", 1)
        checkpoint.flush()
        lines = checkpoint.shards_path.read_text().splitlines()
        assert len(lines) == 2
        assert checkpoint.completed().keys() == {0}
        assert checkpoint.failures().keys() == {1}

    def test_begin_buffered_is_idempotent(self, tmp_path):
        checkpoint = Checkpoint(tmp_path / "run")
        checkpoint.begin_buffered()
        checkpoint.record_ok(0, {"shard_id": 0, "tasks": [], "learning": {}}, 1)
        checkpoint.begin_buffered()  # must not drop the pending record
        checkpoint.flush()
        assert checkpoint.completed().keys() == {0}

    def test_execute_plan_checkpoint_matches_inline_records(self, tmp_path):
        plan = tiny_plan()
        execute_plan(plan, checkpoint=Checkpoint(tmp_path / "a"),
                     executor="inline")
        execute_plan(plan, workers=2, executor="pool",
                     checkpoint=Checkpoint(tmp_path / "b"))
        read = lambda name: sorted(
            (tmp_path / name / "shards.jsonl").read_text().splitlines())
        assert read("a") == read("b")
