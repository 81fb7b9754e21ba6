"""repro.serve: byte parity, streaming folds, cancel/resume, registry.

The served path's hard invariant under test: an ``aggregate.json``
produced by the daemon's streaming fold is **byte-identical** to the
batch ``python -m repro.fleet`` aggregate for the same spec and seed —
at one worker and at four.
"""

import json
import os
import signal
import threading
import time

from repro.analysis.incremental import AggregateState
from repro.fleet import FleetRunner, WorkerPool, canonical_json, execute_plan
from repro.fleet.aggregate import aggregate_records
from repro.fleet.checkpoint import Checkpoint
from repro.fleet.planner import plan_from_spec
from repro.fleet.worker import run_shard
from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import ServeDaemon
from repro.serve.jobs import Job, JobQueue, JobState
from repro.serve.store import RunRegistry, diff_runs, render_diff

#: Small real sweep: 2 scenarios × 2 modes × 2 replicas = 8 tasks.
SPEC = {"kind": "matrix",
        "scenarios": ["cp_timeout_transient", "dp_transient"],
        "modes": ["legacy", "seed_r"],
        "replicas": 2, "seed": 77, "shard_size": 2}


def batch_bytes(tmp_path, spec=SPEC, name="batch"):
    """The batch-CLI reference aggregate for ``spec``, as bytes."""
    out = tmp_path / name
    FleetRunner(plan_from_spec(spec), workers=1, out_dir=str(out)).run()
    return (out / "aggregate.json").read_bytes()


def wait_terminal(job, timeout=180.0):
    for _ in range(int(timeout / 0.5) + 1):
        if job.state.terminal:
            return job
        job.wait(job.version, timeout=0.5)
    raise AssertionError(f"job stuck in {job.state} after {timeout}s")


def serve_once(tmp_path, pool, spec=SPEC, shard_fn=run_shard, executor="auto"):
    """Run one sweep through a JobQueue; returns (job, queue)."""
    queue = JobQueue(pool, RunRegistry(tmp_path / "registry"),
                     tmp_path / "jobs", shard_fn=shard_fn, executor=executor)
    queue.start()
    try:
        job = wait_terminal(queue.submit(spec))
    finally:
        queue.stop()
    return job


class TestServedParity:
    def test_byte_identical_one_worker(self, tmp_path):
        job = serve_once(tmp_path, pool=None)
        assert job.state is JobState.DONE, job.error
        served = (tmp_path / "registry" / job.fingerprint
                  / "aggregate.json").read_bytes()
        assert served == batch_bytes(tmp_path)
        # and the streaming state renders the same bytes
        assert served == canonical_json(job.stream.result()).encode()

    def test_byte_identical_four_workers_warm(self, tmp_path):
        # executor="pool" pins the warm-pool path: auto would run a
        # spec this small inline and never touch the executor.
        with WorkerPool(4) as pool:
            job = serve_once(tmp_path, pool=pool, executor="pool")
            assert job.state is JobState.DONE, job.error
            assert pool.executors_spawned == 1
        served = (tmp_path / "registry" / job.fingerprint
                  / "aggregate.json").read_bytes()
        assert served == batch_bytes(tmp_path)

    def test_streaming_timings_recorded(self, tmp_path):
        job = serve_once(tmp_path, pool=None)
        timings = json.loads((tmp_path / "registry" / job.fingerprint
                              / "timings.json").read_text())
        for key in ("queue_wait_s", "run_wall_s", "submit_to_first_shard_s"):
            assert timings[key] >= 0.0
        assert job.shards_done == job.shards_total


class TestStreamingAggregation:
    def test_partial_states_merge_to_batch_aggregate(self):
        plan = plan_from_spec(SPEC)
        shards = [run_shard(shard.to_json()) for shard in plan.shards]
        records = [r for s in shards for r in s["tasks"]]
        learning = [s["learning"] for s in shards]
        reference = canonical_json(aggregate_records(records, learning))

        # one fold per shard, merged pairwise in reversed order — any
        # intermediate partition of the stream must reach the same bytes
        partials = []
        for shard in shards:
            state = AggregateState()
            state.fold_shard(shard)
            partials.append(state)
        merged = AggregateState()
        for state in reversed(partials):
            merged.merge(state)
        assert canonical_json(merged.result()) == reference

    def test_every_prefix_is_a_valid_aggregate(self):
        """Each intermediate snapshot equals a batch fold of its prefix."""
        plan = plan_from_spec(SPEC)
        stream = AggregateState()
        seen_records, seen_learning = [], []
        for shard in plan.shards:
            result = run_shard(shard.to_json())
            stream.fold_shard(result)
            seen_records.extend(result["tasks"])
            seen_learning.append(result["learning"])
            assert stream.result() == aggregate_records(
                seen_records, seen_learning)


#: Gates for the cancellation test: the shard function parks after the
#: first shard completes so the test can cancel deterministically
#: mid-sweep (inline execution — same process, shared events).
_FIRST_SHARD_LANDED = threading.Event()
_RESUME_GATE = threading.Event()


def _gated_shard(payload):
    result = run_shard(payload)
    _FIRST_SHARD_LANDED.set()
    assert _RESUME_GATE.wait(timeout=60.0)
    return result


class TestCancelResume:
    def test_cancel_leaves_resumable_checkpoint(self, tmp_path):
        _FIRST_SHARD_LANDED.clear()
        _RESUME_GATE.clear()
        registry = RunRegistry(tmp_path / "registry")
        queue = JobQueue(None, registry, tmp_path / "jobs",
                         shard_fn=_gated_shard)
        queue.start()
        job = queue.submit(SPEC)
        assert _FIRST_SHARD_LANDED.wait(timeout=60.0)
        queue.cancel(job.job_id)
        _RESUME_GATE.set()
        wait_terminal(job)
        queue.stop()

        assert job.state is JobState.CANCELLED
        # no aggregate recorded, but completed shards are checkpointed
        assert not (tmp_path / "registry" / job.fingerprint).exists()
        checkpoint = Checkpoint(queue.job_dir(job.fingerprint))
        checkpoint.bind(plan_from_spec(SPEC))
        done = checkpoint.completed()
        assert 0 < len(done) < len(plan_from_spec(SPEC).shards)

        # resubmitting the same spec resumes the checkpoint and reaches
        # batch-identical bytes
        resume = JobQueue(None, registry, tmp_path / "jobs")
        resume.start()
        job2 = wait_terminal(resume.submit(SPEC))
        resume.stop()
        assert job2.state is JobState.DONE, job2.error
        assert job2.fingerprint == job.fingerprint
        served = (tmp_path / "registry" / job2.fingerprint
                  / "aggregate.json").read_bytes()
        assert served == batch_bytes(tmp_path)

    def test_cancel_while_queued_never_runs(self, tmp_path):
        queue = JobQueue(None, RunRegistry(tmp_path / "registry"),
                         tmp_path / "jobs")
        # not started: the job sits queued, cancel must settle it
        job = queue.submit(SPEC)
        queue.cancel(job.job_id)
        assert job.state is JobState.CANCELLED
        queue.start()
        queue.stop()
        assert job.shards_done == 0


class TestCancelRace:
    """The dequeue/cancel race: state transitions are CAS-style, so a
    cancel that lands between dequeue and first shard dispatch reports
    ``cancelled`` immediately and can never be overwritten."""

    def _job(self):
        return Job("job-test", SPEC, plan_from_spec(SPEC))

    def test_cancel_beats_start(self):
        # request_cancel lands first: the executor's try_start must
        # refuse and the job must already read as cancelled.
        job = self._job()
        job.request_cancel()
        assert job.state is JobState.CANCELLED
        assert job.snapshot(aggregate=False)["state"] == "cancelled"
        assert not job.try_start()
        assert job.state is JobState.CANCELLED

    def test_terminal_states_are_absorbing(self):
        job = self._job()
        job.request_cancel()
        for state in (JobState.RUNNING, JobState.DONE, JobState.FAILED):
            assert not job.mark(state)
            assert job.state is JobState.CANCELLED
        assert job.error is None

    def test_start_is_exactly_once(self):
        job = self._job()
        assert job.try_start()
        assert job.state is JobState.RUNNING
        assert not job.try_start()
        # a late cancel of a running job is cooperative, not immediate
        job.request_cancel()
        assert job.state is JobState.RUNNING
        assert job.cancel_requested
        assert job.mark(JobState.CANCELLED)
        assert job.state is JobState.CANCELLED

    def test_running_only_reachable_from_queued(self):
        job = self._job()
        assert job.try_start()
        assert not job.mark(JobState.RUNNING)
        assert job.mark(JobState.DONE)
        assert job.state is JobState.DONE


class TestFoldIdentity:
    """fold(empty) == no-op: degenerate shard results are absorbed as
    the identity element instead of crashing the streaming fold."""

    def test_empty_shard_is_identity(self):
        state = AggregateState()
        baseline = state.result()
        for empty in ({}, {"tasks": None}, {"tasks": []},
                      {"tasks": [], "learning": None},
                      {"shard_id": 7, "tasks": (), "learning": {}}):
            state.fold_shard(empty)
        assert state.tasks == 0
        assert state.result() == baseline

    def test_empty_folds_do_not_perturb_real_ones(self):
        plan = plan_from_spec(SPEC)
        results = [run_shard(s.to_json()) for s in plan.shards[:2]]
        clean, dirty = AggregateState(), AggregateState()
        for result in results:
            clean.fold_shard(result)
        dirty.fold_shard({})
        dirty.fold_shard(results[0])
        dirty.fold_shard({"tasks": None, "learning": None})
        dirty.fold_shard(results[1])
        assert canonical_json(dirty.result()) == canonical_json(clean.result())


class TestPoolDiscard:
    """Broken-executor path: discard() must shut the old executor down
    (no orphaned worker bookkeeping) before the next round rebuilds."""

    def test_discard_shuts_down_and_rebuilds(self):
        pool = WorkerPool(workers=1)
        first = pool.executor()
        assert pool.executors_spawned == 1
        pool.discard()
        assert pool._executor is None
        # The discarded executor is really shut down: new work refused.
        try:
            first.submit(int)
            raise AssertionError("discarded executor accepted work")
        except RuntimeError:
            pass
        second = pool.executor()
        assert second is not first
        assert pool.executors_spawned == 2
        pool.shutdown()

    def test_discard_without_executor_is_harmless(self):
        pool = WorkerPool(workers=1)
        pool.discard()
        assert pool._executor is None
        assert pool.executors_spawned == 0
        pool.shutdown()


def _fail_dp_shards(payload):
    """Shard fn whose dp_* shards always fail (plain task failure)."""
    if any(task["scenario"].startswith("dp_") for task in payload["tasks"]):
        raise RuntimeError("synthetic shard failure")
    return run_shard(payload)


def _crash_worker(payload):
    """Shard fn that kills its worker process (breaks the executor)."""
    os._exit(1)


def _relay_shard(payload):
    """Picklable non-default shard fn that runs the shard unchanged."""
    return run_shard(payload)


class TestPoolRebuild:
    """Warm-pool respawn discipline: plain shard failures retry on the
    same executor; only an observed BrokenProcessPool rebuilds it."""

    def test_plain_failures_never_respawn(self):
        plan = plan_from_spec(SPEC)
        with WorkerPool(2) as pool:
            outcome = execute_plan(plan, retries=2, shard_fn=_fail_dp_shards,
                                   pool=pool, executor="pool")
            # every retry round reused the one live executor
            assert pool.executors_spawned == 1
        assert outcome.failed  # dp shards exhausted their attempts
        assert outcome.results  # cp shards still completed
        assert all(attempts == 3 for sid, attempts in outcome.attempts.items()
                   if sid in outcome.failed)

    def test_broken_pool_rebuilds_once_per_round(self):
        plan = plan_from_spec(SPEC)
        with WorkerPool(1) as pool:
            outcome = execute_plan(plan, retries=1, shard_fn=_crash_worker,
                                   pool=pool, executor="pool")
            # one executor per round (initial + retry), not per failure
            assert pool.executors_spawned == 2
        assert not outcome.results
        assert set(outcome.failed) == {s.shard_id for s in plan.shards}

    def test_idle_worker_death_does_not_fail_next_sweep(self, tmp_path):
        plan = plan_from_spec(SPEC)

        def sweep(pool, name):
            out = tmp_path / name
            report = FleetRunner(plan, out_dir=str(out), pool=pool,
                                 executor="pool", shard_fn=_relay_shard).run()
            assert report.complete, report.failed_shards
            return (out / "aggregate.json").read_bytes()

        with WorkerPool(2) as pool:
            first = sweep(pool, "first")
            executor = pool.executor()
            victim = next(iter(executor._processes.values()))
            os.kill(victim.pid, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while not executor._broken:
                assert time.monotonic() < deadline, "executor never broke"
                time.sleep(0.01)
            # submit() now refuses work: that round is lost, not the sweep
            assert sweep(pool, "second") == first
            assert pool.executors_spawned == 2


class TestRegistryOrdering:
    def test_fingerprints_sorted_by_name_not_recording_order(self, tmp_path):
        # Recording order (and therefore directory mtime / iterdir
        # order) must never leak into the listing: ``runs``/``diff``
        # output has to be stable no matter when entries were written.
        registry = RunRegistry(tmp_path / "registry")
        for fingerprint in ("bbbb", "aaaa", "cccc"):
            registry.record(fingerprint, spec={"kind": "matrix"},
                            aggregate_json="{}\n", timings={}, meta={})
        assert registry.fingerprints() == ["aaaa", "bbbb", "cccc"]
        assert [r["fingerprint"] for r in registry.runs()] == [
            "aaaa", "bbbb", "cccc"]


class TestRegistryDiff:
    def test_diff_is_deterministic_and_sorted(self, tmp_path):
        registry = RunRegistry(tmp_path / "registry")
        for seed, name in ((77, "a"), (78, "b")):
            spec = dict(SPEC, seed=seed)
            plan = plan_from_spec(spec)
            state = AggregateState()
            for shard in plan.shards:
                state.fold_shard(run_shard(shard.to_json()))
            registry.record(
                fingerprint=plan.fingerprint(), spec=spec,
                aggregate_json=canonical_json(state.result()),
                timings={}, meta={"job_id": name})

        fpr_a, fpr_b = (plan_from_spec(dict(SPEC, seed=s)).fingerprint()
                        for s in (77, 78))
        first = render_diff(registry.diff(fpr_a, fpr_b))
        second = render_diff(registry.diff(fpr_a, fpr_b))
        assert first == second
        diff = json.loads(first)
        assert list(diff["cells"]) == sorted(diff["cells"])
        assert diff["runs"] == {"a": fpr_a, "b": fpr_b}

    def test_self_diff_is_all_zero(self):
        plan = plan_from_spec(SPEC)
        state = AggregateState()
        for shard in plan.shards:
            state.fold_shard(run_shard(shard.to_json()))
        aggregate = state.result()
        diff = diff_runs(aggregate, aggregate)
        for cell in diff["cells"].values():
            for metric in cell.values():
                assert metric["delta"] == 0
        assert diff["learning"]["causes_added"] == []
        assert diff["learning"]["best_action_changed"] == {}


class TestHttpApi:
    def test_daemon_end_to_end(self, tmp_path):
        daemon = ServeDaemon(tmp_path / "serve", workers=1, port=0)
        daemon.start_background()
        try:
            host, port = daemon.address
            client = ServeClient(host, port)
            assert client.health()["status"] == "ok"

            status = client.submit(SPEC)
            status = client.wait_done(status["job_id"])
            assert status["state"] == "done", status["error"]
            final = client.job(status["job_id"])
            assert final["aggregate"] == json.loads(
                batch_bytes(tmp_path).decode())

            runs = client.runs()
            assert [r["fingerprint"] for r in runs] == [status["fingerprint"]]
            loaded = client.run(status["fingerprint"])
            assert loaded["aggregate"] == final["aggregate"]

            try:
                client.submit({"kind": "nope"})
                raise AssertionError("bad spec must be rejected")
            except ServeError as exc:
                assert exc.status == 400
            try:
                client.cancel("job-9999")
                raise AssertionError("unknown job must 404")
            except ServeError as exc:
                assert exc.status == 404
        finally:
            daemon.shutdown()
            daemon.close()
