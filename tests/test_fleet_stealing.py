"""Work-stealing scheduler: batching, queue order, and determinism.

The pool feeds one shared executor queue with fine-grained batches in
plan (shard-id) order; workers pull as they drain. These tests pin the
deterministic pieces — queue order, batch shapes — and the invariant
that stealing never changes results.
"""

from __future__ import annotations

from repro.fleet.planner import FleetPlan, TaskSpec, plan_matrix, shard_tasks
from repro.fleet.pool import _batches, execute_plan
from repro.testbed.harness import HandlingMode


def _task(task_id, scenario="cp_timeout_transient", handling="legacy"):
    return TaskSpec(task_id=task_id, scenario=scenario, handling=handling,
                    seed=task_id)


def synthetic_shard_fn(payload):
    """Module-level (picklable) synthetic shard result."""
    return {"shard_id": payload["shard_id"],
            "tasks": [{"task_id": t["task_id"]} for t in payload["tasks"]],
            "learning": {}}


class TestBatches:
    def test_batches_partition_the_round(self):
        ids = list(range(23))
        batches = _batches(ids, workers=4)
        flattened = [sid for batch in batches for sid in batch]
        assert flattened == ids  # order preserved, nothing lost

    def test_sizes_decrease_to_single_shard_tail(self):
        sizes = [len(b) for b in _batches(list(range(40)), workers=4)]
        assert sizes[0] == max(sizes)
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] == 1
        assert len(sizes) > 4  # finer-grained than one-chunk-per-worker

    def test_single_worker_still_batches(self):
        assert _batches([1, 2, 3], workers=1)

    def test_empty_round(self):
        assert _batches([], workers=4) == []


class TestStealingDeterminism:
    def test_inline_execution_follows_queue_order(self):
        """workers<=1 drains the queue in plan order — the same order a
        single pool worker would pull batches in — whatever the tasks'
        scenarios and modes."""
        tasks = (
            [_task(i, handling="seed_r") for i in range(2)]
            + [_task(i + 2, scenario="dp_outdated_dnn", handling="legacy")
               for i in range(2)]
        )
        plan = FleetPlan(master_seed=0, shards=shard_tasks(tasks, shard_size=1))
        seen = []

        def recording(payload):
            seen.append(payload["shard_id"])
            return {"shard_id": payload["shard_id"], "tasks": [], "learning": {}}

        execute_plan(plan, workers=1, shard_fn=recording)
        assert seen == [0, 1, 2, 3]

    def test_results_identical_at_any_worker_count(self):
        plan = plan_matrix(scenario_patterns=["cp_*"],
                           modes=[HandlingMode.LEGACY], replicas=2,
                           master_seed=4, shard_size=1)
        single = execute_plan(plan, workers=1, shard_fn=synthetic_shard_fn)
        quad = execute_plan(plan, workers=4, shard_fn=synthetic_shard_fn)
        assert single.sorted_results() == quad.sorted_results()
