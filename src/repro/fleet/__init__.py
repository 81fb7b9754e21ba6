"""``repro.fleet`` — sharded multi-process fleet engine.

Turns the single-UE :class:`~repro.testbed.harness.Testbed` into a
horizontally sharded sweep runner: a planner expands a scenario ×
handling-mode × replica matrix (or a paper-suite replay) into shards,
a process pool executes one testbed per task with deterministically
derived seeds, a checkpoint layer makes runs resumable, and an
aggregator merges shard results into fleet-level percentiles, coverage,
and one crowdsourced §5.3 learner state. ``python -m repro.fleet``
exposes the same machinery on the command line.
"""

from repro.fleet.aggregate import aggregate_records, canonical_json, merge_learning
from repro.fleet.checkpoint import Checkpoint, CheckpointMismatch
from repro.fleet.metrics import FleetCell, FleetReport
from repro.fleet.planner import (
    FleetPlan,
    Shard,
    TaskSpec,
    filter_scenarios,
    matrix_tasks,
    plan_from_spec,
    plan_matrix,
    repeat_tasks,
    residual_plan,
    shard_tasks,
    suite_tasks,
)
from repro.fleet.resultcache import (
    ResultCache,
    code_fingerprint,
    resolve_cache,
    task_key,
)
from repro.fleet.pool import (
    EXECUTOR_MODES,
    PoolOutcome,
    WorkerPool,
    execute_plan,
    resolve_executor,
)
from repro.fleet.runner import FleetRunner
from repro.fleet.worker import run_shard, run_task

__all__ = [
    "Checkpoint",
    "CheckpointMismatch",
    "EXECUTOR_MODES",
    "FleetCell",
    "FleetPlan",
    "FleetReport",
    "FleetRunner",
    "PoolOutcome",
    "ResultCache",
    "Shard",
    "TaskSpec",
    "WorkerPool",
    "aggregate_records",
    "canonical_json",
    "code_fingerprint",
    "execute_plan",
    "filter_scenarios",
    "matrix_tasks",
    "merge_learning",
    "plan_from_spec",
    "plan_matrix",
    "repeat_tasks",
    "residual_plan",
    "resolve_cache",
    "resolve_executor",
    "run_shard",
    "run_task",
    "shard_tasks",
    "suite_tasks",
    "task_key",
]
