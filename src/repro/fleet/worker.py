"""Shard execution: one fresh ``Testbed`` per task.

``run_shard`` is the unit the process pool ships to workers; it takes
and returns plain JSON-safe dicts so it pickles cheaply and its output
can be appended verbatim to the checkpoint JSONL. Each task builds its
own simulator seeded from the task spec, so results depend only on the
spec — never on which worker ran it, in what order, or in which shard.

Cohort shards (``cohort_size > 1``) run the same way: the shard is the
schedulable unit, so dispatch, checkpoint and fold costs stay per
shard, but every task runs alone and stops at its own quiescent
instant.
"""

from __future__ import annotations

import traceback
from typing import Callable

from repro.core.online_learning import merge_records
from repro.device.android import AndroidTimers
from repro.fleet.planner import Shard, TaskSpec
from repro.fleet.resultcache import ResultCache
from repro.testbed import preload
from repro.testbed.harness import HandlingMode, run_one
from repro.testbed.scenarios import scenario_by_name

#: Process-wide write-back target for the result cache. Set by the pool
#: worker initializer (:func:`preload_plan`) or by the inline executor
#: around its drain loop. Workers only ever *store* through it —
#: lookups happen pool-side, before dispatch — so a dead or read-only
#: cache can never fail a shard.
_CACHE: ResultCache | None = None


def configure_cache(cache: ResultCache | None) -> ResultCache | None:
    """Install the write-back cache for this process; returns the old one."""
    global _CACHE
    previous = _CACHE
    _CACHE = cache
    return previous


def _timers_from_spec(spec: dict | None) -> AndroidTimers | None:
    if spec is None:
        return None
    kwargs = dict(spec)
    if "ladder" in kwargs:
        kwargs["ladder"] = tuple(kwargs["ladder"])  # JSON turns it into a list
    return AndroidTimers(**kwargs)


def run_task(task: TaskSpec) -> tuple[dict, dict]:
    """Run one task; returns (record, wire-form learning state)."""
    scenario = scenario_by_name(task.scenario)
    result, testbed = run_one(
        scenario,
        HandlingMode(task.handling),
        seed=task.seed,
        android_timers=_timers_from_spec(task.android_timers),
        horizon=task.horizon,
    )
    record = {
        "task_id": task.task_id,
        "scenario": task.scenario,
        "handling": task.handling,
        "seed": task.seed,
        "failure_class": scenario.failure_class.value,
        "duration": result.duration,
        "recovered": result.recovered,
        "timed": result.timed,
        "notified_user": result.notified_user,
        "handled": result.timed and result.recovered,
        # Heap entries discarded by quiescent termination (0 under
        # REPRO_FULL_HORIZON). Audit data only: the aggregator reads
        # known keys, so this never enters aggregate.json.
        "elided_events": result.meta["elided_events"],
    }
    learning = testbed.learning_records()
    if _CACHE is not None:
        _CACHE.store(task, record, learning)
    return record, learning


def _run_tasks(tasks: tuple[TaskSpec, ...]) -> tuple[list[dict], dict]:
    """Run tasks one by one; returns their records and merged learning."""
    records = []
    learning: dict[str, dict[str, int]] = {}
    for task in tasks:
        record, task_learning = run_task(task)
        records.append(record)
        merge_records(learning, task_learning)
    return records, learning


def run_cohort_tasks(tasks: tuple[TaskSpec, ...]) -> tuple[list[dict], dict]:
    """Run a cohort shard's tasks, each alone through :func:`run_task`.

    ``cohort_size`` only packs tasks into shards: each task's record,
    ``elided_events`` included, and learning are :func:`run_task`'s
    bytes, whatever its packing.

    Keep the name: the repository benchmark's layer spans
    (``perfbench/spans.py``) wrap ``run_cohort_tasks`` by name to count
    the tasks of cohort shards.
    """
    return _run_tasks(tasks)


def run_shard_object(shard: Shard) -> dict:
    """Execute one :class:`Shard`."""
    run = run_cohort_tasks if shard.cohort_size > 1 else _run_tasks
    records, learning = run(shard.tasks)
    return {"shard_id": shard.shard_id, "tasks": records, "learning": learning}


def run_shard(payload: dict) -> dict:
    """Execute one shard (as produced by ``Shard.to_json``)."""
    return run_shard_object(Shard.from_json(payload))


# ---------------------------------------------------------------------------
# Pool-worker entry points
# ---------------------------------------------------------------------------
def attempt_shard(shard_fn: Callable[[dict], dict],
                  payload: dict) -> tuple[dict | None, str | None]:
    """``(result, None)``, or ``(None, error)`` when ``shard_fn`` raises.

    The error keeps the concrete exception type and a traceback tail, so
    a failed shard's record names what went wrong.
    """
    try:
        return shard_fn(payload), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=8)}"


def run_frame(shard_fn: Callable[[dict], dict],
              batch: list[tuple[int, dict]],
              ) -> list[tuple[int, dict | None, str | None]]:
    """Run one steal batch of ``(shard_id, payload)`` pairs in a pool worker.

    The one function ``execute_plan`` submits to a :class:`WorkerPool`;
    module-level, so it pickles by reference. Each shard's exception is
    caught on its own, so a failing shard costs itself one attempt, not
    its batch-mates.

    Keep the name: the repository benchmark's layer spans
    (``perfbench/spans.py``) wrap ``run_frame`` by name to measure
    pool-worker busy time.
    """
    return [(sid, *attempt_shard(shard_fn, payload)) for sid, payload in batch]


def preload_plan(cache: ResultCache | None = None) -> None:
    """The one pool-worker initializer: testbed preload, then the cache.

    Every :class:`WorkerPool` worker runs it once at start, so shards
    never pay the testbed import chain, and freshly computed tasks are
    written back to ``cache`` (``None`` disarms write-back).

    Keep the name: the repository benchmark's layer spans
    (``perfbench/spans.py``) wrap ``preload_plan`` by name to time
    worker start, and expect :func:`configure_cache` to come last.
    """
    preload()
    configure_cache(cache)
