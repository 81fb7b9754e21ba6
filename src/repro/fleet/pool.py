"""Sharded execution over a work-stealing multiprocessing pool.

``execute_plan`` runs every shard of a :class:`FleetPlan` through a
shard function (by default :func:`repro.fleet.worker.run_shard`),
in-process or on a :class:`WorkerPool`. Execution is organised in
*rounds*: each round submits all still-pending shards, collects
outcomes, and re-queues failures until their attempt budget
(``1 + retries``) is exhausted. A crashed worker process (which breaks
the executor) therefore costs one attempt for the shards it took down
and a fresh executor for the next round — never the run. A healthy
executor is **never** rebuilt between rounds: only an observed
``BrokenProcessPool`` discards it.

Three executor modes (``executor=`` / ``--executor``):

* ``inline`` — run every shard in this process, zero IPC, in plan
  (shard-id) order, the order a single pool worker would pull them in;
* ``pool`` — always dispatch through a :class:`WorkerPool`: the
  caller's shared warm pool, or one the sweep builds for itself and
  shuts down when it ends;
* ``auto`` (default) — run inline when one worker and no pool is at
  hand, or when the plan left to run holds fewer than
  :data:`INLINE_TASKS` tasks, too few to amortise pool spin-up + IPC;
  otherwise use the pool. Either choice produces byte-identical
  aggregates (results merge through the same task_id-sorted path), so
  the decision is free to be machine-local — exactly like the worker
  count itself.

Within a pool round, shards are scheduled by **work stealing**: the
round's pending shards, in plan order, are split into fine-grained
batches of guided-self-scheduling sizes, and all batches are submitted
up front. The executor's shared call queue *is* the steal queue — an
idle worker pulls the next batch the moment it drains its current
one. A batch travels as one pickled list of
``(shard_id, Shard.to_json())`` pairs and returns as the shard result
dicts the checkpoint stores verbatim.

Results are keyed by ``shard_id`` and returned sorted, so downstream
aggregation sees the same sequence no matter which worker stole which
batch — or whether a pool was involved at all.
"""

from __future__ import annotations

import logging
import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator

from repro.core.online_learning import merge_records
from repro.fleet.checkpoint import Checkpoint
from repro.fleet.planner import FleetPlan, residual_plan
from repro.fleet.resultcache import ResultCache
from repro.fleet.worker import (
    attempt_shard,
    configure_cache,
    preload_plan,
    run_frame,
    run_shard,
)

log = logging.getLogger(__name__)

#: Called as each shard result becomes available (freshly executed or
#: restored from a checkpoint): ``on_shard(shard_id, result)``. The
#: streaming-aggregation hook for ``repro.serve``.
ShardCallback = Callable[[int, dict], None]

# Guided self-scheduling divisor: each batch takes ceil(remaining /
# (workers * FACTOR)) shards. 2 front-loads large batches (amortising
# per-task dispatch) while leaving a tail of single-shard batches that
# backfill stragglers.
_GSS_FACTOR = 2

EXECUTOR_MODES = ("auto", "pool", "inline")

# Adaptive-executor bar: ``auto`` runs a plan of fewer tasks than this
# inline. A task count is exact and needs no calibration. On a 2-vCPU
# VM a sweep's own 2-worker pool first beats inline between 54 and 78
# Table 4 tasks. 64 keeps small sweeps in-process (a 3-scenario probe
# matrix, a 2-replica cohort warm-up: at most 36 tasks) and sends
# Table 4 sweeps (138 tasks at runs=20) and full matrices (108 tasks
# at 2 replicas) to the pool. It only steers the executor choice;
# aggregates are identical either way.
INLINE_TASKS = 64


def resolve_executor(
    mode: str,
    plan: FleetPlan,
    workers: int,
    pool: "WorkerPool | None" = None,
) -> str:
    """Resolve ``auto`` into ``inline`` or ``pool`` for one sweep."""
    if mode not in EXECUTOR_MODES:
        raise ValueError(
            f"unknown executor mode {mode!r} (valid: {', '.join(EXECUTOR_MODES)})")
    if mode != "auto":
        return mode
    if workers <= 1 and pool is None:
        return "inline"
    return "inline" if len(plan.tasks) < INLINE_TASKS else "pool"


class WorkerPool:
    """The one process pool: a shared warm pool, or one sweep's own.

    Handed to any number of :func:`execute_plan` / ``FleetRunner``
    invocations, a pool's executor — and with it the worker processes,
    which pre-import the testbed through
    :func:`repro.fleet.worker.preload_plan` — survives from sweep to
    sweep, so back-to-back sweeps stop paying per-sweep pool spin-up
    (the <1× multi-worker gap on small boxes, where spin-up rivals the
    post-quiescence per-scenario cost). A sweep that resolves to the
    pool without one builds its own and shuts it down when it ends.

    Who owns the pool picks the start method. A pool a caller
    constructs uses ``spawn``: it is safe to create from a threaded
    daemon (fork from a multi-threaded server is not), and each worker
    pays the interpreter boot + testbed import once per lifetime
    instead of once per sweep. A pool ``execute_plan`` builds for one
    sweep uses the platform default (fork on Linux), the cheapest cold
    start.

    A crashed worker breaks the executor; :meth:`discard` drops it and
    the next :meth:`executor` call builds a fresh one. Discard is only
    ever driven by an observed ``BrokenProcessPool`` — ordinary shard
    failures and retry rounds reuse the live executor, so a warm pool
    really does spawn exactly once per healthy lifetime. Results are
    unaffected by warmth: shard outputs are pure functions of their
    specs.

    The pool is shared across threads in the serve daemon (the queue's
    executor thread runs sweeps while a handler/main thread may call
    :meth:`shutdown` on close), so the executor slot is guarded by a
    lock: build/discard/shutdown are atomic and a racing close can
    never resurrect or double-build an executor (CONC001 discipline).
    """

    def __init__(self, workers: int, cache: ResultCache | None = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        #: Result-cache write-back target installed in every worker at
        #: spawn (the serve daemon's shared cache). Lookups stay on the
        #: dispatching side; workers only store.
        self.cache = cache
        #: ``None`` (the platform default) on a sweep's own pool.
        self._start_method: str | None = "spawn"
        self._lock = threading.Lock()
        self._executor: ProcessPoolExecutor | None = None
        #: Executors built over this pool's lifetime (spin-up telemetry:
        #: a warm run of N sweeps should show 1, not N).
        self.executors_spawned = 0

    def executor(self) -> ProcessPoolExecutor:
        """The live executor, building one on first use / after discard."""
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=multiprocessing.get_context(self._start_method),
                    initializer=partial(preload_plan, self.cache),
                )
                self.executors_spawned += 1
            return self._executor

    def _take_executor(self) -> ProcessPoolExecutor | None:
        """Atomically detach the current executor (if any)."""
        with self._lock:
            executor, self._executor = self._executor, None
            return executor

    def discard(self) -> None:
        """Drop a broken executor; the next round rebuilds lazily."""
        executor = self._take_executor()
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        """Terminate the workers (the pool can be reused afterwards)."""
        executor = self._take_executor()
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


@dataclass
class PoolOutcome:
    """What happened to every shard of a plan."""

    results: dict[int, dict] = field(default_factory=dict)   # shard_id -> shard result
    failed: dict[int, str] = field(default_factory=dict)     # shard_id -> last error
    attempts: dict[int, int] = field(default_factory=dict)   # shard_id -> attempts used
    executed: int = 0                                        # shards run this invocation
    skipped: int = 0                                         # shards restored from checkpoint
    stopped: bool = False                                    # cancelled before completion
    executor_mode: str = "inline"                            # resolved inline|pool
    # Result-cache partition counters (task-level). Telemetry like
    # elided_events: never enters aggregates or fingerprints.
    cache_hits: int = 0
    cache_misses: int = 0

    def sorted_results(self) -> list[dict]:
        return [self.results[sid] for sid in sorted(self.results)]


def execute_plan(
    plan: FleetPlan,
    workers: int = 1,
    retries: int = 2,
    checkpoint: Checkpoint | None = None,
    shard_fn: Callable[[dict], dict] = run_shard,
    pool: WorkerPool | None = None,
    on_shard: ShardCallback | None = None,
    stop: Callable[[], bool] | None = None,
    executor: str = "auto",
    cache: ResultCache | None = None,
    on_cache: Callable[[int, int], None] | None = None,
) -> PoolOutcome:
    """Run all shards, resuming from ``checkpoint`` when given.

    ``pool`` hands in a shared warm :class:`WorkerPool` (its worker
    count wins over ``workers``); without one, a sweep that resolves to
    the pool builds its own, reuses it across retry rounds and shuts it
    down when the sweep ends. ``executor`` picks the dispatch mode
    (``auto``/``pool``/``inline`` — see the module docstring); ``auto``
    may bypass a provided pool entirely when the sweep is too small to
    amortise it. ``on_shard`` fires for every available result —
    checkpoint-restored shards first, then fresh ones the moment they
    land — which is what the streaming aggregator folds. ``stop`` is
    polled between results; once it returns True no further work is
    scheduled, in-flight batches are cancelled where possible, and the
    partial outcome is returned with ``stopped=True`` (completed shards
    are already in the checkpoint, so the run is resumable).

    ``cache`` arms the content-addressed result cache
    (:mod:`repro.fleet.resultcache`): pending tasks are looked up
    before any dispatch, fully cached shards complete without running,
    partially cached cohort shards legally shrink to their residual
    members, and every freshly computed task is written back from the
    worker that ran it. The residual plan — not the submitted one —
    drives the executor choice, so a warm resubmit resolves inline no
    matter how large the original sweep was. Custom ``shard_fn`` s are
    not ``run_task``-pure, so the cache is ignored for them.
    ``on_cache(hits, misses)`` fires once, right after the partition
    (the serve job-status hook).
    """
    outcome = PoolOutcome()
    if pool is not None:
        workers = pool.workers
    if cache is not None and shard_fn is not run_shard:
        cache = None

    if checkpoint is not None:
        checkpoint.bind(plan)
        outcome.results.update(checkpoint.completed())
        outcome.skipped = len(outcome.results)
        if on_shard is not None:
            for sid in sorted(outcome.results):
                on_shard(sid, outcome.results[sid])
        checkpoint.begin_buffered()

    run_plan, cache_extras = _partition_cached(
        plan, cache, outcome, checkpoint, on_shard)
    if on_cache is not None and cache is not None:
        on_cache(outcome.cache_hits, outcome.cache_misses)

    # The residual plan's task count decides the executor: a mostly
    # warm resubmit has little work left, so auto resolves it inline
    # even when the submitted sweep would have amortised a pool.
    mode = resolve_executor(executor, run_plan, workers, pool)
    outcome.executor_mode = mode
    inline = mode == "inline"
    owned = None
    if inline:
        pool = None
    elif pool is None:
        # The sweep's own pool: built lazily on the first round, reused
        # by retry rounds, shut down below. Nothing else shares it, so
        # it keeps the platform's start method (fork on Linux).
        pool = owned = WorkerPool(workers, cache=cache)
        owned._start_method = None

    payloads = {s.shard_id: s.to_json() for s in run_plan.shards}
    pending = {sid: 0 for sid in payloads if sid not in outcome.results}
    max_attempts = 1 + max(0, retries)

    inline_cache = cache if inline and cache is not None and pending else None
    previous_cache = (configure_cache(inline_cache)
                      if inline_cache is not None else None)
    try:
        while pending:
            if stop is not None and stop():
                outcome.stopped = True
                break
            round_ids = sorted(pending)
            round_batches = _run_round(
                shard_fn, payloads, round_ids, pool=pool, stop=stop)
            for batch in round_batches:
                for sid, result, error in batch:
                    pending[sid] += 1
                    attempts = pending[sid]
                    if error is None:
                        result = _merge_cached(
                            result, cache_extras.pop(sid, None))
                        outcome.results[sid] = result
                        outcome.attempts[sid] = attempts
                        outcome.executed += 1
                        outcome.failed.pop(sid, None)
                        del pending[sid]
                        if checkpoint is not None:
                            checkpoint.record_ok(sid, result, attempts)
                        if on_shard is not None:
                            on_shard(sid, result)
                    else:
                        outcome.failed[sid] = error
                        outcome.attempts[sid] = attempts
                        log.warning(
                            "shard %d failed (attempt %d/%d): %s",
                            sid, attempts, max_attempts,
                            error.strip().splitlines()[-1],
                        )
                        if checkpoint is not None:
                            checkpoint.record_failed(sid, error, attempts)
                        if attempts >= max_attempts:
                            del pending[sid]
                            log.error("shard %d dropped after %d attempts",
                                      sid, attempts)
                if checkpoint is not None:
                    checkpoint.flush()
            if stop is not None and stop() and pending:
                outcome.stopped = True
                break
    finally:
        if owned is not None:
            owned.shutdown()
        if inline_cache is not None:
            configure_cache(previous_cache)
        if checkpoint is not None:
            checkpoint.flush()
    return outcome


def _partition_cached(
    plan: FleetPlan,
    cache: ResultCache | None,
    outcome: PoolOutcome,
    checkpoint: Checkpoint | None,
    on_shard: ShardCallback | None,
) -> tuple[FleetPlan, dict[int, list[tuple[dict, dict]]]]:
    """Serve cache hits before dispatch; returns (residual plan, extras).

    Every pending task (checkpoint-restored shards are never probed) is
    looked up in the cache, after one index refresh that picks up what
    pool workers and other processes appended since the last sweep — one
    directory scan per sweep, never one per task. This is the only place
    a sweep reads the cache. Fully cached shards are completed on the
    spot — result synthesized from the stored records, checkpointed,
    streamed through ``on_shard`` — and dropped from the residual plan.
    Partially cached shards shrink (:func:`residual_plan`); their
    cached members are returned as ``extras`` keyed by shard id, to be
    folded back in when the residual result lands.
    """
    if cache is None:
        return plan, {}
    cache.refresh()
    hits: dict[int, tuple[dict, dict]] = {}
    probed = 0
    for shard in plan.shards:
        if shard.shard_id in outcome.results:
            continue
        for task in shard.tasks:
            probed += 1
            entry = cache.lookup(task)
            if entry is not None:
                hits[task.task_id] = entry
    outcome.cache_hits = len(hits)
    outcome.cache_misses = probed - len(hits)
    if not hits:
        return plan, {}
    run_plan = residual_plan(plan, set(hits))
    residual_ids = {shard.shard_id for shard in run_plan.shards}
    cache_extras: dict[int, list[tuple[dict, dict]]] = {}
    for shard in plan.shards:
        if shard.shard_id in outcome.results:
            continue
        shard_hits = [hits[task.task_id] for task in shard.tasks
                      if task.task_id in hits]
        if not shard_hits:
            continue
        if shard.shard_id in residual_ids:
            cache_extras[shard.shard_id] = shard_hits
            continue
        result = _merge_cached(
            {"shard_id": shard.shard_id, "tasks": [], "learning": {}},
            shard_hits)
        outcome.results[shard.shard_id] = result
        if checkpoint is not None:
            checkpoint.record_ok(shard.shard_id, result, 0)
        if on_shard is not None:
            on_shard(shard.shard_id, result)
    if checkpoint is not None:
        checkpoint.flush()
    return run_plan, cache_extras


def _merge_cached(
    result: dict,
    extras: list[tuple[dict, dict]] | None,
) -> dict:
    """Fold cached (record, learning) pairs into a shard result.

    Records re-sort by ``task_id`` (the shard packing order) and the
    learning wire forms merge through the same commutative count fold
    the worker uses, so the merged result carries exactly the values an
    uncached run of the full shard would have produced — aggregates
    built from it are byte-identical by construction.
    """
    if not extras:
        return result
    records = sorted(
        list(result["tasks"]) + [record for record, _ in extras],
        key=lambda record: record["task_id"])
    learning: dict[str, dict[str, int]] = {}
    merge_records(learning, result.get("learning", {}))
    for _, wire in extras:
        merge_records(learning, wire)
    return {"shard_id": result["shard_id"], "tasks": records,
            "learning": learning}


def _batches(round_ids: list[int], workers: int) -> list[list[int]]:
    """Split a round into guided-self-scheduling batches.

    Batch ``k`` takes ``ceil(remaining / (workers * _GSS_FACTOR))``
    shards from the front of the round, so sizes decrease
    geometrically down to 1. Early batches stay big enough to
    amortise dispatch cost; the single-shard tail gives the steal queue
    fine granularity exactly when load imbalance matters — at the end
    of the round.
    """
    divisor = max(1, workers) * _GSS_FACTOR
    batches = []
    index, total = 0, len(round_ids)
    while index < total:
        size = max(1, -(-(total - index) // divisor))
        batches.append(round_ids[index:index + size])
        index += size
    return batches


def _run_round(
    shard_fn, payloads, round_ids, pool=None, stop=None,
) -> Iterator[list[tuple[int, dict | None, str | None]]]:
    """One submission round, yielding outcomes one steal batch at a time.

    The caller checkpoints (and fsyncs) once per yielded batch — a
    killed run keeps every batch that landed before the kill, not just
    completed rounds.

    Without a ``pool`` the steal queue drains in this process, yielding
    singleton batches (per-record durability). With one, all batches of
    the round are submitted up front; the executor's shared call queue
    acts as the steal queue, so each worker pulls the next pending
    batch the moment it finishes its current one, and the single-shard
    tail backfills whichever worker frees up — completion order varies,
    results do not.

    The executor is borrowed from the pool and survives the round.
    Only an observed ``BrokenProcessPool`` — a worker that died mid-
    batch, or one that died idle and made ``submit`` refuse work —
    hands it back via :meth:`WorkerPool.discard` for a lazy rebuild;
    plain shard failures never cost a respawn. Either way each shard
    the broken executor did not run costs one attempt — never the run.

    ``stop`` is polled between batch completions; when it trips, still-
    queued batches are cancelled (a batch already on a worker runs to
    completion and is simply not consumed) and the round ends early.
    """
    if pool is None:
        for sid in round_ids:
            if stop is not None and stop():
                return
            yield [(sid, *attempt_shard(shard_fn, payloads[sid]))]
        return
    executor = pool.executor()
    futures = {}
    try:
        for ids in _batches(round_ids, pool.workers):
            batch = [(sid, payloads[sid]) for sid in ids]
            futures[executor.submit(run_frame, shard_fn, batch)] = ids
    except Exception as exc:
        # submit() refuses work once the executor is broken, e.g. by a
        # worker that died while idle since the last sweep.
        submitted = {sid for ids in futures.values() for sid in ids}
        yield _lost(pool, exc, [sid for sid in round_ids
                                if sid not in submitted])
    for future in as_completed(futures):
        if stop is not None and stop():
            for queued in futures:
                queued.cancel()
            return
        try:
            batch = future.result()
        except Exception as exc:
            batch = _lost(pool, exc, futures[future])
        yield batch


def _lost(pool: WorkerPool, exc: Exception,
          ids: list[int]) -> list[tuple[int, None, str]]:
    """Error outcomes for shards the executor could not run."""
    if isinstance(exc, BrokenProcessPool):
        pool.discard()
    error = f"{type(exc).__name__}: {exc}"
    return [(sid, None, error) for sid in ids]
