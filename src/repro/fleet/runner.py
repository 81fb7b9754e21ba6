"""The programmatic fleet entry point.

``FleetRunner`` ties the layers together: bind the plan to a run
directory (manifest + resume), execute the shards on the pool, merge
shard results into the deterministic aggregate, persist it, and hand
back a :class:`FleetReport`.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.fleet.aggregate import aggregate_records, canonical_json
from repro.fleet.checkpoint import Checkpoint
from repro.fleet.metrics import FleetReport
from repro.fleet.planner import FleetPlan
from repro.fleet.pool import ShardCallback, WorkerPool, execute_plan
from repro.fleet.resultcache import ResultCache
from repro.fleet.worker import run_shard


class FleetRunner:
    """Run a :class:`FleetPlan` across a worker pool, resumably.

    Parameters
    ----------
    plan:
        The sharded sweep to execute.
    workers:
        Pool size; ``<= 1`` runs inline in this process. Ignored when
        ``pool`` is given (the pool's worker count wins).
    retries:
        Extra attempts per shard after its first failure.
    out_dir:
        Run directory for the manifest / shard checkpoint / aggregate;
        ``None`` keeps everything in memory (no resume).
    shard_fn:
        Override for tests; must accept/return JSON-safe dicts and be
        picklable when ``workers > 1``.
    pool:
        A shared warm :class:`~repro.fleet.pool.WorkerPool`. Back-to-
        back sweeps through one pool reuse the preloaded worker
        processes instead of paying per-sweep executor spin-up; the
        caller owns the pool's lifetime.
    on_shard:
        Shard-completion callback ``(shard_id, result)`` — fires for
        restored and freshly executed shards alike, in availability
        order (the streaming-aggregation hook).
    stop:
        Cancellation poll; once it returns True the run winds down and
        the report carries ``cancelled=True`` (the checkpoint keeps
        every completed shard, so the run is resumable).
    executor:
        Dispatch mode — ``auto`` (default: a sweep with fewer than
        :data:`~repro.fleet.pool.INLINE_TASKS` tasks left to run, or
        one worker and no pool, runs inline; a larger one on a process
        pool), ``pool``, or ``inline``. Never affects results, only
        where the shards execute.
    cache:
        A content-addressed :class:`~repro.fleet.resultcache.
        ResultCache`: previously computed tasks are served from it
        instead of re-simulated, fresh ones are written back, and the
        cache is pruned to its size bound after the run. Never affects
        result bytes — only how many tasks actually execute.
    """

    def __init__(
        self,
        plan: FleetPlan,
        workers: int = 1,
        retries: int = 2,
        out_dir: str | None = None,
        shard_fn: Callable[[dict], dict] = run_shard,
        pool: WorkerPool | None = None,
        on_shard: ShardCallback | None = None,
        stop: Callable[[], bool] | None = None,
        executor: str = "auto",
        cache: ResultCache | None = None,
    ) -> None:
        self.plan = plan
        self.workers = pool.workers if pool is not None else workers
        self.retries = retries
        self.checkpoint = Checkpoint(out_dir) if out_dir is not None else None
        self.shard_fn = shard_fn
        self.pool = pool
        self.on_shard = on_shard
        self.stop = stop
        self.executor = executor
        self.cache = cache

    def run(self) -> FleetReport:
        started = time.perf_counter()
        outcome = execute_plan(
            self.plan,
            workers=self.workers,
            retries=self.retries,
            checkpoint=self.checkpoint,
            shard_fn=self.shard_fn,
            pool=self.pool,
            on_shard=self.on_shard,
            stop=self.stop,
            executor=self.executor,
            cache=self.cache,
        )
        if self.cache is not None:
            self.cache.prune()
        wall = time.perf_counter() - started

        shard_results = outcome.sorted_results()
        records = [task for shard in shard_results for task in shard["tasks"]]
        learning = [shard.get("learning", {}) for shard in shard_results]
        aggregate = aggregate_records(records, learning)

        if self.checkpoint is not None and not outcome.stopped:
            self.checkpoint.write_aggregate(canonical_json(aggregate))

        return FleetReport(
            aggregate=aggregate,
            records=records,
            failed_shards=dict(outcome.failed),
            executed_shards=outcome.executed,
            skipped_shards=outcome.skipped,
            wall_seconds=wall,
            elided_events=sum(r.get("elided_events", 0) for r in records),
            shard_attempts=dict(outcome.attempts),
            cancelled=outcome.stopped,
            cache_hits=outcome.cache_hits,
            cache_misses=outcome.cache_misses,
        )
