"""Outside-in layer spans: wrappers around the program's public calls.

:func:`install` replaces a fixed set of the program's public functions
and methods with wrappers that record one span per call — name, start,
end, parent span, and the sweep or job context — into an in-memory
:class:`Recorder`. Nothing under ``src/`` changes; a wrapped function
is replaced in every module that imported it, so calls through any
alias are seen, and the wrapper keeps the original's module and name,
so functions the pool pickles by reference still resolve in workers.

Spans are recorded in every process that runs the wrapped functions.
Forked pool workers inherit the wrappers and start an empty buffer;
spawned workers of the serve daemon install them again on import of
the daemon's entry module (:mod:`serve_entry`). Each process writes
``spans-<pid>.jsonl`` into the trace directory when it exits.

Never wrapped: ``worker.run_shard`` (``execute_plan`` keeps the result
cache and the frame wire only for that exact object) and
``testbed.preload`` (the warm pool's default initializer, pickled by
reference from a default argument).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from multiprocessing import util as mp_util
from pathlib import Path

_now = time.perf_counter  # CLOCK_MONOTONIC: comparable across processes


class Recorder:
    """In-memory span buffer of one process."""

    def __init__(self, out_dir: str | os.PathLike) -> None:
        self.out_dir = Path(out_dir)
        self.context: str | None = None
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._next = 0
        self._lock = threading.Lock()

    def clear(self) -> None:
        self.spans = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self) -> tuple[int, int | None, float]:
        with self._lock:
            self._next += 1
            span_id = self._next
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent, _now()

    def end(self, token: tuple[int, int | None, float], name: str,
            attrs: dict | None = None) -> None:
        end = _now()
        span_id, parent, start = token
        stack = self._stack()
        if stack and stack[-1] == span_id:
            stack.pop()
        self.spans.append((span_id, parent, name, start, end, self.context,
                           threading.get_ident(), attrs))

    def mark(self, name: str, attrs: dict | None = None) -> None:
        """A zero-length span (an instant, e.g. "pool worker ready")."""
        self.end(self.begin(), name, attrs)

    def flush(self) -> None:
        if not self.spans:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        child = _in_child()
        with path.open("a") as fh:
            for span_id, parent, name, start, end, ctx, tid, attrs in self.spans:
                fh.write(json.dumps({
                    "pid": self.pid, "child": child, "id": span_id,
                    "parent": parent, "name": name, "start": start,
                    "end": end, "ctx": ctx, "tid": tid,
                    "attrs": attrs or {}}, sort_keys=True) + "\n")
        self.spans = []

    def after_fork(self) -> None:
        """In a new worker: drop the parent's spans, flush at exit."""
        self._reset()
        self.context = None
        mp_util.Finalize(self, self.flush, exitpriority=100)


def _in_child() -> bool:
    import multiprocessing

    return multiprocessing.parent_process() is not None


_RECORDER: Recorder | None = None


def _replace_everywhere(original, wrapper) -> None:
    """Point every loaded ``repro`` module's reference at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _wrap(original, name: str, observe=None):
    """A span-recording wrapper; ``observe(args, result)`` adds attrs."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        rec = _RECORDER
        token = rec.begin()
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            rec.end(token, name, observe(args, result) if observe else None)

    return wrapper


def _wrap_function(module, attr: str, name: str, observe=None) -> None:
    original = getattr(module, attr)
    _replace_everywhere(original, _wrap(original, name, observe))


def _wrap_method(cls, attr: str, name: str, observe=None) -> None:
    setattr(cls, attr, _wrap(getattr(cls, attr), name, observe))


# -- observers: counts read where the work happens -----------------------
def _sim_counts(args, _result) -> dict:
    sim = args[0].sim
    return {"events": sim.fired_events, "elided": sim.elided_events}


def _cohort_counts(args, result) -> dict:
    counts = _sim_counts(args, result)
    counts["members"] = len(args[0].slots)
    return counts


def _lookup_hit(_args, result) -> dict:
    return {"hit": result is not None}


def _executor_mode(_args, result) -> dict:
    return {"mode": result}


def _cohort_tasks(args, _result) -> dict:
    return {"tasks": len(args[0])}


def _install_checkpoint_flush(Checkpoint) -> None:
    """``Checkpoint.flush`` with a ``wrote`` attr: empty flushes are no-ops."""
    original = Checkpoint.flush

    @functools.wraps(original)
    def flush(self):
        rec = _RECORDER
        pending = bool(getattr(self, "_buffer", True))
        token = rec.begin()
        try:
            return original(self)
        finally:
            rec.end(token, "checkpoint.flush", {"wrote": pending})

    Checkpoint.flush = flush


def _install_configure_cache(worker) -> None:
    """``configure_cache`` ends every pool worker's initializer (cold and
    warm alike, the cache being armed): its first call in a child marks
    the worker ready."""
    original = worker.configure_cache
    seen = {"ready": False}

    @functools.wraps(original)
    def configure_cache(cache):
        result = original(cache)
        rec = _RECORDER
        if rec is not None and _in_child() and not seen["ready"]:
            seen["ready"] = True
            rec.mark("pool.worker_ready")
        return result

    def reset():
        seen["ready"] = False

    os.register_at_fork(after_in_child=reset)
    _replace_everywhere(original, configure_cache)


def _install_executor_class(pool) -> None:
    """Record each process-pool executor the fleet builds (a spawn)."""
    base = pool.ProcessPoolExecutor

    class ProcessPoolExecutor(base):
        def __init__(self, *args, **kwargs):
            rec = _RECORDER
            if rec is not None:
                rec.mark("pool.spawn", {"workers": kwargs.get("max_workers")})
            super().__init__(*args, **kwargs)

    pool.ProcessPoolExecutor = ProcessPoolExecutor


def install(out_dir: str | os.PathLike) -> Recorder:
    """Install the wrappers in this process; idempotent."""
    global _RECORDER
    if _RECORDER is not None:
        return _RECORDER
    _RECORDER = Recorder(out_dir)

    from repro.analysis.incremental import AggregateState
    from repro.fleet import aggregate, checkpoint, planner, pool, resultcache, runner, worker
    from repro.serve import jobs, store
    from repro.testbed.harness import Cohort, Testbed

    _wrap_method(Testbed, "__init__", "testbed.build")
    _wrap_method(Testbed, "warm_up", "testbed.warm_up")
    _wrap_method(Testbed, "run_scenario", "testbed.scenario", _sim_counts)
    _wrap_method(Cohort, "run", "testbed.cohort", _cohort_counts)
    _wrap_function(worker, "run_task", "worker.task")
    _wrap_function(worker, "run_cohort_tasks", "worker.cohort_tasks",
                   _cohort_tasks)
    _wrap_function(worker, "run_frame", "worker.frame")
    _wrap_function(worker, "preload_plan", "pool.worker_init")
    _install_configure_cache(worker)
    _wrap_method(resultcache.ResultCache, "lookup", "resultcache.lookup",
                 _lookup_hit)
    _wrap_method(resultcache.ResultCache, "store", "resultcache.store")
    _wrap_method(resultcache.ResultCache, "prune", "resultcache.prune")
    _install_checkpoint_flush(checkpoint.Checkpoint)
    _wrap_function(pool, "execute_plan", "pool.execute_plan")
    _wrap_function(pool, "resolve_executor", "pool.resolve", _executor_mode)
    _install_executor_class(pool)
    _wrap_function(planner, "plan_from_spec", "planner.plan")
    _wrap_method(AggregateState, "fold_shard", "aggregate.fold")
    _wrap_function(aggregate, "aggregate_records", "aggregate.sweep")
    _wrap_method(store.RunRegistry, "record", "serve.registry")
    del runner, jobs  # imported so their aliases are rebound above

    # Worker processes (forked, or spawned and bootstrapping after this
    # import) get a fresh buffer and an exit flush from the after-fork
    # hook; this process flushes at interpreter exit.
    mp_util.register_after_fork(_RECORDER, Recorder.after_fork)
    if not _in_child():
        mp_util.Finalize(_RECORDER, _RECORDER.flush, exitpriority=100)
    return _RECORDER
