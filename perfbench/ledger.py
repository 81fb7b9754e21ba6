"""The per-layer ledger of a traced run, computed from recorded spans.

A span's self time is its duration minus the part its child spans
cover; a layer's time is the self time of its spans. Counts (events,
hits, flushes) come from span attributes recorded where the work
happened. :func:`per_layer` returns every per-layer metric of
``BENCHMARK.json``; a metric whose layer the workload never calls reads
0 and is listed in ``missing`` with the reason.

The simulation subsystems have no spans of their own. Their
``<subsystem>.self_share`` is the share of measured lane time (a sweep
or job's wall times the processes that simulated in it: 1 inline, the
pool's workers on the pool) the subsystem took: the subsystem's share
of a profiled replay of the class (:mod:`profile_replay`), times the
self time of the ``testbed`` spans in that class's sweeps or jobs,
summed over the classes and divided by the lane time, so the serve job
mix weighs each class by the simulation it really did. Its
``<subsystem>.calls_per_task`` is the replay's count per task, weighted
by the class's tasks in the run.
"""

from __future__ import annotations

import bisect
import json
from collections import defaultdict
from pathlib import Path

from profile_replay import SUBSYSTEMS


def load(trace_dir: str | Path) -> list[dict]:
    spans = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        spans.extend(json.loads(line) for line in path.read_text().splitlines())
    return spans


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[tuple[int, int], float]:
    """(pid, span id) -> self time. Children nest inside their parent on
    one thread, so they never overlap each other."""
    covered: dict[tuple[int, int], float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[(span["pid"], span["parent"])] += _duration(span)
    return {(s["pid"], s["id"]): _duration(s) - covered[(s["pid"], s["id"])]
            for s in spans}


def _union(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def covered_share(spans: list[dict], main_pid: int, windows: list) -> float:
    """Share of the measured windows (each with ``start`` and ``end``)
    that the main process's spans cover."""
    tops = [(s["start"], s["end"]) for s in spans
            if s["pid"] == main_pid and s["parent"] is None
            and s["end"] > s["start"]]
    covered = 0.0
    for w in windows:
        covered += _union([(max(a, w.start), min(b, w.end)) for a, b in tops
                           if b > w.start and a < w.end])
    wall = sum(w.end - w.start for w in windows)
    return covered / wall if wall else 0.0


def layer_self_seconds(spans: list[dict], main_pid: int) -> dict:
    """Σ self time per layer, split into the main process and workers."""
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"main_s": 0.0, "workers_s": 0.0})
    for span in spans:
        layer = span["name"].split(".")[0]
        side = "main_s" if span["pid"] == main_pid else "workers_s"
        table[layer][side] += selfs[(span["pid"], span["id"])]
    return dict(sorted(table.items()))


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def subsystem_metrics(spans: list[dict], selfs: dict, profiles: dict,
                      windows: list) -> dict[str, float]:
    """``<subsystem>.self_share`` and ``.calls_per_task``; see the module
    docstring. ``profiles`` maps a window class to its replay's rollup;
    classes without one (cache-served resubmits) simulate nothing."""
    windows = sorted(windows)
    starts = [w.start for w in windows]
    testbed_s = dict.fromkeys(profiles, 0.0)
    for span in spans:
        if not span["name"].startswith("testbed."):
            continue
        index = bisect.bisect_right(starts, span["start"]) - 1
        if index >= 0 and span["start"] < windows[index].end \
                and windows[index].cls in testbed_s:
            testbed_s[windows[index].cls] += selfs[(span["pid"], span["id"])]
    tasks = {cls: sum(w.tasks for w in windows if w.cls == cls)
             for cls in profiles}
    lane_s = sum((w.end - w.start) * w.lanes for w in windows)
    all_tasks = sum(tasks.values())
    m = {}
    for name in (*SUBSYSTEMS, "other"):
        rollups = {cls: p["subsystems"][name] for cls, p in profiles.items()}
        m[f"{name}.self_share"] = sum(
            r["self_share"] * testbed_s[cls] for cls, r in rollups.items()
        ) / lane_s if lane_s else 0.0
        m[f"{name}.calls_per_task"] = sum(
            r["calls_per_task"] * tasks[cls] for cls, r in rollups.items()
        ) / all_tasks if all_tasks else 0.0
    return m


def per_layer(spans: list[dict], main_pid: int, tasks: int, workers: int,
              profiles: dict, windows: list
              ) -> tuple[dict[str, float], dict[str, str]]:
    """(metric -> value, metric -> reason it reads 0) for one traced run.

    Spans that started before the first measured window (set-up and
    warm-up) are left out, except pool spawns: a warm pool spawns during
    set-up.
    """
    phase_start = min(w.start for w in windows)
    spawn_events = ("pool.spawn", "pool.worker_ready")
    by_name: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        if span["start"] >= phase_start or span["name"] in spawn_events:
            by_name[span["name"]].append(span)
    selfs = self_times(spans)
    us, ms = 1e6, 1e3
    m: dict[str, float] = {}
    missing: dict[str, str] = {}

    scenario = by_name["testbed.scenario"]
    cohort = by_name["testbed.cohort"]
    m["testbed.build_us"] = _mean([_duration(s) for s in by_name["testbed.build"]]) * us
    m["testbed.warm_up_us"] = _mean([_duration(s) for s in by_name["testbed.warm_up"]]) * us
    m["testbed.scenario_us"] = _mean(
        [selfs[(s["pid"], s["id"])] for s in scenario]) * us
    members = sum(s["attrs"]["members"] for s in cohort)
    m["testbed.cohort_ue_us"] = (
        sum(_duration(s) for s in cohort) / members * us if members else 0.0)
    simulated = len(scenario) + members
    events = sum(s["attrs"]["events"] for s in scenario + cohort)
    m["simkernel.events_per_task"] = events / simulated if simulated else 0.0
    m["simkernel.elided_per_task"] = (
        sum(s["attrs"]["elided"] for s in scenario + cohort) / simulated
        if simulated else 0.0)
    m["simkernel.us_per_event"] = (
        sum(_duration(s) for s in scenario + cohort) / events * us
        if events else 0.0)
    if not scenario:
        for key in ("testbed.build_us", "testbed.warm_up_us",
                    "testbed.scenario_us"):
            missing[key] = "every task runs on the Cohort host"
    if not cohort:
        missing["testbed.cohort_ue_us"] = "no task runs on the Cohort host"

    singles = by_name["worker.task"]
    cohort_tasks = by_name["worker.cohort_tasks"]
    ran = len(singles) + sum(s["attrs"]["tasks"] for s in cohort_tasks)
    m["worker.task_us"] = (
        sum(_duration(s) for s in singles + cohort_tasks) / ran * us
        if ran else 0.0)
    if not ran:
        missing["worker.task_us"] = "every task was served from the cache"

    lookups = by_name["resultcache.lookup"]
    m["resultcache.lookup_us"] = _mean([_duration(s) for s in lookups]) * us
    m["resultcache.store_us"] = _mean(
        [_duration(s) for s in by_name["resultcache.store"]]) * us
    m["resultcache.prune_ms"] = _mean(
        [_duration(s) for s in by_name["resultcache.prune"]]) * ms
    m["resultcache.hit_ratio"] = (
        sum(s["attrs"]["hit"] for s in lookups) / len(lookups)
        if lookups else 0.0)

    flushes = [s for s in by_name["checkpoint.flush"] if s["attrs"]["wrote"]]
    m["checkpoint.flush_us"] = _mean([_duration(s) for s in flushes]) * us
    m["checkpoint.flushes_per_task"] = len(flushes) / tasks if tasks else 0.0

    resolves = by_name["pool.resolve"]
    pooled_plans = {s["parent"] for s in resolves if s["attrs"]["mode"] == "pool"}
    m["pool.inline_share"] = (
        sum(s["attrs"]["mode"] == "inline" for s in resolves) / len(resolves)
        if resolves else 0.0)
    spawns = sorted(s["start"] for s in by_name["pool.spawn"]
                    if s["pid"] == main_pid)
    m["pool.spawns"] = float(len(spawns))
    ready = sorted(s["start"] for s in by_name["pool.worker_ready"])
    spawn_ms = []
    for index, at in enumerate(spawns):
        until = spawns[index + 1] if index + 1 < len(spawns) else float("inf")
        own = [t for t in ready if at <= t < until]
        if own:
            spawn_ms.append((max(own) - at) * ms)
    m["pool.spawn_ms"] = _mean(spawn_ms)
    pooled_wall = sum(_duration(s) for s in by_name["pool.execute_plan"]
                      if s["pid"] == main_pid and s["id"] in pooled_plans)
    busy = sum(_duration(s) for s in by_name["worker.frame"]
               if s["pid"] != main_pid)
    m["pool.busy_share"] = (busy / (workers * pooled_wall)
                            if pooled_wall else 0.0)
    if not spawns:
        for key in ("pool.spawn_ms", "pool.busy_share"):
            missing[key] = "no sweep resolved to the process pool"

    m["planner.plan_ms"] = _mean(
        [_duration(s) for s in by_name["planner.plan"]]) * ms
    m["aggregate.fold_us"] = _mean(
        [_duration(s) for s in by_name["aggregate.fold"]]) * us
    m["aggregate.sweep_ms"] = _mean(
        [_duration(s) for s in by_name["aggregate.sweep"]]) * ms
    m["serve.registry_ms"] = _mean(
        [_duration(s) for s in by_name["serve.registry"]]) * ms
    for key, name in (("aggregate.fold_us", "aggregate.fold"),
                      ("aggregate.sweep_ms", "aggregate.sweep"),
                      ("serve.registry_ms", "serve.registry"),
                      ("resultcache.store_us", "resultcache.store")):
        if not by_name[name]:
            missing[key] = f"the workload never calls {name}"

    m.update(subsystem_metrics(spans, selfs, profiles, windows))
    return m, missing
