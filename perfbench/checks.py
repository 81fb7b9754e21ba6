"""Output checks and shape guards for every benchmark run.

A sweep or job counts as completed only when its ``aggregate.json``
passes every check:

* it equals a fresh fold (``aggregate_records``) of the records in its
  own checkpoint, and those records are exactly the plan's tasks;
* its sha256 equals the digest pinned in ``digests.json`` when the plan
  is one of the pinned ones (the default seed and length; every
  ``table4`` sweep up to that length, the corpus being fixed);
* a resubmit reproduces the digest of the job it repeats;
* a few of its tasks, re-run here one by one through ``run_task``,
  give the same records.

The shape guards fail a run that exercised other layers than the
workload claims: cache hits (none on ``table4``/``matrix``, exactly the
resubmitted tasks on ``serve``), the executor each sweep or job used
(observed from where CPU time went, and as the planner resolves it),
and the serve daemon's single pool spawn.

Regenerate the pins (after a change that is meant to alter results)::

    python3 perfbench/run.py --regen-digests
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import inputs as gen

DIGESTS = Path(__file__).resolve().parent / "digests.json"
#: Tasks per sweep re-run one by one (serve: per Table 4 sweep job).
RERUN_PER_SWEEP = {"table4": 2, "matrix": 1, "serve": 1}


@dataclass
class Verdict:
    attempted: int = 0
    verified: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems and self.verified == self.attempted

    @property
    def ratio(self) -> float:
        return self.verified / self.attempted if self.attempted else 0.0

    def add(self, label: str, tasks: int, issues: list[str]) -> None:
        self.attempted += tasks
        if issues:
            self.problems.extend(f"{label}: {issue}" for issue in issues)
        else:
            self.verified += tasks


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_pins(workload: str) -> dict[str, str]:
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text())["digests"].get(workload, {})


def aggregate_issues(run_dir: Path, plan, digest: str | None,
                     pin: str | None) -> tuple[list[str], dict[int, dict]]:
    """Check one run directory against its plan; returns (issues, records
    by task id)."""
    from repro.fleet import Checkpoint, aggregate_records, canonical_json

    issues = []
    if digest is None:
        return ["no aggregate.json"], {}
    completed = Checkpoint(run_dir).completed()
    if sorted(completed) != sorted(s.shard_id for s in plan.shards):
        issues.append("checkpoint does not hold every shard of the plan")
    results = [completed[sid] for sid in sorted(completed)]
    records = [r for result in results for r in result["tasks"]]
    wanted = [(t.task_id, t.scenario, t.handling, t.seed) for t in plan.tasks]
    got = sorted((r["task_id"], r["scenario"], r["handling"], r["seed"])
                 for r in records)
    if got != sorted(wanted):
        issues.append("checkpointed records are not the plan's tasks")
    blob = canonical_json(aggregate_records(
        records, [result.get("learning", {}) for result in results]))
    if sha256(blob.encode()) != digest:
        issues.append("aggregate.json differs from a fold of its records")
    if pin is not None and digest != pin:
        issues.append(f"digest {digest[:12]} differs from pinned {pin[:12]}")
    return issues, {r["task_id"]: r for r in records}


def rerun_issues(plan, records: dict[int, dict], rng: random.Random,
                 count: int) -> list[str]:
    """Re-run ``count`` sampled tasks alone; records must match."""
    from repro.fleet import run_task

    issues = []
    for task in rng.sample(plan.tasks, min(count, len(plan.tasks))):
        fresh, _learning = run_task(task)
        mine = dict(records.get(task.task_id, {}))
        # Audit-only: a cohort reports its cohort-wide elided count.
        fresh.pop("elided_events", None)
        mine.pop("elided_events", None)
        if fresh != mine:
            issues.append(f"task {task.task_id} re-run alone gives "
                          f"another record")
    return issues


def verify_fleet(workload: str, spec: dict, result: dict, seed: int) -> Verdict:
    from repro.fleet import plan_from_spec, resolve_executor

    pins = load_pins(workload)
    expected = "inline" if workload == "table4" else "pool"
    rng = random.Random(f"perfbench-check:{workload}:{seed}")
    verdict = Verdict()
    for index, (sweep_spec, sweep) in enumerate(
            zip(spec["sweeps"], result["sweeps"], strict=True)):
        plan = plan_from_spec(sweep_spec)
        tasks = len(plan.tasks)
        issues = []
        if sweep["fingerprint"] != plan.fingerprint():
            issues.append("ran another plan than the one submitted")
        if sweep["failed_shards"]:
            issues.append(f"failed shards {sweep['failed_shards']}")
        if sweep["records"] != tasks:
            issues.append(f"{sweep['records']} records for {tasks} tasks")
        if sweep["cache_hits"] != 0 or sweep["cache_misses"] != tasks:
            issues.append(f"guard: {sweep['cache_hits']} cache hits, "
                          f"{sweep['cache_misses']} misses (want 0, {tasks})")
        resolved = resolve_executor("auto", plan, spec["workers"])
        observed = "pool" if sweep["child_cpu_s"] > 0 else "inline"
        if resolved != expected or observed != expected:
            issues.append(f"guard: executor resolves {resolved}, ran "
                          f"{observed} (want {expected})")
        found, records = aggregate_issues(
            Path(sweep["out_dir"]), plan, sweep["digest"],
            pins.get(plan.fingerprint()))
        issues += found
        if not found:
            issues += rerun_issues(plan, records, rng,
                                   RERUN_PER_SWEEP[workload])
        verdict.add(f"sweep {index}", tasks, issues)
    return verdict


def verify_serve(spec: dict, jobs: list[dict], root: Path, workers: list[int],
                 health: dict, seed: int) -> Verdict:
    from repro.fleet import plan_from_spec

    pins = load_pins("serve")
    rng = random.Random(f"perfbench-check:serve:{seed}")
    verdict = Verdict()
    digests: dict[int, str] = {}
    planned_hits = 0
    for index, (job, outcome) in enumerate(zip(spec["jobs"], jobs, strict=True)):
        status = outcome["status"]
        plan = plan_from_spec(job["spec"])
        tasks = len(plan.tasks)
        issues = []
        if status["state"] != "done":
            issues.append(f"job ended {status['state']}: {status['error']}")
            verdict.add(f"job {index}", tasks, issues)
            continue
        if status["fingerprint"] != plan.fingerprint():
            issues.append("ran another plan than the one submitted")
        hits = tasks if job["class"] == "resubmit" else 0
        planned_hits += hits
        if status["cache_hits"] != hits:
            issues.append(f"guard: {status['cache_hits']} cache hits "
                          f"(want {hits})")
        pooled = outcome["worker_ticks"] > 0
        if pooled != (job["class"] == "sweep"):
            issues.append(f"guard: a {job['class']} ran "
                          f"{'on the pool' if pooled else 'inline'}")
        path = Path(status["registry_path"]) / "aggregate.json"
        digest = sha256(path.read_bytes()) if path.exists() else None
        found, records = aggregate_issues(
            root / "jobs" / plan.fingerprint(), plan, digest,
            pins.get(plan.fingerprint()))
        issues += found
        if job["repeats"] is not None and digest != digests.get(job["repeats"]):
            issues.append(f"resubmit does not reproduce job {job['repeats']}")
        if not found and job["class"] == "sweep":
            issues += rerun_issues(plan, records, rng,
                                   RERUN_PER_SWEEP["serve"])
        digests[index] = digest
        verdict.add(f"job {index} ({job['class']})", tasks, issues)
    guards = []
    if health["executors_spawned"] != 1:
        guards.append(f"{health['executors_spawned']} pool spawns (want 1)")
    if len(workers) != 2:
        guards.append(f"{len(workers)} warm workers (want 2)")
    if health["cache"]["hits"] != planned_hits:
        guards.append(f"{health['cache']['hits']} cache hits in all "
                      f"(want {planned_hits})")
    verdict.problems.extend(f"guard: {g}" for g in guards)
    return verdict


def regen_digests(seed: int, seconds: float) -> None:
    """Recompute the pinned digests of the default seed and length.

    Each plan runs inline with no cache and no checkpoint — another
    path than the benchmark takes, so a pin also checks that the
    executor, the cache and the wire leave the aggregate unchanged.
    """
    from repro.fleet import FleetRunner, canonical_json, plan_from_spec

    def digest(spec: dict) -> tuple[str, str]:
        plan = plan_from_spec(spec)
        report = FleetRunner(plan, workers=1, executor="inline").run()
        return plan.fingerprint(), sha256(canonical_json(report.aggregate).encode())

    pins = {workload: dict(digest(s) for s in
                           gen.fleet_inputs(workload, seed, seconds)["sweeps"])
            for workload in ("table4", "matrix")}
    pins["serve"] = dict(digest(job["spec"]) for job in
                         gen.serve_inputs(seed, seconds)["jobs"]
                         if job["repeats"] is None)
    DIGESTS.write_text(json.dumps({
        "seed": seed, "seconds": seconds,
        "command": "python3 perfbench/run.py --regen-digests",
        "digests": pins}, sort_keys=True, indent=1) + "\n")
