"""Scenario-matrix expansion into deterministic shards.

The planner turns a sweep description — either an explicit scenario ×
handling-mode × replica matrix, or a paper-suite replay (the trace-mix
weighted draws of :func:`repro.testbed.harness.run_suite`) — into a
flat list of :class:`TaskSpec` s, then packs them into :class:`Shard` s
of a configurable size. Every task carries its own seed:

* matrix tasks derive it as ``derive_seed(master, scenario, mode,
  replica)``, so the seed depends only on the task's coordinates;
* suite tasks use ``master + replica`` and the suite's weighted picker,
  byte-compatible with the sequential ``run_suite`` path so the
  existing paper benchmarks double as the fleet's correctness oracle.

Plans are pure data (JSON-safe all the way down) and carry a content
fingerprint, which the checkpoint layer uses to refuse resuming a run
directory that was produced by a different plan.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
from dataclasses import dataclass, field

from repro.infra.failures import FailureClass
from repro.simkernel.rng import derive_seed
from repro.testbed.harness import HandlingMode, pick_scenario
from repro.testbed.scenarios import ALL_SCENARIOS, Scenario

DEFAULT_SHARD_SIZE = 4


@dataclass(frozen=True)
class TaskSpec:
    """One scenario run: everything a worker needs, JSON-safe."""

    task_id: int
    scenario: str
    handling: str                       # HandlingMode.value
    seed: int
    replica: int = 0
    android_timers: dict | None = None  # AndroidTimers kwargs, or None for stock
    horizon: float | None = None

    def to_json(self) -> dict:
        spec = {
            "task_id": self.task_id, "scenario": self.scenario,
            "handling": self.handling, "seed": self.seed,
            "replica": self.replica,
        }
        if self.android_timers is not None:
            spec["android_timers"] = self.android_timers
        if self.horizon is not None:
            spec["horizon"] = self.horizon
        return spec

    @classmethod
    def from_json(cls, data: dict) -> "TaskSpec":
        return cls(
            task_id=data["task_id"], scenario=data["scenario"],
            handling=data["handling"], seed=data["seed"],
            replica=data.get("replica", 0),
            android_timers=data.get("android_timers"),
            horizon=data.get("horizon"),
        )


@dataclass(frozen=True)
class Shard:
    """A batch of tasks executed by one worker invocation.

    ``cohort_size > 1`` marks a *cohort shard*, packed by
    :func:`shard_tasks`. The worker runs each of its tasks alone on its
    own one-UE testbed, as for any shard, so the per-task records are
    the same either way. The field is omitted from the wire form when
    1, keeping plan fingerprints and checkpoints for non-cohort sweeps
    unchanged.
    """

    shard_id: int
    tasks: tuple[TaskSpec, ...]
    cohort_size: int = 1

    def to_json(self) -> dict:
        spec = {"shard_id": self.shard_id,
                "tasks": [task.to_json() for task in self.tasks]}
        if self.cohort_size != 1:
            spec["cohort_size"] = self.cohort_size
        return spec

    @classmethod
    def from_json(cls, data: dict) -> "Shard":
        return cls(shard_id=data["shard_id"],
                   tasks=tuple(TaskSpec.from_json(t) for t in data["tasks"]),
                   cohort_size=data.get("cohort_size", 1))


@dataclass
class FleetPlan:
    """The full sweep: master seed + sharded task list."""

    master_seed: int
    shards: tuple[Shard, ...] = field(default_factory=tuple)

    @property
    def tasks(self) -> list[TaskSpec]:
        return [task for shard in self.shards for task in shard.tasks]

    def to_json(self) -> dict:
        return {"master_seed": self.master_seed,
                "shards": [shard.to_json() for shard in self.shards]}

    def fingerprint(self) -> str:
        """Content hash used to match checkpoints to plans."""
        canonical = json.dumps(self.to_json(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Task expansion
# ---------------------------------------------------------------------------
def filter_scenarios(patterns: list[str] | None) -> list[Scenario]:
    """Scenarios whose names match any glob pattern (all when None)."""
    if not patterns:
        return list(ALL_SCENARIOS)
    matched = [s for s in ALL_SCENARIOS
               if any(fnmatch.fnmatch(s.name, p) for p in patterns)]
    if not matched:
        raise ValueError(f"no scenarios match {patterns!r}")
    return matched


def matrix_tasks(
    scenarios: list[Scenario],
    modes: list[HandlingMode],
    replicas: int,
    master_seed: int,
    start_task_id: int = 0,
    android_timers: dict | None = None,
) -> list[TaskSpec]:
    """Expand scenario × mode × replica; seeds from task coordinates."""
    tasks = []
    task_id = start_task_id
    for scenario in scenarios:
        for mode in modes:
            for replica in range(replicas):
                tasks.append(TaskSpec(
                    task_id=task_id,
                    scenario=scenario.name,
                    handling=mode.value,
                    seed=derive_seed(master_seed, scenario.name, mode.value, replica),
                    replica=replica,
                    android_timers=android_timers,
                ))
                task_id += 1
    return tasks


def suite_tasks(
    failure_class: FailureClass,
    handling: HandlingMode,
    runs: int,
    seed: int,
    start_task_id: int = 0,
    android_timers: dict | None = None,
) -> list[TaskSpec]:
    """The ``run_suite`` replay: weighted draws, seeds ``seed + index``."""
    tasks = []
    for index in range(runs):
        scenario = pick_scenario(failure_class, seed + index)
        tasks.append(TaskSpec(
            task_id=start_task_id + index,
            scenario=scenario.name,
            handling=handling.value,
            seed=seed + index,
            replica=index,
            android_timers=android_timers,
        ))
    return tasks


def repeat_tasks(
    scenario: Scenario,
    handling: HandlingMode,
    runs: int,
    seed: int,
    start_task_id: int = 0,
    android_timers: dict | None = None,
) -> list[TaskSpec]:
    """One fixed scenario over ``runs`` seeds (``seed + index``)."""
    return [TaskSpec(
        task_id=start_task_id + index,
        scenario=scenario.name,
        handling=handling.value,
        seed=seed + index,
        replica=index,
        android_timers=android_timers,
    ) for index in range(runs)]


# ---------------------------------------------------------------------------
# Sharding
# ---------------------------------------------------------------------------
def shard_tasks(
    tasks: list[TaskSpec],
    shard_size: int = DEFAULT_SHARD_SIZE,
    cohort_size: int = 1,
) -> tuple[Shard, ...]:
    """Pack tasks into shards of ``shard_size`` (last may be smaller).

    ``cohort_size > 1`` switches to cohort packing: each shard holds up
    to ``cohort_size`` tasks (``shard_size`` is ignored) and carries
    ``cohort_size``, which enters the plan fingerprint.
    """
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    if cohort_size < 1:
        raise ValueError(f"cohort_size must be >= 1, got {cohort_size}")
    if cohort_size > 1:
        shard_size = cohort_size
    shards = []
    for shard_id, start in enumerate(range(0, len(tasks), shard_size)):
        shards.append(Shard(shard_id=shard_id,
                            tasks=tuple(tasks[start:start + shard_size]),
                            cohort_size=cohort_size))
    return tuple(shards)


def residual_plan(plan: FleetPlan, done_task_ids: set[int]) -> FleetPlan:
    """The sub-plan of tasks not already satisfied elsewhere.

    The result-cache partition: tasks whose records are already in hand
    (``done_task_ids``) drop out, shards left empty disappear, and a
    cohort shard with K satisfied tasks shrinks to its N−K others —
    every task runs alone under its own seed, so any partition of a
    shard is record-equivalent. A single leftover task degrades to
    ``cohort_size=1``.

    Shard ids and task ids/seeds are preserved, so residual results
    merge straight back into the original plan's result and checkpoint
    keyspace. With nothing satisfied the plan object itself is
    returned (fingerprint-stable fast path).
    """
    if not done_task_ids:
        return plan
    shards: list[Shard] = []
    for shard in plan.shards:
        kept = tuple(t for t in shard.tasks
                     if t.task_id not in done_task_ids)
        if not kept:
            continue
        if len(kept) == len(shard.tasks):
            shards.append(shard)
            continue
        cohort_size = shard.cohort_size if len(kept) > 1 else 1
        shards.append(Shard(shard_id=shard.shard_id, tasks=kept,
                            cohort_size=cohort_size))
    return FleetPlan(master_seed=plan.master_seed, shards=tuple(shards))


def plan_matrix(
    scenario_patterns: list[str] | None = None,
    modes: list[HandlingMode] | None = None,
    replicas: int = 1,
    master_seed: int = 0,
    shard_size: int = DEFAULT_SHARD_SIZE,
    cohort_size: int = 1,
) -> FleetPlan:
    """Plan a scenario-matrix sweep (the generic CLI path)."""
    scenarios = filter_scenarios(scenario_patterns)
    modes = list(modes) if modes else list(HandlingMode)
    tasks = matrix_tasks(scenarios, modes, replicas, master_seed)
    return FleetPlan(master_seed=master_seed,
                     shards=shard_tasks(tasks, shard_size, cohort_size))


# ---------------------------------------------------------------------------
# Sweep specs (the JSON wire format shared by the CLIs and repro.serve)
# ---------------------------------------------------------------------------
#: The keys each sweep kind reads; any other key is rejected.
_SPEC_KEYS = {
    "matrix": ("kind", "scenarios", "modes", "replicas", "seed",
               "shard_size", "cohort_size"),
    "suite": ("kind", "suite", "runs", "seed", "shard_size"),
}


def plan_from_spec(spec: dict) -> FleetPlan:
    """Build a plan from a JSON-safe sweep spec.

    Two kinds::

        {"kind": "matrix", "scenarios": ["dp_*"], "modes": ["legacy",
         "seed_r"], "replicas": 5, "seed": 42, "shard_size": 4,
         "cohort_size": 1}
        {"kind": "suite", "suite": "table4" | "coverage", "runs": 30,
         "seed": 4000, "shard_size": 4}

    ``cohort_size > 1`` (matrix sweeps only) packs the tasks into
    cohort shards of that size; per-task records are byte-identical
    either way.

    This is the single spec → plan mapping: ``python -m repro.fleet``,
    ``python -m repro.serve submit``, and the daemon's job queue all
    route through it, so a spec means the same sweep — and therefore
    the same aggregate bytes — no matter which surface submitted it.
    Raises ``ValueError`` on unknown kinds/keys/suites/modes/scenarios:
    a key the kind does not read would otherwise be dropped silently,
    and the spec would mean another sweep than the one written.
    """
    kind = spec.get("kind", "matrix")
    if kind not in ("matrix", "suite"):
        raise ValueError(f"unknown sweep kind {kind!r} (valid: matrix, suite)")
    if kind == "suite" and "cohort_size" in spec:
        raise ValueError("cohort_size is only supported for matrix sweeps")
    unknown = [key for key in spec if key not in _SPEC_KEYS[kind]]
    if unknown:
        raise ValueError(
            f"unknown {kind} spec key {', '.join(map(repr, unknown))} "
            f"(valid: {', '.join(_SPEC_KEYS[kind])})")
    shard_size = int(spec.get("shard_size", DEFAULT_SHARD_SIZE))
    if kind == "suite":
        suite = spec.get("suite")
        runs = int(spec.get("runs", 30))
        seed = int(spec.get("seed", 0))
        # Deferred imports: experiments sit above the fleet layer.
        if suite == "table4":
            from repro.experiments import table4
            return table4.fleet_plan(runs=runs, seed=seed or 4000,
                                     shard_size=shard_size)
        if suite == "coverage":
            from repro.experiments import coverage
            return coverage.fleet_plan(runs=runs, seed=seed or 7000,
                                       shard_size=shard_size)
        raise ValueError(f"unknown suite {suite!r} (valid: table4, coverage)")
    mode_names = spec.get("modes") or [mode.value for mode in HandlingMode]
    try:
        modes = [HandlingMode(name) for name in mode_names]
    except ValueError:
        valid = ", ".join(mode.value for mode in HandlingMode)
        raise ValueError(
            f"unknown handling mode in {mode_names!r} (valid: {valid})")
    return plan_matrix(
        scenario_patterns=spec.get("scenarios"),
        modes=modes,
        replicas=int(spec.get("replicas", 1)),
        master_seed=int(spec.get("seed", 0)),
        shard_size=shard_size,
        cohort_size=int(spec.get("cohort_size", 1)),
    )
