"""The one UE host and cohort shards.

A :class:`Cohort` hosts exactly one UE, so a cohort run is a
``Testbed`` run. ``cohort_size`` only packs a matrix sweep's tasks into
shards: each task still runs alone, so its record, learning and
fired events are the same whatever its packing — through the worker
directly and through the fleet path, at one worker and at four.
"""

import json

import pytest

from repro.core.online_learning import merge_records
from repro.fleet.planner import Shard, TaskSpec, plan_from_spec, plan_matrix
from repro.fleet.runner import FleetRunner
from repro.fleet.worker import run_cohort_tasks, run_shard_object, run_task
from repro.infra.failures import FailureClass
from repro.testbed import harness
from repro.testbed.harness import (
    Cohort,
    CohortMember,
    HandlingMode,
    Testbed,
    pick_scenario,
    run_one,
)

COHORT_SEED = 424242


def parity_surface(result):
    """Everything a run reports (audit-only meta excluded)."""
    m = result.measurement
    return (result.scenario, result.handling, m.onset, m.recovered_at,
            result.duration, result.recovered, result.notified_user,
            result.timed)


def members_for(cohort_seed, n):
    """n heterogeneous members cycling classes × handling modes, and
    each one's single-run twin (scenario, handling, seed)."""
    classes = list(FailureClass)
    handlings = list(HandlingMode)
    members, twins = [], []
    for index in range(n):
        failure_class = classes[index % len(classes)]
        handling = handlings[(index // len(classes)) % len(handlings)]
        scenario = pick_scenario(failure_class, cohort_seed)
        members.append(CohortMember(scenario=scenario, handling=handling))
        twins.append((scenario, handling, cohort_seed))
    return members, twins


class TestCohortParity:
    @pytest.mark.parametrize("size", [1])
    def test_byte_identical_to_single_runs(self, size):
        members, twins = members_for(COHORT_SEED, size)
        result = Cohort(members, seed=COHORT_SEED).run()
        [(scenario, handling, seed)] = twins
        single, _testbed = run_one(scenario, handling, seed)
        assert parity_surface(result) == parity_surface(single)
        assert result.meta == single.meta

    def test_ue0_is_the_single_testbed_subscriber(self):
        members, _ = members_for(COHORT_SEED, 1)
        cohort = Cohort(members, seed=COHORT_SEED)
        assert cohort.slots[0].supi == Testbed().device.supi

    @pytest.mark.parametrize("size", [0, 2])
    def test_a_cohort_hosts_exactly_one_member(self, size):
        members, _ = members_for(COHORT_SEED, size)
        with pytest.raises(ValueError, match="exactly one member"):
            Cohort(members, seed=COHORT_SEED)


@pytest.fixture
def simulators(monkeypatch):
    """Every simulator the harness builds while the test runs."""
    built = []

    class Recorded(harness.Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(harness, "Simulator", Recorded)
    return built


class TestPackingIndependence:
    def test_cohort_shards_return_run_task_bytes(self):
        plan = plan_from_spec({"kind": "matrix",
                               "scenarios": ["dd_udp_block", "dp_outdated_dnn"],
                               "modes": ["seed_u"], "replicas": 4,
                               "cohort_size": 4, "seed": 2718})
        assert [len(shard.tasks) for shard in plan.shards] == [4, 4]
        for shard in plan.shards:
            records, learning = run_cohort_tasks(shard.tasks)
            alone = [run_task(task) for task in shard.tasks]
            # elided_events included: each task reports its own count.
            assert json.dumps(records, sort_keys=True) == \
                json.dumps([record for record, _ in alone], sort_keys=True)
            merged = {}
            for _, wire in alone:
                merge_records(merged, wire)
            assert learning == merged

    def test_matrix_fires_as_many_events_as_its_tasks_alone(self, simulators):
        plan = plan_from_spec({"kind": "matrix", "replicas": 4,
                               "cohort_size": 4, "seed": 2718})
        assert len(plan.shards) == 54
        for shard in plan.shards:
            run_shard_object(shard)
        packed = sum(sim.fired_events for sim in simulators)
        simulators.clear()
        for task in plan.tasks:
            run_task(task)
        alone = sum(sim.fired_events for sim in simulators)
        assert packed == alone == 29_031


#: Small real sweep reused by the fleet parity tests (8 tasks).
FLEET_SPEC = {"kind": "matrix",
              "scenarios": ["cp_timeout_transient", "dp_transient"],
              "modes": ["legacy", "seed_r"],
              "replicas": 2, "seed": 77, "shard_size": 2}


def _aggregate_bytes(tmp_path, name, cohort_size, workers):
    spec = dict(FLEET_SPEC)
    if cohort_size != 1:
        spec["cohort_size"] = cohort_size
    out = tmp_path / name
    FleetRunner(plan_from_spec(spec), workers=workers, out_dir=str(out)).run()
    return (out / "aggregate.json").read_bytes()


class TestCohortFleet:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_aggregate_byte_parity(self, tmp_path, workers):
        base = _aggregate_bytes(tmp_path, "base", cohort_size=1, workers=1)
        cohort = _aggregate_bytes(tmp_path, f"cohort-w{workers}",
                                  cohort_size=4, workers=workers)
        assert cohort == base

    def test_wire_format_compat(self):
        # cohort_size == 1 is omitted from the wire form, so existing
        # plans, fingerprints, and checkpoints are untouched.
        task = TaskSpec(task_id=0, scenario="dp_transient",
                        handling="legacy", seed=1)
        plain = Shard(shard_id=0, tasks=(task,))
        assert "cohort_size" not in plain.to_json()
        assert Shard.from_json(plain.to_json()) == plain
        cohort = Shard(shard_id=0, tasks=(task,), cohort_size=8)
        assert cohort.to_json()["cohort_size"] == 8
        assert Shard.from_json(cohort.to_json()) == cohort

    def test_fingerprints(self):
        base = plan_matrix(["dp_transient"], replicas=4, master_seed=3)
        same = plan_matrix(["dp_transient"], replicas=4, master_seed=3,
                           cohort_size=1)
        packed = plan_matrix(["dp_transient"], replicas=4, master_seed=3,
                             cohort_size=4)
        assert base.fingerprint() == same.fingerprint()
        assert packed.fingerprint() != base.fingerprint()
        # One cohort per shard: the cohort IS the shard.
        assert all(len(s.tasks) <= 4 and s.cohort_size == 4
                   for s in packed.shards)
        assert [t.task_id for t in packed.tasks] == \
            [t.task_id for t in base.tasks]

    def test_spec_axis(self):
        plan = plan_from_spec({"kind": "matrix",
                               "scenarios": ["dp_transient"],
                               "modes": ["legacy"], "replicas": 4,
                               "seed": 5, "cohort_size": 2})
        assert all(shard.cohort_size == 2 for shard in plan.shards)
        with pytest.raises(ValueError, match="matrix"):
            plan_from_spec({"kind": "suite", "suite": "table4",
                            "runs": 4, "cohort_size": 2})
