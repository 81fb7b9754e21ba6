"""Shard-planning math and seed derivation for ``repro.fleet``."""

import pytest

from repro.fleet.planner import (
    FleetPlan,
    Shard,
    TaskSpec,
    filter_scenarios,
    matrix_tasks,
    plan_from_spec,
    plan_matrix,
    repeat_tasks,
    shard_tasks,
    suite_tasks,
)
from repro.infra.failures import FailureClass
from repro.simkernel.rng import derive_seed
from repro.testbed.harness import HandlingMode, pick_scenario
from repro.testbed.scenarios import ALL_SCENARIOS, SCN_DD_GATEWAY


def _dummy_tasks(n):
    return [TaskSpec(task_id=i, scenario="cp_timeout_transient",
                     handling="legacy", seed=i) for i in range(n)]


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "a", 1) == derive_seed(7, "a", 1)

    def test_sensitive_to_every_part(self):
        base = derive_seed(7, "scn", "mode", 0)
        assert base != derive_seed(8, "scn", "mode", 0)
        assert base != derive_seed(7, "other", "mode", 0)
        assert base != derive_seed(7, "scn", "mode", 1)


class TestSharding:
    def test_even_and_remainder(self):
        shards = shard_tasks(_dummy_tasks(10), shard_size=4)
        assert [len(s.tasks) for s in shards] == [4, 4, 2]
        assert [s.shard_id for s in shards] == [0, 1, 2]

    def test_shard_size_one(self):
        shards = shard_tasks(_dummy_tasks(3), shard_size=1)
        assert len(shards) == 3 and all(len(s.tasks) == 1 for s in shards)

    def test_preserves_task_order(self):
        shards = shard_tasks(_dummy_tasks(7), shard_size=3)
        flat = [t.task_id for s in shards for t in s.tasks]
        assert flat == list(range(7))

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            shard_tasks(_dummy_tasks(2), shard_size=0)


class TestMatrixTasks:
    def test_cardinality(self):
        scenarios = filter_scenarios(["cp_timeout_*"])
        tasks = matrix_tasks(scenarios, [HandlingMode.LEGACY, HandlingMode.SEED_R],
                             replicas=3, master_seed=5)
        assert len(tasks) == len(scenarios) * 2 * 3
        assert [t.task_id for t in tasks] == list(range(len(tasks)))

    def test_seeds_depend_only_on_coordinates(self):
        scenarios = filter_scenarios(["cp_timeout_transient"])
        few = matrix_tasks(scenarios, [HandlingMode.SEED_R], replicas=2, master_seed=5)
        many = matrix_tasks(scenarios, [HandlingMode.SEED_R], replicas=4, master_seed=5)
        assert [t.seed for t in few] == [t.seed for t in many[:2]]

    def test_seeds_distinct_across_replicas(self):
        scenarios = filter_scenarios(["dp_transient"])
        tasks = matrix_tasks(scenarios, [HandlingMode.SEED_U], replicas=8, master_seed=1)
        assert len({t.seed for t in tasks}) == 8


class TestSuiteTasks:
    def test_mirrors_run_suite_draws(self):
        tasks = suite_tasks(FailureClass.CONTROL_PLANE, HandlingMode.SEED_R,
                            runs=10, seed=1000)
        for index, task in enumerate(tasks):
            assert task.seed == 1000 + index
            expected = pick_scenario(FailureClass.CONTROL_PLANE, 1000 + index)
            assert task.scenario == expected.name
            assert task.handling == "seed_r"

    def test_repeat_tasks_fixed_scenario(self):
        tasks = repeat_tasks(SCN_DD_GATEWAY, HandlingMode.LEGACY, runs=4, seed=20)
        assert all(t.scenario == "dd_gateway_stale" for t in tasks)
        assert [t.seed for t in tasks] == [20, 21, 22, 23]


class TestFilter:
    def test_default_is_everything(self):
        assert len(filter_scenarios(None)) == len(ALL_SCENARIOS)

    def test_glob(self):
        names = {s.name for s in filter_scenarios(["dd_*"])}
        assert names == {"dd_gateway_stale", "dd_tcp_policy_block",
                         "dd_udp_block", "dd_dns_outage"}

    def test_no_match_raises(self):
        with pytest.raises(ValueError):
            filter_scenarios(["nope_*"])


class TestPlan:
    def test_fingerprint_stable_and_content_sensitive(self):
        kwargs = dict(scenario_patterns=["cp_*"], modes=[HandlingMode.SEED_R],
                      replicas=2, master_seed=9)
        assert plan_matrix(**kwargs).fingerprint() == plan_matrix(**kwargs).fingerprint()
        other = plan_matrix(scenario_patterns=["cp_*"], modes=[HandlingMode.SEED_R],
                            replicas=3, master_seed=9)
        assert other.fingerprint() != plan_matrix(**kwargs).fingerprint()

    def test_json_roundtrip(self):
        plan = plan_matrix(scenario_patterns=["dp_transient"], replicas=2,
                           master_seed=3, shard_size=2)
        rebuilt = FleetPlan(
            master_seed=plan.to_json()["master_seed"],
            shards=tuple(Shard.from_json(s) for s in plan.to_json()["shards"]),
        )
        assert rebuilt == plan
        assert rebuilt.fingerprint() == plan.fingerprint()

    def test_tasks_flatten_in_order(self):
        plan = plan_matrix(scenario_patterns=["cp_*"], modes=[HandlingMode.LEGACY],
                           replicas=2, master_seed=0, shard_size=3)
        assert [t.task_id for t in plan.tasks] == list(range(len(plan.tasks)))


class TestSpec:
    def test_unknown_keys_are_rejected_with_the_valid_ones(self):
        # a misspelt axis must not silently plan another sweep
        with pytest.raises(ValueError, match=r"'replica' \(valid: kind, "
                           r"scenarios, modes, replicas, seed, shard_size, "
                           r"cohort_size\)"):
            plan_from_spec({"kind": "matrix", "scenarios": ["cp_plmn_config"],
                            "replica": 5})
        with pytest.raises(ValueError, match=r"'replicas' \(valid: kind, "
                           r"suite, runs, seed, shard_size\)"):
            plan_from_spec({"kind": "suite", "suite": "table4",
                            "replicas": 2})
        # every key a kind reads is accepted
        plan = plan_from_spec({"kind": "matrix",
                               "scenarios": ["cp_plmn_config"],
                               "modes": ["legacy"], "replicas": 2, "seed": 1,
                               "shard_size": 2, "cohort_size": 2})
        assert len(plan.tasks) == 2
        plan = plan_from_spec({"kind": "suite", "suite": "table4", "runs": 2,
                               "seed": 1, "shard_size": 2})
        assert plan.tasks
