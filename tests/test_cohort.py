"""Cohort testbeds: N UEs per simulator instance.

The invariant under test: a cohort-of-N's per-UE results are
**byte-identical** to N independent single-UE runs (one-member
cohorts) at the same derived seeds — through the harness directly and
through the fleet path (``cohort_size`` shards), at one worker and at
four. Plus the quiescence invariant: a cohort run that stops at
quiescence reports the same results as one burning the full horizon.
"""

import os

import pytest

from repro.fleet.planner import Shard, TaskSpec, plan_from_spec, plan_matrix
from repro.fleet.runner import FleetRunner
from repro.infra.failures import FailureClass
from repro.simkernel.rng import derive_seed
from repro.testbed.harness import (
    Cohort,
    CohortMember,
    HandlingMode,
    Testbed,
    pick_scenario,
    run_one,
)
from repro.testbed.scenarios import scenario_by_name

COHORT_SEED = 424242


def parity_surface(result):
    """Everything a run reports (audit-only meta excluded)."""
    m = result.measurement
    return (result.scenario, result.handling, m.onset, m.recovered_at,
            result.duration, result.recovered, result.notified_user,
            result.timed)


def members_for(cohort_seed, n):
    """n heterogeneous members cycling classes × handling modes."""
    classes = list(FailureClass)
    handlings = list(HandlingMode)
    members, twins = [], []
    for index in range(n):
        failure_class = classes[index % len(classes)]
        handling = handlings[(index // len(classes)) % len(handlings)]
        seed = derive_seed(cohort_seed, index)
        members.append(CohortMember(
            scenario=pick_scenario(failure_class, seed), handling=handling))
        twins.append((pick_scenario(failure_class, seed), handling, seed))
    return members, twins


class TestCohortParity:
    @pytest.mark.parametrize("size", [1, 4, 16])
    def test_byte_identical_to_single_runs(self, size):
        members, twins = members_for(COHORT_SEED, size)
        outcome = Cohort(members, seed=COHORT_SEED).run()
        assert outcome.cohort_size == size
        for index, (scenario, handling, seed) in enumerate(twins):
            single, _testbed = run_one(scenario, handling, seed)
            assert parity_surface(outcome.results[index]) == \
                parity_surface(single), f"UE {index} diverged"

    def test_member_seed_derivation(self):
        members, _ = members_for(COHORT_SEED, 2)
        cohort = Cohort(members, seed=COHORT_SEED)
        assert cohort.slots[0].seed == derive_seed(COHORT_SEED, 0)
        assert cohort.slots[1].seed == derive_seed(COHORT_SEED, 1)
        # An explicit member seed wins over derivation.
        pinned = CohortMember(scenario=members[0].scenario, seed=99)
        assert Cohort([pinned], seed=COHORT_SEED).slots[0].seed == 99

    def test_ue0_is_the_single_testbed_subscriber(self):
        members, _ = members_for(COHORT_SEED, 1)
        cohort = Cohort(members, seed=COHORT_SEED)
        assert cohort.slots[0].supi == Testbed().device.supi

    def test_shared_infrastructure(self):
        members, _ = members_for(COHORT_SEED, 4)
        cohort = Cohort(members, seed=COHORT_SEED)
        # One simulator, one core: every slot shares them.
        assert len({id(slot.sim) for slot in cohort.slots}) == 1
        assert all(slot.device.modem.gnb is cohort.core.gnb
                   for slot in cohort.slots)
        # ... but private RNG streams and address blocks.
        assert len({id(slot.rng) for slot in cohort.slots}) == 4
        subnets = {cohort.core.smf._subnets[slot.supi] for slot in cohort.slots}
        assert len(subnets) == 4


class TestCohortQuiescence:
    def test_full_horizon_parity(self, monkeypatch):
        # All-SEED members recover and settle, so the quiesced run
        # elides a real horizon tail — and must report identically.
        members = [
            CohortMember(scenario=pick_scenario(FailureClass.DATA_PLANE,
                                                derive_seed(COHORT_SEED, i)),
                         handling=HandlingMode.SEED_R)
            for i in range(4)
        ]
        monkeypatch.delenv("REPRO_FULL_HORIZON", raising=False)
        quiesced = Cohort(members, seed=COHORT_SEED).run()
        monkeypatch.setenv("REPRO_FULL_HORIZON", "1")
        full = Cohort(members, seed=COHORT_SEED).run()
        assert [parity_surface(r) for r in quiesced.results] == \
            [parity_surface(r) for r in full.results]
        assert quiesced.elided_events > 0
        assert full.elided_events == 0

    def test_straggler_does_not_block_settled_members(self):
        # A legacy user-action-only member censors at its horizon; the
        # SEED members' results must be identical to their twins even
        # though the cohort ran far past their own horizons.
        scn_stuck = pick_scenario(FailureClass.DATA_PLANE,
                                  derive_seed(COHORT_SEED, 0))
        members = [
            CohortMember(scenario=scn_stuck, handling=HandlingMode.LEGACY),
            CohortMember(scenario=pick_scenario(FailureClass.CONTROL_PLANE,
                                                derive_seed(COHORT_SEED, 1)),
                         handling=HandlingMode.SEED_R),
        ]
        outcome = Cohort(members, seed=COHORT_SEED).run()
        twin, _ = run_one(pick_scenario(FailureClass.CONTROL_PLANE,
                                        derive_seed(COHORT_SEED, 1)),
                          HandlingMode.SEED_R, derive_seed(COHORT_SEED, 1))
        assert parity_surface(outcome.results[1]) == parity_surface(twin)


def app_disruptions(device):
    return {name: [(d.start, d.end) for d in app.disruptions]
            for name, app in device.apps.items()}


def assert_members_match_twins(cells, horizons=None):
    """Run ``cells`` as one cohort; each member's app disruption lists
    must equal its dedicated twin's. Returns the cohort."""
    horizons = horizons or [None] * len(cells)
    members = [CohortMember(scenario=scenario_by_name(name),
                            handling=handling,
                            seed=derive_seed(COHORT_SEED, index),
                            horizon=horizon)
               for index, ((name, handling), horizon)
               in enumerate(zip(cells, horizons))]
    cohort = Cohort(members, seed=COHORT_SEED)
    cohort.run()
    for slot, (name, handling), horizon in zip(cohort.slots, cells, horizons):
        _result, twin = run_one(scenario_by_name(name), handling, slot.seed,
                                horizon=horizon)
        assert app_disruptions(slot.device) == app_disruptions(twin.device), name
    return cohort


class TestCohortAppParity:
    def test_members_match_twins_at_app_level(self):
        # A horizon-censored member's open app disruptions close at its
        # own end, whether its freeze fires (just past that end) or the
        # cohort quiesces and snapshots everyone at the longest horizon.
        cohort = assert_members_match_twins(
            [("dd_udp_block", HandlingMode.LEGACY),
             ("dp_outdated_dnn", HandlingMode.SEED_R),
             ("dd_tcp_policy_block", HandlingMode.SEED_U)])
        # The censored members really carry an open-at-horizon disruption.
        censored = app_disruptions(cohort.slots[0].device)["edge_ar"]
        assert censored[-1][1] == cohort.slots[0].end

    def test_frozen_member_records_nothing_past_its_end(self):
        # The first member's freeze fires while the second still runs
        # its ladder; exchanges in flight at the freeze must not reopen
        # a disruption after the snapshot.
        cohort = assert_members_match_twins(
            [("dd_udp_block", HandlingMode.LEGACY),
             ("dd_tcp_policy_block", HandlingMode.LEGACY)],
            horizons=[30.0, None])
        quiesced_at = cohort.sim.quiesced_at
        assert quiesced_at is None or cohort.slots[0].end < quiesced_at


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
