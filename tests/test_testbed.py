"""Testbed and scenario-matrix tests: Table 4 shape assertions."""

import copy

import pytest

from repro.analysis.cdf import percentile
from repro.core.deploy import deploy_seed
from repro.device import Device
from repro.device.android import AndroidTimers
from repro.infra import CoreNetwork
from repro.infra.failures import FailureClass
from repro.sim_card.profile import SimProfile
from repro.simkernel import Simulator
from repro.testbed import (
    CONTROL_PLANE_MIX,
    DATA_DELIVERY_MIX,
    DATA_PLANE_MIX,
    HandlingMode,
    Testbed,
    scenario_by_name,
)
from repro.testbed.harness import (
    SUBSCRIBER_K,
    SUBSCRIBER_OPC,
    WARMUP,
    coverage,
    run_suite,
    timed_durations,
)
from repro.testbed.measurement import ConnectivityOracle
from repro.testbed.scenarios import ConnectivityTarget


class TestScenarioCatalog:
    def test_mix_weights_sum_to_one(self):
        for mix in (CONTROL_PLANE_MIX, DATA_PLANE_MIX, DATA_DELIVERY_MIX):
            assert sum(s.weight for s in mix) == pytest.approx(1.0)

    def test_lookup_by_name(self):
        assert scenario_by_name("dp_outdated_dnn").failure_class is FailureClass.DATA_PLANE
        with pytest.raises(KeyError):
            scenario_by_name("nonexistent")

    def test_user_action_scenarios_untimed(self):
        assert not scenario_by_name("cp_subscription_expired").timed
        assert not scenario_by_name("dp_user_auth_failed").timed


class TestWarmUp:
    def test_warm_up_reaches_steady_state(self):
        tb = Testbed(seed=1)
        tb.warm_up()
        assert tb.device.modem.registered
        assert tb.device.data_session_active()

    def test_oracle_tracks_state(self):
        tb = Testbed(seed=1)
        oracle = ConnectivityOracle(tb.core, tb.device)
        target = ConnectivityTarget()
        assert not oracle.ok(target)
        tb.warm_up()
        assert oracle.ok(target)


class TestFacade:
    def test_everything_per_ue_is_the_one_members(self):
        tb = Testbed(seed=1, handling=HandlingMode.SEED_R)
        [slot] = tb.cohort.slots
        assert tb.sim.rng.master_seed == 1
        for name in ("sim", "core", "device", "deployment", "applet"):
            assert getattr(tb, name) is getattr(slot, name), name
        assert tb.inject == slot.inject
        # copy builds a bare instance first and probes it for hooks:
        # the probe must fail cleanly, not recurse through the slot.
        assert copy.copy(tb).device is tb.device


class TestPlainCore:
    """A harness UE is the one device on a plain core: the testbed puts
    nothing of its own between the UE and the network."""

    @pytest.mark.parametrize("handling", list(HandlingMode), ids=lambda h: h.value)
    def test_warm_testbed_matches_a_directly_built_core(self, handling):
        tb = Testbed(seed=7, handling=handling)
        tb.warm_up()

        sim = Simulator(seed=7)
        core = CoreNetwork(sim)
        profile = SimProfile(imsi="001010000000001", k=SUBSCRIBER_K, opc=SUBSCRIBER_OPC)
        core.provision_subscriber(
            f"imsi-{profile.imsi}", SUBSCRIBER_K, SUBSCRIBER_OPC,
            subscribed_dnns=("internet", "internet.v2", "ims.carrier", "DIAG"),
        )
        device = Device(sim, core.gnb, core.upf, profile,
                        android_timers=AndroidTimers.stock(), rooted=handling.rooted)
        if handling.uses_seed:
            deploy_seed(core, [device])
            device.android.auto_recover = False
        device.power_on()
        sim.run(until=WARMUP)

        ours, direct = tb.device.default_session(), device.default_session()
        assert (ours.ip_address, ours.dns_server, ours.dnn) == (
            direct.ip_address, direct.dns_server, direct.dnn)
        assert ours.ip_address.startswith("10.45.0.")
        assert (tb.sim.now, tb.sim.fired_events) == (sim.now, sim.fired_events)


SCENARIO_EXPECTATIONS = [
    # (scenario, mode, horizon, max_duration) — recovery bounds per mode.
    ("cp_state_desync", HandlingMode.LEGACY, 120.0, 15.0),
    ("cp_state_desync", HandlingMode.SEED_U, 120.0, 10.0),
    ("cp_state_desync", HandlingMode.SEED_R, 120.0, 7.0),
    ("cp_identity_desync", HandlingMode.SEED_U, 120.0, 10.0),
    ("cp_identity_desync", HandlingMode.SEED_R, 120.0, 7.0),
    ("cp_plmn_config", HandlingMode.SEED_U, 120.0, 10.0),
    ("cp_plmn_config", HandlingMode.SEED_R, 120.0, 7.0),
    ("cp_slice_config", HandlingMode.SEED_R, 120.0, 7.0),
    ("dp_outdated_dnn", HandlingMode.SEED_U, 120.0, 2.0),
    ("dp_outdated_dnn", HandlingMode.SEED_R, 120.0, 1.5),
    ("dp_not_subscribed", HandlingMode.SEED_U, 120.0, 2.0),
    ("dp_invalid_mandatory", HandlingMode.SEED_R, 120.0, 1.5),
    ("dp_transient", HandlingMode.LEGACY, 120.0, 20.0),
    ("dd_gateway_stale", HandlingMode.SEED_U, 120.0, 3.0),
    ("dd_gateway_stale", HandlingMode.SEED_R, 120.0, 2.5),
    ("dd_tcp_policy_block", HandlingMode.SEED_R, 120.0, 10.0),
    ("dd_udp_block", HandlingMode.SEED_R, 120.0, 5.0),
    ("dd_dns_outage", HandlingMode.SEED_R, 200.0, 60.0),
]


class TestScenarioMatrix:
    @pytest.mark.parametrize("name,mode,horizon,bound", SCENARIO_EXPECTATIONS)
    def test_recovery_within_bound(self, name, mode, horizon, bound):
        tb = Testbed(seed=23, handling=mode)
        result = tb.run_scenario(scenario_by_name(name), horizon=horizon)
        assert result.recovered, f"{name} under {mode} did not recover"
        assert result.duration <= bound, (
            f"{name} under {mode}: {result.duration:.2f}s > {bound}s"
        )

    def test_legacy_config_failure_is_slow(self):
        tb = Testbed(seed=23, handling=HandlingMode.LEGACY)
        result = tb.run_scenario(scenario_by_name("dp_outdated_dnn"))
        assert result.duration > 30.0  # minutes-scale vs SEED's <2 s

    def test_seed_beats_legacy_on_identity_desync(self):
        durations = {}
        for mode in HandlingMode:
            tb = Testbed(seed=29, handling=mode)
            durations[mode] = tb.run_scenario(
                scenario_by_name("cp_identity_desync")).duration
        assert durations[HandlingMode.SEED_R] < durations[HandlingMode.SEED_U]
        assert durations[HandlingMode.SEED_U] < durations[HandlingMode.LEGACY]


class TestSuites:
    def test_suite_shape_matches_table4(self):
        """Small-sample Table 4 shape: SEED medians beat legacy by the
        paper's orders of magnitude."""
        legacy = timed_durations(run_suite(
            FailureClass.DATA_PLANE, HandlingMode.LEGACY, runs=8, seed=77))
        seed_u = timed_durations(run_suite(
            FailureClass.DATA_PLANE, HandlingMode.SEED_U, runs=8, seed=77))
        assert percentile(legacy, 50) > 50 * percentile(seed_u, 50)

    def test_coverage_counts_user_action_as_unhandled(self):
        results = run_suite(FailureClass.CONTROL_PLANE, HandlingMode.SEED_R,
                            runs=12, seed=55)
        assert 0.5 <= coverage(results) <= 1.0

    def test_suites_are_reproducible(self):
        a = run_suite(FailureClass.CONTROL_PLANE, HandlingMode.SEED_U, runs=4, seed=99)
        b = run_suite(FailureClass.CONTROL_PLANE, HandlingMode.SEED_U, runs=4, seed=99)
        assert [r.duration for r in a] == [r.duration for r in b]
        assert [r.scenario for r in a] == [r.scenario for r in b]
