"""Infrastructure tests: config store, subscribers, failures, NMS, CPU."""

import pytest

from repro.infra import (
    ClearTrigger,
    ConfigStore,
    CpuModel,
    FailureClass,
    FailureEngine,
    FailureSpec,
    Nms,
    SubscriberDb,
)
from repro.infra.cpu import CpuCosts
from repro.infra.failures import FailureMode
from repro.infra.subscriber_db import SubscriberError
from repro.simkernel import Simulator

K, OPC = b"\x0a" * 16, b"\x0b" * 16


class TestConfigStore:
    def test_policy_created_on_demand(self):
        store = ConfigStore()
        policy = store.policy_for("imsi-1")
        assert policy is store.policy_for("imsi-1")

    def test_policy_blocking_semantics(self):
        store = ConfigStore()
        policy = store.policy_for("imsi-1")
        policy.blocked.add(("udp", "both", None))
        assert policy.blocks("udp", "uplink", 9000)
        assert policy.blocks("udp", "downlink", 53)
        assert not policy.blocks("tcp", "uplink", 9000)

    def test_port_specific_block(self):
        store = ConfigStore()
        policy = store.policy_for("imsi-1")
        policy.blocked.add(("tcp", "uplink", 443))
        assert policy.blocks("tcp", "uplink", 443)
        assert not policy.blocks("tcp", "uplink", 80)
        assert not policy.blocks("tcp", "downlink", 443)

    def test_clear_block(self):
        store = ConfigStore()
        store.policy_for("imsi-1").blocked.add(("tcp", "both", None))
        assert store.clear_block("imsi-1", "tcp")
        assert not store.clear_block("imsi-1", "tcp")

    def test_set_required_dnn_bumps_revision(self):
        store = ConfigStore()
        store.set_required_dnn("internet.v2")
        assert store.config.allowed_dnns == ("internet.v2",)

    def test_rotate_dns_cycles_pool(self):
        store = ConfigStore()
        first = store.config.active_dns
        second = store.rotate_dns()
        assert second != first
        assert store.rotate_dns() == first

    def test_suggestions_reflect_current_config(self):
        store = ConfigStore()
        store.set_required_dnn("edge.dnn")
        assert store.suggestion_for("suggested_dnn") == {"dnn": "edge.dnn"}
        assert store.suggestion_for("plmn_list") == {"plmn": "00101"}
        assert store.suggestion_for("bogus_kind") == {}


class TestSubscriberDb:
    def test_provision_and_lookup(self):
        db = SubscriberDb()
        db.provision("imsi-1", K, OPC)
        assert db.by_supi("imsi-1").supi == "imsi-1"
        with pytest.raises(SubscriberError):
            db.by_supi("imsi-2")

    def test_guti_allocation_and_resolution(self):
        db = SubscriberDb()
        db.provision("imsi-1", K, OPC)
        guti = db.allocate_guti("imsi-1")
        assert db.by_guti(guti).supi == "imsi-1"

    def test_reallocation_invalidates_old_guti(self):
        db = SubscriberDb()
        db.provision("imsi-1", K, OPC)
        old = db.allocate_guti("imsi-1")
        db.allocate_guti("imsi-1")
        with pytest.raises(SubscriberError):
            db.by_guti(old)

    def test_drop_guti_mapping_is_the_identity_desync(self):
        db = SubscriberDb()
        db.provision("imsi-1", K, OPC)
        guti = db.allocate_guti("imsi-1")
        db.drop_guti_mapping("imsi-1")
        with pytest.raises(SubscriberError):
            db.by_guti(guti)

    def test_sqn_monotonic(self):
        db = SubscriberDb()
        record = db.provision("imsi-1", K, OPC)
        first = record.next_sqn()
        second = record.next_sqn()
        assert int.from_bytes(second, "big") > int.from_bytes(first, "big")

    def test_subscription_lifecycle(self):
        db = SubscriberDb()
        record = db.provision("imsi-1", K, OPC)
        db.expire_subscription("imsi-1")
        assert not record.subscription_active
        db.reactivate_subscription("imsi-1")
        assert record.subscription_active


class TestFailureEngine:
    def make(self):
        sim = Simulator()
        return sim, FailureEngine(sim)

    def spec(self, **kwargs):
        defaults = dict(
            failure_class=FailureClass.CONTROL_PLANE,
            mode=FailureMode.REJECT,
            cause=9,
            supi="imsi-1",
        )
        defaults.update(kwargs)
        return FailureSpec(**defaults)

    def test_inject_and_match(self):
        sim, engine = self.make()
        engine.inject(self.spec())
        assert len(engine.matching("imsi-1", FailureClass.CONTROL_PLANE)) == 1
        assert engine.matching("imsi-2", FailureClass.CONTROL_PLANE) == []

    def test_empty_supi_matches_everyone(self):
        sim, engine = self.make()
        engine.inject(self.spec(supi=""))
        assert engine.matching("anyone", FailureClass.CONTROL_PLANE)

    def test_after_duration_clears(self):
        sim, engine = self.make()
        failure = engine.inject(self.spec(
            clear_triggers=frozenset({ClearTrigger.AFTER_DURATION}), duration=5.0
        ))
        sim.run(until=4.9)
        assert not failure.cleared
        sim.run(until=5.1)
        assert failure.cleared
        assert failure.cleared_by is ClearTrigger.AFTER_DURATION

    def test_on_retry_needs_two_attempts(self):
        sim, engine = self.make()
        failure = engine.inject(self.spec(
            clear_triggers=frozenset({ClearTrigger.ON_RETRY})
        ))
        engine.note_retry("imsi-1", FailureClass.CONTROL_PLANE)
        assert not failure.cleared
        engine.note_retry("imsi-1", FailureClass.CONTROL_PLANE)
        assert failure.cleared

    def test_fresh_identity_clear(self):
        sim, engine = self.make()
        failure = engine.inject(self.spec(
            clear_triggers=frozenset({ClearTrigger.ON_FRESH_IDENTITY})
        ))
        engine.note_fresh_identity("imsi-1")
        assert failure.cleared

    def test_config_match_requires_exact_value(self):
        sim, engine = self.make()
        failure = engine.inject(self.spec(
            config_field="dnn", required_value="v2",
            clear_triggers=frozenset({ClearTrigger.ON_CONFIG_MATCH}),
        ))
        engine.note_config_presented("imsi-1", {"dnn": "v1"})
        assert not failure.cleared
        engine.note_config_presented("imsi-1", {"other": "v2"})
        assert not failure.cleared
        engine.note_config_presented("imsi-1", {"dnn": "v2"})
        assert failure.cleared

    def test_session_reset_and_policy_fix(self):
        sim, engine = self.make()
        reset_failure = engine.inject(self.spec(
            failure_class=FailureClass.DATA_DELIVERY, mode=FailureMode.BLOCK,
            clear_triggers=frozenset({ClearTrigger.ON_SESSION_RESET}),
        ))
        policy_failure = engine.inject(self.spec(
            failure_class=FailureClass.DATA_DELIVERY, mode=FailureMode.BLOCK,
            block_protocol="udp",
            clear_triggers=frozenset({ClearTrigger.ON_POLICY_FIX}),
        ))
        engine.note_session_reset("imsi-1")
        assert reset_failure.cleared and not policy_failure.cleared
        engine.note_policy_fix("imsi-1", protocol="tcp")
        assert not policy_failure.cleared  # protocol mismatch
        engine.note_policy_fix("imsi-1", protocol="udp")
        assert policy_failure.cleared

    def test_user_action_clear(self):
        sim, engine = self.make()
        failure = engine.inject(self.spec(
            clear_triggers=frozenset({ClearTrigger.ON_USER_ACTION})
        ))
        engine.note_user_action("imsi-1")
        assert failure.cleared

    def test_on_clear_observer_fires_once(self):
        sim, engine = self.make()
        seen = []
        engine.on_clear.append(seen.append)
        failure = engine.inject(self.spec(
            clear_triggers=frozenset({ClearTrigger.ON_FRESH_IDENTITY,
                                      ClearTrigger.AFTER_DURATION}),
            duration=5.0,
        ))
        engine.note_fresh_identity("imsi-1")
        sim.run(until=10.0)
        assert seen == [failure]


class TestNms:
    def test_load_decays(self):
        sim = Simulator()
        nms = Nms(sim)
        for _ in range(100):
            nms.note_core_event()
        high = nms.core_load.value(sim.now)
        sim.run(until=100.0)
        assert nms.core_load.value(sim.now) < high / 100

    def test_forced_congestion(self):
        nms = Nms(Simulator())
        assert nms.congested() is None
        nms.force_congestion("core")
        assert nms.congested() == "core"
        assert nms.suggested_backoff() == 10.0
        nms.force_congestion(None)

    def test_threshold_congestion(self):
        sim = Simulator()
        nms = Nms(sim, core_congestion_threshold=1.0)
        for _ in range(100):
            nms.note_core_event()
        assert nms.congested() == "core"


class TestCpuModel:
    def test_base_utilization(self):
        assert CpuModel().utilization(60.0) == CpuCosts().base_utilization

    def test_seed_overhead_only_when_enabled(self):
        off = CpuModel(seed_enabled=False)
        off.note_seed_diagnosis(1000)
        assert off.seed_overhead(60.0) == 0.0
        on = CpuModel(seed_enabled=True)
        on.note_seed_diagnosis(1000)
        assert on.seed_overhead(60.0) > 0.0

    def test_utilization_capped_at_100(self):
        model = CpuModel()
        model.note_failure(10**9)
        assert model.utilization(1.0) == 100.0

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            CpuModel().utilization(0.0)

    def test_paper_overhead_bound_at_100_per_second(self):
        model = CpuModel(seed_enabled=True)
        model.note_seed_diagnosis(100 * 60)
        assert model.seed_overhead(60.0) < 4.7
