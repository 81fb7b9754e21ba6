"""Multi-device tests: one core, many UEs, per-subscriber SEED state."""

from repro.core.deploy import deploy_seed
from repro.device import Device
from repro.infra import ClearTrigger, CoreNetwork, FailureClass, FailureSpec
from repro.infra.failures import FailureMode
from repro.sim_card.profile import SimProfile
from repro.simkernel import Simulator

OPC = bytes.fromhex("cd63cb71954a9f4e48a5994e37a02baf")


def make_fleet(n=4, seed=1, rooted=False):
    sim = Simulator(seed=seed)
    core = CoreNetwork(sim)
    devices = []
    for index in range(n):
        imsi = f"0010100000000{index:02d}"
        k = bytes([index + 1]) * 16
        core.provision_subscriber(f"imsi-{imsi}", k, OPC)
        devices.append(Device(sim, core.gnb, core.upf,
                              SimProfile(imsi=imsi, k=k, opc=OPC), rooted=rooted))
    return sim, core, devices


class TestFleetAttach:
    def test_all_devices_attach_independently(self):
        sim, core, devices = make_fleet(n=5)
        for device in devices:
            device.power_on()
        sim.run(until=10.0)
        for device in devices:
            assert device.modem.registered
            assert device.data_session_active()
        assert len(core.amf.registered) == 5
        # Every device got a distinct IP.
        ips = {d.default_session().ip_address for d in devices}
        assert len(ips) == 5

    def test_per_device_keys_isolate_auth(self):
        """Each SIM authenticates with its own K; sessions don't mix."""
        sim, core, devices = make_fleet(n=3)
        for device in devices:
            device.power_on()
        sim.run(until=10.0)
        for device in devices:
            ctxs = core.upf.sessions[device.supi]
            assert all(ctx.supi == device.supi for ctx in ctxs.values())


class TestFleetWithSeed:
    def test_failure_on_one_device_leaves_others_untouched(self):
        sim, core, devices = make_fleet(n=4, rooted=True)
        deployment = deploy_seed(core, devices)
        for device in devices:
            device.power_on()
            device.android.auto_recover = False
        sim.run(until=10.0)
        victim, *others = devices
        core.engine.inject(FailureSpec(
            failure_class=FailureClass.DATA_PLANE, mode=FailureMode.REJECT,
            cause=27, supi=victim.supi, config_field="dnn",
            required_value="internet.v2",
            clear_triggers=frozenset({ClearTrigger.ON_CONFIG_MATCH}),
        ))
        core.config_store.set_required_dnn("internet.v2")
        core.subscriber_db.by_supi(victim.supi).subscribed_dnns = (
            "internet", "internet.v2", "DIAG",
        )
        # Recycle the victim's service so the failure manifests.
        core.amf.force_deregister(victim.supi)
        core.purge_sessions(victim.supi)
        victim.modem._abort_all_procedures()
        victim.modem.start_registration()
        sim.run(until=30.0)
        # The victim recovered via SEED's config push...
        assert victim.data_session_active()
        assert victim.default_session().dnn == "internet.v2"
        # ...and only the victim's SIM saw a diagnosis or took action.
        assert deployment.applets[victim.supi].diagnoses
        for other in others:
            assert other.data_session_active()
            assert deployment.applets[other.supi].diagnoses == []
            assert deployment.applets[other.supi].actions_taken == []

    def test_downlink_channels_are_per_subscriber_keys(self):
        sim, core, devices = make_fleet(n=2, rooted=True)
        deployment = deploy_seed(core, devices)
        for device in devices:
            device.power_on()
        sim.run(until=10.0)
        plugin = deployment.plugin
        a, b = devices
        from repro.core.collaboration import DiagnosisInfo, DiagnosisKind
        plugin._send_downlink(a.supi, DiagnosisInfo(kind=DiagnosisKind.CAUSE, cause=9))
        plugin._send_downlink(b.supi, DiagnosisInfo(kind=DiagnosisKind.CAUSE, cause=15))
        sim.run(until=15.0)
        causes_a = [d.cause for _, d in deployment.applets[a.supi].diagnoses]
        causes_b = [d.cause for _, d in deployment.applets[b.supi].diagnoses]
        assert causes_a == [9] and causes_b == [15]
        # No cross-device channel errors (keys never crossed).
        assert deployment.applets[a.supi].channel_errors == 0
        assert deployment.applets[b.supi].channel_errors == 0

    def test_crowdsourcing_aggregates_across_devices(self):
        sim, core, devices = make_fleet(n=3, rooted=True)
        deployment = deploy_seed(core, devices)
        for device in devices:
            device.power_on()
        sim.run(until=10.0)
        from repro.core.reset import ResetAction
        for index, device in enumerate(devices):
            applet = deployment.applets[device.supi]
            applet.recorder.record_success(201, ResetAction.B3_DPLANE_RESET)
            applet._send_app({"op": "ota_flush"})
        sim.run(until=12.0)
        learner = deployment.plugin.learner
        assert learner.net_record[201][ResetAction.B3_DPLANE_RESET] == 3
