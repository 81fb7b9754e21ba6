"""SEED deployment onto a testbed (paper §6 "Deploying SEED in practice").

``deploy_seed(core, devices)`` installs every component the operator
controls: the core plugin, the SIM applet (over the carrier install
key, as OTA would), and the carrier app. The paper's incremental
deployment is supported through ``stage``:

* ``"stage1"`` — infra module + SIM applet only: control/data-plane
  cause diagnosis and SEED-U resets work; no app/OS failure reports,
  no A3/AT actions (covers ~63 % of trace failures, §6).
* ``"full"`` — adds the carrier app: failure report service, A3
  configuration updates, root detection → SEED-R.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.core.applet import SeedApplet
from repro.core.carrier_app import SeedCarrierApp
from repro.core.online_learning import deserialize_records, serialize_records
from repro.core.plugin import SeedCorePlugin
from repro.core.reset import ResetAction
from repro.device.device import CARRIER_INSTALL_KEY, Device
from repro.infra.core_network import CoreNetwork


@dataclass
class SeedDeployment:
    """Handles to every deployed SEED component."""

    plugin: SeedCorePlugin
    applets: dict[str, SeedApplet] = field(default_factory=dict)
    carrier_apps: dict[str, SeedCarrierApp] = field(default_factory=dict)
    stage: str = "full"

    def applet_for(self, device: Device) -> SeedApplet:
        return self.applets[device.supi]

    def carrier_app_for(self, device: Device) -> SeedCarrierApp:
        return self.carrier_apps[device.supi]


def deploy_seed(
    core: CoreNetwork,
    devices: list[Device],
    stage: str = "full",
    custom_actions: dict[int, ResetAction] | None = None,
    learning_rate: float = 0.05,
) -> SeedDeployment:
    """Install SEED on the core and every given device."""
    if stage not in ("stage1", "full"):
        raise ValueError(f"unknown deployment stage {stage!r}")
    plugin = SeedCorePlugin(core, custom_actions=custom_actions, learning_rate=learning_rate)
    deployment = SeedDeployment(plugin=plugin, stage=stage)

    for device in devices:
        # The plugin only serves the devices handed to deploy_seed, so
        # other UEs on the same core see a plain network.
        plugin.enroll(device.supi)
        applet = SeedApplet(
            k=device.profile.k,
            clock=lambda sim=device.sim: sim.now,
            rooted=False,
        )
        device.card.install(applet, CARRIER_INSTALL_KEY)
        deployment.applets[device.supi] = applet
        # SIM diagnosis energy accounting (Figure 11b).
        applet.on_diagnosis.append(device.battery.note_sim_diagnosis)

        if stage == "full":
            ota_flush = _make_ota_flush(device, applet, plugin)
            carrier_app = SeedCarrierApp(
                device.sim, device.carrier_host, applet, ota_flush=ota_flush
            )
            deployment.carrier_apps[device.supi] = carrier_app
        else:
            # Stage 1: applet only; it still gets the USIM delegate so
            # downlink diagnosis and A1/A2 proactive resets work.
            applet.bind(device.usim, None)
    return deployment


def _make_ota_flush(device: Device, applet: SeedApplet, plugin: SeedCorePlugin):
    """Build the OTA record-upload path (Algorithm 1 lines 6–7).

    OTA rides the data plane, so the flush only succeeds while the data
    session is up; the applet retries after the next recovery.
    """

    def send(records) -> bool:
        if not device.data_session_active():
            return False
        # Serialise/deserialise across the OTA boundary so nothing
        # object-shaped sneaks through the channel.
        wire = json.dumps(serialize_records(records), sort_keys=True)
        plugin.receive_sim_records(deserialize_records(json.loads(wire)))
        return True

    def flush() -> bool:
        return applet.recorder.flush(send)

    return flush
