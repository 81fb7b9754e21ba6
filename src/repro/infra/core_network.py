"""Assembled 5G core: gNB + AMF + SMF + UPF + support services.

One :class:`CoreNetwork` per testbed. Routing between the functions
follows the message's protocol discriminator: 5GMM messages go to the
AMF, 5GSM messages to the SMF (in 5G these ride the same N1 transport).
"""

from __future__ import annotations

from repro.infra.amf import Amf
from repro.infra.config_store import ConfigStore, NetworkConfig
from repro.infra.cpu import CpuModel
from repro.infra.failures import FailureEngine
from repro.infra.gnb import Gnb, RadioLink
from repro.infra.nms import Nms
from repro.infra.smf import Smf
from repro.infra.subscriber_db import SubscriberDb
from repro.infra.upf import Upf
from repro.nas.messages import NasMessage
from repro.simkernel.simulator import Simulator


class CoreNetwork:
    """The network side of the testbed.

    One core serves every device attached to it: the gNB, UPF and AMF
    draw from ``sim.rng``, the SMF hands out addresses from one pool,
    and scenario builders mutate the one :class:`ConfigStore` and
    :class:`Nms`. A harness run attaches exactly one device, as the
    paper's testbed does; cores built directly may attach several.
    """

    def __init__(
        self,
        sim: Simulator,
        config: NetworkConfig | None = None,
        radio_link: RadioLink | None = None,
    ) -> None:
        self.sim = sim
        self.subscriber_db = SubscriberDb()
        self.config_store = ConfigStore(config)
        self.engine = FailureEngine(sim)
        self.nms = Nms(sim)
        self.cpu = CpuModel()
        self.gnb = Gnb(sim, radio_link)
        self.upf = Upf(sim, self.engine, self.config_store)
        self.amf = Amf(
            sim, self.gnb, self.subscriber_db, self.engine, self.nms, self.cpu,
        )
        self.smf = Smf(
            sim, self.gnb, self.subscriber_db, self.config_store,
            self.engine, self.upf, self.nms, self.cpu,
        )
        self.gnb.attach_core(self._route_uplink)
        self.amf.cleanup_hook = self.purge_sessions
        self.seed_plugin = None  # set by repro.core.plugin when deployed

    def purge_sessions(self, supi: str) -> None:
        """Release all user-plane state for a (re)registering UE."""
        purged = False
        for ctx in self.upf.active_sessions(supi):
            self.upf.remove_session(supi, ctx.pdu_session_id)
            purged = True
        self.gnb.release_all_bearers(supi)
        if purged:
            # Tearing sessions down flushes stale gateway state, so
            # reattach-style recoveries clear session-reset failures.
            self.engine.note_session_reset(supi)

    def _route_uplink(self, supi: str, message: NasMessage) -> None:
        self.nms.note_ran_event()
        if message.is_session_management:
            self.smf.handle(supi, message)
        else:
            self.amf.handle(supi, message)

    # ------------------------------------------------------------------
    # Convenience provisioning
    # ------------------------------------------------------------------
    def provision_subscriber(
        self,
        supi: str,
        k: bytes,
        opc: bytes,
        subscribed_dnns: tuple[str, ...] = ("internet", "DIAG"),
    ):
        """Add a subscriber; the DIAG escort DNN is subscribed by
        default (SEED provisions it alongside the applet, §4.4.1)."""
        return self.subscriber_db.provision(supi, k, opc, subscribed_dnns)

