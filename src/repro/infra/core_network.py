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
from repro.infra.nms import Nms, ScopedNms
from repro.infra.smf import Smf
from repro.infra.subscriber_db import SubscriberDb
from repro.infra.upf import Upf
from repro.nas.messages import NasMessage
from repro.simkernel.rng import RngStreams
from repro.simkernel.simulator import Simulator


class CoreNetwork:
    """The network side of the testbed.

    Cohort support: :meth:`isolate_ue` registers a per-UE
    :class:`RngStreams` (shared by reference with the gNB/UPF/AMF, which
    fall back to ``sim.rng`` for unregistered SUPIs) and flips the NMS
    to per-SUPI gauges for that subscriber. With every UE isolated, a
    cohort member's interaction with the core is byte-identical to a
    single-UE run seeded with the same derived seed.
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
        #: supi -> per-UE RngStreams; shared by reference with gnb/upf/amf.
        self.ue_rng: dict[str, RngStreams] = {}
        #: SUPIs with full parity isolation (rng + nms + config overlay).
        self.isolated_supis: set[str] = set()
        self.gnb = Gnb(sim, radio_link)
        self.upf = Upf(sim, self.engine, self.config_store)
        self.amf = Amf(
            sim, self.gnb, self.subscriber_db, self.config_store,
            self.engine, self.nms, self.cpu,
        )
        self.smf = Smf(
            sim, self.gnb, self.subscriber_db, self.config_store,
            self.engine, self.upf, self.nms, self.cpu,
        )
        self.gnb.ue_rng = self.ue_rng
        self.upf.ue_rng = self.ue_rng
        self.amf.ue_rng = self.ue_rng
        self.gnb.attach_core(self._route_uplink)
        self.amf.cleanup_hook = self.purge_sessions
        self.seed_plugin = None  # set by repro.core.plugin when deployed

    def isolate_ue(self, supi: str, rng: RngStreams,
                   interference: bool = False) -> None:
        """Register a cohort member's private RNG streams; unless the
        cohort runs with cross-UE interference, also isolate its NMS
        view so no shared gauges couple it to its neighbours."""
        self.ue_rng[supi] = rng
        self.smf.assign_subnet(supi)
        if not interference:
            self.isolated_supis.add(supi)
            self.nms.isolate(supi)

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
        self.nms.note_ran_event(supi=supi)
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


class ScopedCoreNetwork:
    """A per-UE view of a shared core (cohort runs).

    Scenario builders written against a single-UE :class:`Testbed`
    mutate ``core.config_store`` / ``core.nms`` globally; this facade
    rebinds exactly those two to the UE's scoped views and delegates
    everything else (AMF, SMF, UPF, engine, subscriber DB, ...) to the
    real core, so the builders run unchanged inside a cohort.
    """

    def __init__(self, core: CoreNetwork, supi: str) -> None:
        self._core = core
        self.scoped_supi = supi
        self.config_store = core.config_store.scoped(supi)
        self.nms = ScopedNms(core.nms, supi)

    def __getattr__(self, name: str):
        return getattr(self._core, name)
