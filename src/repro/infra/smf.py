"""Session Management Function: PDU session lifecycle.

Establishment, modification, and release of PDU sessions, with failure
behaviour driven by the failure engine. The SMF exposes the two SEED
integration points on the data plane:

* ``diag_request_hook`` — inspects every establishment request's raw
  DNN bytes; when the SEED plugin recognises an uplink diagnosis report
  it consumes the request and the SMF answers with a reject-as-ACK
  (paper Figure 7b).
* ``reject_hook`` — every genuine session reject is classified and
  pushed to the SIM as assistance info.

The escort-session trick of Figure 6 needs no special SMF support: the
"DIAG" DNN is an ordinary allowed session, so establishing it keeps the
gNB bearer count above zero while "DATA" is recycled.
"""

from __future__ import annotations

import itertools
from typing import Callable

from repro.infra.config_store import ConfigStore
from repro.infra.failures import FailureClass, FailureEngine, FailureMode
from repro.infra.gnb import Gnb
from repro.infra.nms import Nms
from repro.infra.cpu import CpuModel
from repro.infra.subscriber_db import SubscriberDb, SubscriberError
from repro.infra.upf import SessionContext, Upf
from repro.nas.causes import Plane
from repro.nas.messages import (
    NasMessage,
    PduSessionEstablishmentAccept,
    PduSessionEstablishmentReject,
    PduSessionEstablishmentRequest,
    PduSessionModificationCommand,
    PduSessionModificationReject,
    PduSessionModificationRequest,
    PduSessionReleaseCommand,
    PduSessionReleaseRequest,
)

PROCESSING_DELAY = 0.006

CAUSE_MISSING_DNN = 27
CAUSE_NOT_SUBSCRIBED = 33
CAUSE_REGULAR_DEACTIVATION = 36

# The escort DNN used by SEED's fast data-plane reset (Figure 6).
DIAG_ESCORT_DNN = "DIAG"


class Smf:
    """PDU session management for all subscribers."""

    def __init__(
        self,
        sim,
        gnb: Gnb,
        subscriber_db: SubscriberDb,
        config_store: ConfigStore,
        engine: FailureEngine,
        upf: Upf,
        nms: Nms,
        cpu: CpuModel,
    ) -> None:
        self.sim = sim
        self.gnb = gnb
        self.subscriber_db = subscriber_db
        self.config_store = config_store
        self.engine = engine
        self.upf = upf
        self.nms = nms
        self.cpu = cpu
        self._ip_counter = itertools.count(2)
        # SEED plugin hooks.
        self.diag_request_hook: Callable[[str, PduSessionEstablishmentRequest], bool] | None = None
        self.reject_hook: Callable[[str, Plane, int, dict], None] | None = None
        self.rejects: list[tuple[float, str, int]] = []
        # Requests dropped under TIMEOUT failures, re-delivered on clear
        # (lower-layer retransmission; see Amf._parked).
        self._parked: list[tuple[str, NasMessage]] = []
        self.engine.on_clear.append(self._on_failure_cleared)

    # ------------------------------------------------------------------
    def handle(self, supi: str, message: NasMessage) -> None:
        """Entry point for 5GSM messages from the gNB."""
        self.sim.schedule(PROCESSING_DELAY, self._dispatch, supi, message, label="smf:process")

    def _dispatch(self, supi: str, message: NasMessage) -> None:
        if isinstance(message, PduSessionEstablishmentRequest):
            self._process_establishment(supi, message)
        elif isinstance(message, PduSessionReleaseRequest):
            self._process_release(supi, message)
        elif isinstance(message, PduSessionModificationRequest):
            self._process_modification(supi, message)

    # ------------------------------------------------------------------
    # Establishment
    # ------------------------------------------------------------------
    def _process_establishment(self, supi: str, msg: PduSessionEstablishmentRequest) -> None:
        self.cpu.note_procedure()
        self.nms.note_core_event()

        # SEED uplink diagnosis reports ride the DNN field; the plugin
        # consumes them and we answer with a reject-as-ACK (Fig 7b).
        if self.diag_request_hook is not None and self.diag_request_hook(supi, msg):
            self.gnb.downlink(
                supi,
                PduSessionEstablishmentReject(
                    pdu_session_id=msg.pdu_session_id, cause=CAUSE_MISSING_DNN, is_ack=True
                ),
            )
            return

        self.engine.note_retry(supi, FailureClass.DATA_PLANE)
        self.engine.note_config_presented(
            supi,
            {
                "dnn": msg.dnn,
                "pdu_session_type": msg.pdu_session_type,
                "sst": msg.s_nssai_sst,
            },
        )

        timeouts = self.engine.matching(supi, FailureClass.DATA_PLANE, FailureMode.TIMEOUT)
        if timeouts:
            self.cpu.note_failure()
            self._parked.append((supi, msg))
            return

        try:
            record = self.subscriber_db.by_supi(supi)
        except SubscriberError:
            self._reject_establishment(supi, msg.pdu_session_id, CAUSE_NOT_SUBSCRIBED)
            return
        if not record.subscription_active:
            self._reject_establishment(supi, msg.pdu_session_id, CAUSE_NOT_SUBSCRIBED)
            return

        rejects = self.engine.matching(supi, FailureClass.DATA_PLANE, FailureMode.REJECT)
        # The escort session must not be caught by data-plane failure
        # injections aimed at the DATA session's configuration.
        if msg.dnn == DIAG_ESCORT_DNN:
            rejects = [f for f in rejects if not f.spec.config_field]
        if rejects:
            failure = rejects[0]
            self._reject_establishment(
                supi, msg.pdu_session_id, failure.spec.cause, failure_id=failure.failure_id
            )
            return

        # Accept: allocate user-plane state. Re-establishing an existing
        # session id is a session reset (clears stale gateway state).
        if self.upf.sessions.get(supi, {}).get(msg.pdu_session_id) is not None:
            self.upf.remove_session(supi, msg.pdu_session_id)
            self.gnb.remove_bearer(supi)
            self.engine.note_session_reset(supi)
        ip_address = f"10.45.0.{next(self._ip_counter) % 250 + 2}"
        dns_server = self.config_store.config.active_dns
        ctx = SessionContext(
            supi=supi,
            pdu_session_id=msg.pdu_session_id,
            ip_address=ip_address,
            dns_server=dns_server,
            dnn=msg.dnn,
            established_at=self.sim.now,
        )
        self.upf.add_session(ctx)
        self.gnb.add_bearer(supi)
        self.gnb.downlink(
            supi,
            PduSessionEstablishmentAccept(
                pdu_session_id=msg.pdu_session_id,
                ip_address=ip_address,
                dns_server=dns_server,
            ),
        )

    def _reject_establishment(
        self, supi: str, psi: int, cause: int, failure_id: int | None = None
    ) -> None:
        self.cpu.note_failure()
        self.rejects.append((self.sim.now, supi, cause))
        self.gnb.downlink(
            supi, PduSessionEstablishmentReject(pdu_session_id=psi, cause=cause)
        )
        if self.reject_hook is not None:
            self.reject_hook(supi, Plane.DATA, cause, {"failure_id": failure_id, "psi": psi})

    # ------------------------------------------------------------------
    # Release / modification
    # ------------------------------------------------------------------
    def _process_release(self, supi: str, msg: PduSessionReleaseRequest) -> None:
        self.cpu.note_procedure()
        removed = self.upf.remove_session(supi, msg.pdu_session_id)
        if removed is not None:
            self.gnb.remove_bearer(supi)
        self.gnb.downlink(
            supi,
            PduSessionReleaseCommand(
                pdu_session_id=msg.pdu_session_id, cause=CAUSE_REGULAR_DEACTIVATION
            ),
        )
        self.engine.note_session_reset(supi)

    def _process_modification(self, supi: str, msg: PduSessionModificationRequest) -> None:
        self.cpu.note_procedure()
        sessions = self.upf.sessions.get(supi, {})
        ctx = sessions.get(msg.pdu_session_id)
        if ctx is None:
            self.cpu.note_failure()
            self.gnb.downlink(
                supi,
                PduSessionModificationReject(pdu_session_id=msg.pdu_session_id, cause=54),
            )
            if self.reject_hook is not None:
                self.reject_hook(supi, Plane.DATA, 54, {"psi": msg.pdu_session_id})
            return
        ctx.tft = msg.requested_tft
        self.gnb.downlink(
            supi,
            PduSessionModificationCommand(
                pdu_session_id=msg.pdu_session_id, new_tft=msg.requested_tft
            ),
        )

    def _on_failure_cleared(self, failure) -> None:
        from repro.infra.failures import FailureClass as _FC, FailureMode as _FM

        if failure.spec.mode is not _FM.TIMEOUT or failure.spec.failure_class is not _FC.DATA_PLANE:
            return
        parked, self._parked = self._parked, []
        latest: dict[str, NasMessage] = {}
        for supi, msg in parked:
            if not failure.spec.supi or failure.spec.supi == supi:
                latest[supi] = msg
            else:
                self._parked.append((supi, msg))
        for supi, msg in latest.items():
            self.sim.schedule(0.1, self._dispatch, supi, msg, label="smf:rlc-redeliver")

    # ------------------------------------------------------------------
    # Network-initiated operations (used by the SEED plugin)
    # ------------------------------------------------------------------
    def modify_session(
        self,
        supi: str,
        pdu_session_id: int,
        new_tft: tuple[str, ...] = (),
        new_dns_server: str | None = None,
    ) -> bool:
        """Push a modification command (TFT / DNS update, §4.4.2)."""
        ctx = self.upf.sessions.get(supi, {}).get(pdu_session_id)
        if ctx is None:
            return False
        if new_tft:
            ctx.tft = new_tft
        if new_dns_server is not None:
            ctx.dns_server = new_dns_server
        self.upf.session_modified(supi)
        self.cpu.note_procedure()
        self.gnb.downlink(
            supi,
            PduSessionModificationCommand(
                pdu_session_id=pdu_session_id,
                new_tft=new_tft,
                new_dns_server=new_dns_server,
            ),
        )
        return True

    def release_session(self, supi: str, pdu_session_id: int, cause: int = 36) -> bool:
        """Network-initiated release."""
        removed = self.upf.remove_session(supi, pdu_session_id)
        if removed is None:
            return False
        self.gnb.remove_bearer(supi)
        self.gnb.downlink(
            supi, PduSessionReleaseCommand(pdu_session_id=pdu_session_id, cause=cause)
        )
        return True
