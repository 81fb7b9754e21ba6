"""The SEED 5G-core plugin (paper §6: "1035 lines of C++" on Magma).

Three responsibilities:

* **Diagnosis assistance** — hooks the AMF/SMF reject paths, classifies
  each failure with the Figure 8 decision tree, and composes assistance
  info (cause, cause+config, suggested action, congestion warning).
* **Real-time collaboration** — seals and fragments assistance info
  into DFlag Authentication Requests (downlink, with per-fragment ACK
  and retransmission) and parses SIM failure reports out of diagnosis
  DNN fields (uplink), answering policy conflicts with fixes and DNS
  failures with a resolver switch via session modification (§4.4.2).
* **Online learning** — crowdsources SIM recovery records received
  over the orchestrator/OTA path and gates suggestions with the
  Algorithm 1 sigmoid schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.assistance import AssistanceTree, FailureEvent
from repro.core.collaboration import DiagnosisInfo, DiagnosisKind, DownlinkSender, UplinkReceiver
from repro.core.online_learning import InfraLearner
from repro.core.report import FailureReport, FailureType
from repro.core.reset import ResetAction
from repro.infra.core_network import CoreNetwork
from repro.infra.failures import FailureMode
from repro.nas import ies
from repro.nas.causes import Plane
from repro.nas.messages import PduSessionEstablishmentRequest

DOWNLINK_PREP_LATENCY = 0.0128   # compose + seal (§7.2.2 Figure 12)
FRAGMENT_ACK_TIMEOUT = 1.0
FRAGMENT_MAX_RETRIES = 3


@dataclass
class _DownlinkState:
    sender: DownlinkSender
    queue: list[bytes] = field(default_factory=list)
    awaiting_ack: bool = False
    retries: int = 0
    retransmit_event: object | None = None


class SeedCorePlugin:
    """Network-side SEED, attached to one :class:`CoreNetwork`."""

    def __init__(
        self,
        core: CoreNetwork,
        custom_actions: dict[int, ResetAction] | None = None,
        learning_rate: float = 0.05,
        push_config: bool = True,
    ) -> None:
        # ``push_config=False`` is the ablation of §4.3.1's config push:
        # the SIM still gets cause codes but never the corrected values.
        self.push_config = push_config
        self.core = core
        self.sim = core.sim
        self.tree = AssistanceTree(
            config_lookup=core.config_store.suggestion_for,
            custom_actions=custom_actions,
        )
        #: The operator's learner: it crowdsources every served SUPI's
        #: records and gates suggestions for all of them.
        self.learner = InfraLearner(
            learning_rate=learning_rate,
            rand=lambda: self.sim.rng.random("seed.learning"),
        )
        # SUPIs this deployment serves; None = serve everyone (a plugin
        # built without deploy_seed, as in unit tests).
        self._enrolled: set[str] | None = None
        self._downlinks: dict[str, _DownlinkState] = {}
        self._uplinks: dict[str, UplinkReceiver] = {}
        self.reports_handled: list[tuple[float, str, FailureReport]] = []
        # Attach to the core.
        core.amf.reject_hook = self._on_reject
        core.smf.reject_hook = self._on_reject
        core.amf.diag_ack_hook = self._on_diag_ack
        core.smf.diag_request_hook = self._on_pdu_request
        core.cpu.seed_enabled = True
        core.seed_plugin = self

    # ------------------------------------------------------------------
    # Enrollment + per-subscriber channel state
    # ------------------------------------------------------------------
    def enroll(self, supi: str) -> None:
        """Restrict service to enrolled SUPIs (first call flips the
        default-open policy). A core shared by several devices enrolls
        only the SEED ones, so the others see a plain network."""
        if self._enrolled is None:
            self._enrolled = set()
        self._enrolled.add(supi)

    def serves(self, supi: str) -> bool:
        return self._enrolled is None or supi in self._enrolled

    def _downlink_for(self, supi: str) -> _DownlinkState:
        state = self._downlinks.get(supi)
        if state is None:
            record = self.core.subscriber_db.by_supi(supi)
            state = _DownlinkState(sender=DownlinkSender(record.k))
            self._downlinks[supi] = state
        return state

    def _uplink_for(self, supi: str) -> UplinkReceiver:
        receiver = self._uplinks.get(supi)
        if receiver is None:
            record = self.core.subscriber_db.by_supi(supi)
            receiver = UplinkReceiver(record.k)
            self._uplinks[supi] = receiver
        return receiver

    def downlinks_idle(self, supi: str = "") -> bool:
        """No diagnosis fragment queued or awaiting an ACK — for one UE
        when ``supi`` is given, else across every UE.

        Used by the testbed's quiescence predicate: an in-flight
        downlink can still trigger SIM-side diagnosis and resets.
        """
        if supi:
            state = self._downlinks.get(supi)
            return state is None or (not state.queue and not state.awaiting_ack)
        return all(
            not state.queue and not state.awaiting_ack
            for state in self._downlinks.values()
        )

    # ------------------------------------------------------------------
    # Reject-path hook (AMF + SMF)
    # ------------------------------------------------------------------
    def _on_reject(self, supi: str, plane: Plane, cause: int, context: dict) -> None:
        if not self.serves(supi):
            return
        nms = self.core.nms
        event = FailureEvent(
            supi=supi,
            origin="active",
            plane=plane,
            cause=cause,
            congested=nms.congested(),
            backoff_seconds=nms.suggested_backoff(),
        )
        self._classify_and_send(supi, event)

    def notice_device_unresponsive(self, supi: str, plane: Plane = Plane.CONTROL) -> None:
        """Passive branch: device response timeout (Figure 8 left)."""
        if not self.serves(supi):
            return
        event = FailureEvent(
            supi=supi, origin="passive", plane=plane, device_responded=False
        )
        self._classify_and_send(supi, event)

    def notice_device_reject(self, supi: str, plane: Plane, cause: int) -> None:
        """Passive branch: the device rejected a network request."""
        if not self.serves(supi):
            return
        event = FailureEvent(supi=supi, origin="passive", plane=plane, cause=cause)
        self._classify_and_send(supi, event)

    def _classify_and_send(self, supi: str, event: FailureEvent) -> None:
        classification = self.tree.classify(event)
        self.core.cpu.note_seed_diagnosis()
        info = classification.info
        if not self.push_config and info.kind is DiagnosisKind.CAUSE_WITH_CONFIG:
            info = DiagnosisInfo(kind=DiagnosisKind.CAUSE, plane=info.plane,
                                 cause=info.cause, customized=info.customized)
        if classification.needs_online_learning and event.cause is not None:
            # Algorithm 1 lines 11–17: maybe attach a crowdsourced
            # suggestion; otherwise the SIM runs the trial ladder.
            suggestion = self.learner.suggest(event.cause)
            if suggestion is not None:
                info = DiagnosisInfo(
                    kind=DiagnosisKind.SUGGESTED_ACTION,
                    plane=info.plane,
                    cause=info.cause,
                    customized=True,
                    suggested_action=suggestion,
                )
        self._send_downlink(supi, info)

    # ------------------------------------------------------------------
    # Downlink transmission with fragment ACKs
    # ------------------------------------------------------------------
    def _send_downlink(self, supi: str, info: DiagnosisInfo) -> None:
        state = self._downlink_for(supi)
        frames = state.sender.prepare(info)
        state.queue.extend(frames)
        if not state.awaiting_ack:
            self.sim.schedule(DOWNLINK_PREP_LATENCY, self._send_next_fragment, supi,
                              label="seedplugin:dl-prep")

    def _send_next_fragment(self, supi: str) -> None:
        state = self._downlink_for(supi)
        if not state.queue:
            state.awaiting_ack = False
            return
        frame = state.queue[0]
        state.awaiting_ack = True
        self.core.amf.send_auth_request(supi, ies.DFLAG_RAND, frame)
        state.retransmit_event = self.sim.schedule(
            FRAGMENT_ACK_TIMEOUT, self._retransmit, supi, label="seedplugin:dl-rtx"
        )

    def _on_diag_ack(self, supi: str) -> None:
        state = self._downlink_for(supi)
        if state.retransmit_event is not None:
            state.retransmit_event.cancel()
            state.retransmit_event = None
        if state.queue:
            state.queue.pop(0)
        state.retries = 0
        if state.queue:
            self.sim.call_soon(self._send_next_fragment, supi, label="seedplugin:dl-next")
        else:
            state.awaiting_ack = False

    def _retransmit(self, supi: str) -> None:
        state = self._downlink_for(supi)
        if not state.queue:
            state.awaiting_ack = False
            return
        state.retries += 1
        if state.retries > FRAGMENT_MAX_RETRIES:
            # Give up on this payload; drop remaining fragments.
            state.queue.clear()
            state.awaiting_ack = False
            state.retries = 0
            return
        self._send_next_fragment(supi)

    # ------------------------------------------------------------------
    # Uplink: diagnosis DNN parsing + report handling
    # ------------------------------------------------------------------
    def _on_pdu_request(self, supi: str, msg: PduSessionEstablishmentRequest) -> bool:
        """SMF hook: True when the request was a diagnosis report."""
        if msg.dnn_raw is None or not self.serves(supi):
            return False
        try:
            report = self._uplink_for(supi).try_parse(msg.dnn_raw)
        except ValueError:
            return False
        if report is None:
            return False
        self.core.cpu.note_seed_diagnosis()
        self.reports_handled.append((self.sim.now, supi, report))
        self.sim.call_soon(self._handle_report, supi, report, label="seedplugin:report")
        return True

    def _handle_report(self, supi: str, report: FailureReport) -> None:
        """Validate the report against user policies and fix (§4.4.2)."""
        config_store = self.core.config_store
        engine = self.core.engine
        if report.failure_type is FailureType.DNS:
            # Carrier LDNS failure: fail over to a backup resolver and
            # push it to the device's session (B3 modification).
            new_dns = config_store.rotate_dns()
            for ctx in self.core.upf.active_sessions(supi):
                self.core.smf.modify_session(supi, ctx.pdu_session_id, new_dns_server=new_dns)
            engine.note_policy_fix(supi, protocol="dns")
            return
        protocol = report.failure_type.name.lower()
        policy = config_store.policy_for(supi)
        direction = {1: "uplink", 2: "downlink", 3: "both"}[report.direction.value]
        conflicts = report.port is not None and policy.blocks(protocol, direction, report.port)
        if conflicts or any(
            f.spec.block_protocol == protocol for f in engine.blocking_rules(supi)
        ):
            # Misconfigured TFT/policy: correct it and update the session.
            config_store.clear_block(supi, protocol)
            engine.note_policy_fix(supi, protocol=protocol)
            for ctx in self.core.upf.active_sessions(supi):
                self.core.smf.modify_session(
                    supi, ctx.pdu_session_id, new_tft=(f"allow-{protocol}",)
                )
        # Reconnect-recoverable failures are handled by the device-side
        # fast data-plane reset that accompanies the report (Table 3).

    # ------------------------------------------------------------------
    # Online-learning orchestrator endpoint
    # ------------------------------------------------------------------
    def receive_sim_records(self, records: dict[int, dict[ResetAction, int]]) -> None:
        """SIM record upload (Algorithm 1 lines 8–10) via OTA."""
        self.learner.crowdsource(records)
