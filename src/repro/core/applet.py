"""The SEED SIM applet: diagnosis module + decision module (paper §6).

Runs inside the Javacard runtime (:mod:`repro.sim_card.applet_rt`)
under its EEPROM/RAM budgets. Inputs:

* downlink diagnosis fragments, delegated from the USIM when an
  Authentication Request carries the DFlag RAND (§4.5);
* ``SEED_REPORT`` APDUs from the carrier app: app/OS failure reports,
  root-mode enablement, and registration/session success events (the
  CAT event-download channel);
* ``ENVELOPE`` timer-expiration APDUs for the CAT timers the applet
  starts (the 2 s transient-failure wait, congestion back-off, and
  online-learning trial timeouts).

Outputs are proactive commands (REFRESH for A1/A2, DISPLAY TEXT for
user notifications, TIMER MANAGEMENT) and carrier-app instructions over
the STK push channel (A3 config updates, AT command batches for B1–B3,
uplink diagnosis requests, OTA flushes).
"""

from __future__ import annotations

import json
from typing import Callable

from repro.core.collaboration import DiagnosisInfo, DiagnosisKind, DownlinkReceiver, UplinkSender
from repro.core.decision import CONTROL_PLANE_WAIT, Decision, decide_action, decide_data_delivery
from repro.core.online_learning import SimRecorder
from repro.core.report import FailureReport
from repro.core.reset import ResetAction, trial_order
from repro.crypto.secure_channel import IntegrityError, ReplayError
from repro.nas.causes import MM_CAUSES, Plane, SM_CAUSES
from repro.sim_card.apdu import Apdu, ApduResponse, Ins, StatusWord
from repro.sim_card.applet_rt import Applet
from repro.sim_card.proactive import (
    RefreshMode,
    display_text_command,
    refresh_command,
    timer_command,
)
from repro.sim_card.usim import UsimApplet

SEED_AID = "A00000005345454401"

# SEED_REPORT APDU P1 operation codes (carrier app → applet).
OP_FAILURE_REPORT = 0x01
OP_OS_STALL = 0x02
OP_ENABLE_ROOT = 0x03
OP_EVENT_REGISTERED = 0x04
OP_EVENT_SESSION_UP = 0x05

# CAT timer identifiers.
TIMER_DECISION_WAIT = 1
TIMER_OL_TRIAL = 2
TIMER_CONGESTION = 3

# §4.4.2 coordination constants.
CONFLICT_WINDOW = 5.0          # skip app reports 5 s after a CP/DP cause
RATE_LIMIT_WINDOW = 5.0        # same reset action at most once per window

# Online-learning per-trial success deadlines (action must recover the
# connection within this budget or the next action is tried).
TRIAL_TIMEOUT = {
    "data_plane": 3.0,
    "control_plane": 8.0,   # covers A2's config write + profile reload
    "hardware": 10.0,
    "other": 5.0,
}


class SeedApplet(Applet):
    """Diagnosis + decision modules on the card."""

    #: The persisted cause registry's bytes (see :meth:`on_install`).
    _cause_registry: bytes | None = None

    def __init__(self, k: bytes, clock: Callable[[], float], rooted: bool = False,
                 grace_timer: float = CONTROL_PLANE_WAIT) -> None:
        # ~1244 lines of Java compile to roughly this bytecode size.
        super().__init__(aid=SEED_AID, code_size=18_000)
        self._k = k
        self.clock = clock
        self.rooted = rooted
        # §4.4.2's 2 s transient-failure grace; 0 disables it (ablation).
        self.grace_timer = grace_timer
        self.downlink = DownlinkReceiver(k)
        self.uplink = UplinkSender(k)
        self.recorder = SimRecorder(rooted=rooted)
        # STK push channel to the carrier app (set at deployment).
        self.app_channel: Callable[[dict], None] | None = None
        # Shared-file access to the USIM profile (same card).
        self.usim: UsimApplet | None = None
        # Diagnostics/observability.
        self.diagnoses: list[tuple[float, DiagnosisInfo]] = []
        self.actions_taken: list[tuple[float, ResetAction]] = []
        self.reports_received: list[tuple[float, FailureReport]] = []
        self.on_diagnosis: list[Callable[[], None]] = []
        self.channel_errors = 0
        # Decision state.
        self._last_cause_diag_time: float | None = None
        self._last_action_time: dict[ResetAction, float] = {}
        self._last_registered: float | None = None
        self._last_session_up: float | None = None
        self._pending: Decision | None = None
        self._pending_set_at = 0.0
        self._congestion_retry: Decision | None = None
        # Online learning state.
        self._ol_cause: int | None = None
        self._ol_queue: list[ResetAction] = []
        self._ol_action: ResetAction | None = None
        self._ol_suggested_first: bool = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_install(self) -> None:
        # The full standardized cause registry lives on-card (§4.3.1);
        # it must fit the SIM storage budget — enforced by the runtime.
        # Every card carries the same bytes: built once per process.
        registry = SeedApplet._cause_registry
        if registry is None:
            registry = json.dumps({
                "mm": {code: info.name for code, info in MM_CAUSES.items()},
                "sm": {code: info.name for code, info in SM_CAUSES.items()},
            }, sort_keys=True).encode()
            SeedApplet._cause_registry = registry
        self.persist("causes", registry)
        self.persist("records", b"{}")

    def bind(self, usim: UsimApplet, app_channel: Callable[[dict], None] | None) -> None:
        """Wire card-internal and device-side channels (deployment)."""
        self.usim = usim
        self.app_channel = app_channel
        usim.register_diagnosis_delegate(self.receive_downlink_fragment)

    def set_rooted(self, rooted: bool) -> None:
        self.rooted = rooted
        self.recorder.rooted = rooted

    @property
    def busy(self) -> bool:
        """A decision, congestion retry, or learning trial is in flight.

        Used by the testbed's quiescence predicate: while busy, the
        applet may still execute resets, record learning outcomes, or
        request an OTA flush, so the run must not stop early.
        """
        return (
            self._pending is not None
            or self._congestion_retry is not None
            or self._ol_action is not None
            or bool(self._ol_queue)
        )

    # ------------------------------------------------------------------
    # APDU dispatch
    # ------------------------------------------------------------------
    def process(self, apdu: Apdu) -> ApduResponse:
        if apdu.ins == Ins.SEED_REPORT:
            return self._process_seed_report(apdu)
        if apdu.ins == Ins.ENVELOPE and apdu.p1 == 0x01:
            self._on_timer_expired(apdu.data[0] if apdu.data else 0)
            return ApduResponse()
        return ApduResponse(sw=StatusWord.INS_NOT_SUPPORTED)

    def _process_seed_report(self, apdu: Apdu) -> ApduResponse:
        op = apdu.p1
        if op == OP_FAILURE_REPORT or op == OP_OS_STALL:
            try:
                report = FailureReport.decode(apdu.data)
            except ValueError:
                return ApduResponse(sw=StatusWord.WRONG_DATA)
            self._handle_data_delivery_report(report)
            return ApduResponse()
        if op == OP_ENABLE_ROOT:
            self.set_rooted(True)
            return ApduResponse()
        if op == OP_EVENT_REGISTERED:
            self._on_registered_event()
            return ApduResponse()
        if op == OP_EVENT_SESSION_UP:
            self._on_session_up_event()
            return ApduResponse()
        return ApduResponse(sw=StatusWord.WRONG_DATA)

    # ------------------------------------------------------------------
    # Downlink diagnosis (from the USIM's DFlag delegate)
    # ------------------------------------------------------------------
    def receive_downlink_fragment(self, autn: bytes) -> bytes:
        """One 16-byte AUTN frame; returns the ACK payload."""
        self.allocate_transient(64)
        try:
            info = self.downlink.feed_frame(autn)
        except (IntegrityError, ReplayError, ValueError):
            self.channel_errors += 1
            return b"DERR"
        if info is not None:
            self._handle_diagnosis(info)
        return b"DACK"

    def _handle_diagnosis(self, info: DiagnosisInfo) -> None:
        now = self.clock()
        self.diagnoses.append((now, info))
        for hook in list(self.on_diagnosis):
            hook()
        if info.kind in (DiagnosisKind.CAUSE, DiagnosisKind.CAUSE_WITH_CONFIG):
            self._last_cause_diag_time = now

        decision = decide_action(info, self.rooted)

        if decision.online_learning:
            self._start_online_learning(info.cause)
            return
        if (
            info.kind is DiagnosisKind.SUGGESTED_ACTION
            and info.customized
            and decision.action is not None
        ):
            # Customized-cause suggestions run under trial supervision:
            # if the suggested handling fails, fall back to the full
            # sequential ladder (§5.3).
            self._start_online_learning(info.cause, suggested=decision.action)
            return
        if decision.is_notification:
            self.queue_proactive(display_text_command(decision.notify_text))
            return
        if decision.action is ResetAction.WAIT_CONGESTION:
            # Do not add load; wait the embedded timer, then recover if
            # the failure persists (§5.2).
            self._congestion_retry = Decision(
                action=(ResetAction.B2_CPLANE_REATTACH if self.rooted
                        else ResetAction.A1_PROFILE_RELOAD)
                if info.plane is Plane.CONTROL
                else (ResetAction.B3_DPLANE_RESET if self.rooted
                      else ResetAction.A3_DPLANE_CONFIG_UPDATE),
                config=dict(info.config),
            )
            self.queue_proactive(timer_command(TIMER_CONGESTION, max(0.5, decision.wait_before)))
            return
        wait = decision.wait_before
        if wait == CONTROL_PLANE_WAIT:
            wait = self.grace_timer  # applet-configured grace (ablation)
        if wait > 0:
            # Transient-failure grace: if the procedure succeeds in the
            # meantime the reset is skipped.
            self._pending = decision
            self._pending_set_at = now
            self.queue_proactive(timer_command(TIMER_DECISION_WAIT, wait))
            return
        self._execute(decision)

    # ------------------------------------------------------------------
    # App/OS data-delivery reports
    # ------------------------------------------------------------------
    def _handle_data_delivery_report(self, report: FailureReport) -> None:
        now = self.clock()
        self.reports_received.append((now, report))
        for hook in list(self.on_diagnosis):
            hook()
        # Conflict avoidance: an ongoing CP/DP handling within 5 s (§4.4.2).
        if (
            self._last_cause_diag_time is not None
            and now - self._last_cause_diag_time < CONFLICT_WINDOW
        ):
            return
        decision = decide_data_delivery(self.rooted)
        if self.rooted and self.app_channel is not None:
            # SEED-R: forward the report to the infrastructure over the
            # PDU-session uplink channel (§4.5, Figure 7b).
            dnn_raw = self.uplink.prepare(report)
            self.app_channel({"op": "send_diag_request", "dnn_raw": dnn_raw})
        self._execute(decision)

    # ------------------------------------------------------------------
    # Success events (CAT event download via the carrier app)
    # ------------------------------------------------------------------
    def _on_registered_event(self) -> None:
        self._last_registered = self.clock()
        if self._pending is not None and self._pending.action is not None:
            if self._pending.action.tier in ("hardware", "control_plane"):
                self._pending = None  # transient failure self-recovered

    def _on_session_up_event(self) -> None:
        now = self.clock()
        self._last_session_up = now
        self._congestion_retry = None
        if self._pending is not None:
            self._pending = None  # connectivity restored before reset
        if self._ol_action is not None:
            self._finish_ol_trial(success=True)

    # ------------------------------------------------------------------
    # CAT timers
    # ------------------------------------------------------------------
    def _on_timer_expired(self, timer_id: int) -> None:
        if timer_id == TIMER_DECISION_WAIT:
            pending, self._pending = self._pending, None
            if pending is not None:
                self._execute(pending)
        elif timer_id == TIMER_OL_TRIAL:
            if self._ol_action is not None:
                self._finish_ol_trial(success=False)
        elif timer_id == TIMER_CONGESTION:
            retry, self._congestion_retry = self._congestion_retry, None
            if retry is not None:
                self._execute(retry)

    # ------------------------------------------------------------------
    # Action execution (Figure 5 primitives)
    # ------------------------------------------------------------------
    def _execute(self, decision: Decision) -> None:
        action = decision.action
        if action is None:
            return
        now = self.clock()
        config = decision.config
        # Rate-limit identical resets (§4.4.2); a reset carrying new
        # configuration is a different action from a plain reset.
        rate_key = (action, tuple(sorted((k, str(v)) for k, v in config.items())))
        last = self._last_action_time.get(rate_key)
        if last is not None and now - last < RATE_LIMIT_WINDOW:
            return
        self._last_action_time[rate_key] = now
        self.actions_taken.append((now, action))

        if action is ResetAction.A1_PROFILE_RELOAD:
            self._refresh_identity()
            self.queue_proactive(refresh_command(RefreshMode.NAA_APPLICATION_RESET))
        elif action is ResetAction.A2_CPLANE_CONFIG_UPDATE:
            self._apply_cplane_config(config)
            self._refresh_identity()
            self.queue_proactive(refresh_command(RefreshMode.NAA_APPLICATION_RESET))
        elif action is ResetAction.A3_DPLANE_CONFIG_UPDATE:
            self._send_app({"op": "config_update", "psi": 1,
                            "dnn": config.get("dnn"),
                            "pdu_session_type": config.get("pdu_session_type")})
        elif action is ResetAction.B1_MODEM_RESET:
            self._refresh_identity()
            self._send_app({"op": "at", "lines": ["AT+CFUN=1,1"]})
        elif action is ResetAction.B2_CPLANE_REATTACH:
            self._apply_cplane_config(config)
            lines = []
            if "plmn" in config:
                lines.append(f'AT+COPS=1,2,"{config["plmn"]}"')
            lines.append("AT+CGATT=0")
            lines.append("AT+CGATT=1")
            self._send_app({"op": "at", "lines": lines})
        elif action in (ResetAction.B3_DPLANE_RESET, ResetAction.B3_DPLANE_MODIFICATION):
            self._send_app({"op": "fast_dp_reset", "psi": 1,
                            "dnn": config.get("dnn"),
                            "pdu_session_type": config.get("pdu_session_type")})

    def _send_app(self, instruction: dict) -> None:
        if self.app_channel is not None:
            self.app_channel(instruction)

    def _refresh_identity(self) -> None:
        """Clear the cached GUTI so reattach uses the permanent identity
        ("mismatched control-plane states/identities are also refreshed
        in the reset", §4.4.1)."""
        if self.usim is not None:
            self.usim.set_profile(self.usim.profile.with_updates(guti=None))

    def _apply_cplane_config(self, config: dict) -> None:
        """Write pushed control-plane configuration into the profile."""
        if self.usim is None or not config:
            return
        profile = self.usim.profile
        updates = {}
        if "plmn" in config:
            updates["home_plmn"] = config["plmn"]
            updates["plmn_priority"] = (config["plmn"],)
        if "supported_rats" in config:
            updates["supported_rats"] = tuple(config["supported_rats"])
        if "sst" in config:
            updates["s_nssai_sst"] = int(config["sst"])
        if "dnn" in config:
            updates["default_dnn"] = config["dnn"]
            # Ordered dedup: set iteration order is hash-dependent and
            # this tuple is persisted into the profile (seedlint DET003).
            updates["dnn_list"] = tuple(dict.fromkeys((*profile.dnn_list, config["dnn"])))
        if updates:
            self.usim.set_profile(profile.with_updates(**updates))
            self.usim.profile.to_files(self._runtime.fs)

    # ------------------------------------------------------------------
    # Online learning: SIM side of Algorithm 1
    # ------------------------------------------------------------------
    def _start_online_learning(self, cause: int, suggested: ResetAction | None = None) -> None:
        if self._ol_cause == cause and (self._ol_action is not None or self._ol_queue):
            # A trial ladder for this cause is already in progress; the
            # repeated reject is the expected fallout of a trial that
            # has not recovered yet — do not restart the ladder.
            return
        self._ol_cause = cause
        self._ol_queue = list(self.recorder.trial_sequence())
        self._ol_suggested_first = suggested is not None
        if suggested is not None:
            if suggested in self._ol_queue:
                self._ol_queue.remove(suggested)
            self._ol_queue.insert(0, suggested)
        self._next_ol_trial()

    def _next_ol_trial(self) -> None:
        if not self._ol_queue:
            self._ol_cause = None
            self._ol_action = None
            return
        action = self._ol_queue.pop(0)
        self._ol_action = action
        self._execute(Decision(action=action, config={}))
        self.queue_proactive(
            timer_command(TIMER_OL_TRIAL, TRIAL_TIMEOUT.get(action.tier, 5.0))
        )

    def _finish_ol_trial(self, success: bool) -> None:
        action, self._ol_action = self._ol_action, None
        if action is None:
            return
        if success and self._ol_cause is not None:
            self.recorder.record_success(self._ol_cause, action)
            self.persist("records", json.dumps(
                {str(c): {a.name: n for a, n in acts.items()}
                 for c, acts in self.recorder.records.items()},
                sort_keys=True,
            ).encode())
            self._ol_cause = None
            self._ol_queue = []
            self._send_app({"op": "ota_flush"})
            return
        self._next_ol_trial()
