"""The SEED carrier app (paper §6): report service + recovery actions.

Runs in the privileged carrier-host environment. Two modules, as in the
paper's implementation (842 lines of Java on Android):

* **Failure report service** — receives app reports through the public
  :meth:`report_failure` API (Android Service binding) and OS
  data-stall notifications (Connectivity Diagnostics API); validates
  and filters them ("the carrier app further checks and filters the
  failure report inputs to ensure security", §7.3), then forwards them
  to the SIM applet over APDU.
* **Recovery action module** — executes the applet's instructions:
  carrier-config updates via the UICC privilege API (A3), AT command
  batches when root is available (B1–B3), the fast data-plane reset
  sequence of Figure 6, uplink diagnosis requests, and OTA flushes of
  online-learning records.
"""

from __future__ import annotations

from typing import Callable

from repro.core.applet import (
    OP_ENABLE_ROOT,
    OP_EVENT_REGISTERED,
    OP_EVENT_SESSION_UP,
    OP_FAILURE_REPORT,
    OP_OS_STALL,
    SEED_AID,
    SeedApplet,
)
from repro.core.report import FailureReport, FailureType, ReportError, TrafficDirection
from repro.device.carrier_host import CarrierHost
from repro.sim_card.apdu import Apdu, Ins
from repro.simkernel.simulator import Simulator

APDU_LATENCY = 0.010       # carrier app ↔ SIM exchange
REPORT_PREP_LATENCY = 0.012  # report collection + validation (§7.2.2)


class SeedCarrierApp:
    """Device-side SEED component outside the card."""

    def __init__(
        self,
        sim: Simulator,
        host: CarrierHost,
        applet: SeedApplet,
        ota_flush: Callable[[], bool] | None = None,
        use_escort: bool = True,
    ) -> None:
        self.sim = sim
        self.host = host
        self.applet = applet
        self.ota_flush = ota_flush
        # ``use_escort=False`` ablates Figure 6's escort DIAG session:
        # fast resets then release the last bearer and pay a reattach.
        self.use_escort = use_escort
        self.reports_forwarded = 0
        self.reports_filtered = 0
        self.instructions_executed: list[tuple[float, str]] = []
        self._escort_pending: dict | None = None
        # Wire the channels.
        applet.bind(host.modem.usim, self._on_applet_instruction)
        host.subscribe_data_stall(self._on_os_stall)
        host.modem.on_registered.append(self._on_registered)
        host.modem.on_session_up.append(self._on_session_up)
        if host.detect_root():
            self.sim.call_soon(self._enable_root_mode, label="seedapp:root")

    @property
    def idle(self) -> bool:
        """No escort fast-reset sequence in flight (quiescence input)."""
        return self._escort_pending is None

    # ------------------------------------------------------------------
    # Public failure-report API (paper §4.3.2)
    # ------------------------------------------------------------------
    def report_failure(self, failure_type: str, direction: str, address: str) -> bool:
        """The three-parameter API apps call for fast failure handling.

        Returns False when the report is rejected by input filtering.
        """
        try:
            report = FailureReport.from_strings(failure_type, direction, address)
        except (ReportError, KeyError):
            self.reports_filtered += 1
            return False
        self.reports_forwarded += 1
        # Apps call this from their traffic callbacks, which descend
        # from maintenance cadence ticks; the report pipeline can end
        # in a policy fix, so it must not inherit that taint.
        self.sim.schedule(
            REPORT_PREP_LATENCY + APDU_LATENCY,
            self._forward_report, report, OP_FAILURE_REPORT,
            label="seedapp:report", maintenance=False,
        )
        return True

    def _forward_report(self, report: FailureReport, op: int) -> None:
        self.host.transmit_apdu(
            SEED_AID, Apdu(cla=0x80, ins=Ins.SEED_REPORT, p1=op, data=report.encode())
        )

    # -- OS stall notifications ------------------------------------------
    def _on_os_stall(self, event) -> None:
        # Stalls are detected inside Android's maintenance ticks; the
        # report they start is substantive work (see report_failure).
        report = FailureReport(
            FailureType.TCP, TrafficDirection.BOTH, "0.0.0.0:443"
        )
        self.sim.schedule(
            APDU_LATENCY, self._forward_report, report, OP_OS_STALL,
            label="seedapp:os-stall", maintenance=False,
        )

    # -- success events (CAT event download) --------------------------------
    def _on_registered(self) -> None:
        self.sim.schedule(APDU_LATENCY, self._send_event, OP_EVENT_REGISTERED,
                          label="seedapp:evt-reg")

    def _on_session_up(self, psi: int, session) -> None:
        if psi != 1:
            return
        self.sim.schedule(APDU_LATENCY, self._send_event, OP_EVENT_SESSION_UP,
                          label="seedapp:evt-sess")

    def _send_event(self, op: int) -> None:
        self.host.transmit_apdu(SEED_AID, Apdu(cla=0x80, ins=Ins.SEED_REPORT, p1=op))

    def _enable_root_mode(self) -> None:
        self.host.transmit_apdu(
            SEED_AID, Apdu(cla=0x80, ins=Ins.SEED_REPORT, p1=OP_ENABLE_ROOT)
        )

    # ------------------------------------------------------------------
    # Recovery action module (applet → device instructions)
    # ------------------------------------------------------------------
    def _on_applet_instruction(self, instruction: dict) -> None:
        op = instruction.get("op", "")
        self.instructions_executed.append((self.sim.now, op))
        if op == "config_update":
            self._do_config_update(instruction)
        elif op == "at":
            self._do_at(instruction)
        elif op == "fast_dp_reset":
            self._do_fast_dp_reset(instruction)
        elif op == "send_diag_request":
            self._do_send_diag_request(instruction)
        elif op == "ota_flush":
            self._do_ota_flush()

    def _do_config_update(self, instruction: dict) -> None:
        """A3: UICC-privilege carrier config update."""
        self.host.update_carrier_config(
            psi=instruction.get("psi", 1),
            dnn=instruction.get("dnn"),
            pdu_session_type=instruction.get("pdu_session_type"),
        )

    def _do_at(self, instruction: dict) -> None:
        if not self.host.detect_root():
            return  # instruction requires SEED-R; drop silently
        delay = 0.0
        for line in instruction.get("lines", []):
            self.sim.schedule(delay, self._send_at_line, line, label="seedapp:at")
            delay += 0.05  # serialized AT exchanges

    def _send_at_line(self, line: str) -> None:
        self.host.send_at(line)

    def _do_fast_dp_reset(self, instruction: dict) -> None:
        """B3 via the escort DIAG session (paper Figure 6).

        1. establish the "DIAG" session (keeps the radio bearer alive),
        2. once it is up, release + re-establish the DATA session with
           any new configuration,
        3. release the escort session after DATA is back.
        """
        if not self.host.detect_root():
            return
        modem = self.host.modem
        psi = instruction.get("psi", 1)
        if instruction.get("dnn") or instruction.get("pdu_session_type"):
            pdu_type = instruction.get("pdu_session_type") or modem.profile.pdu_session_type
            dnn = instruction.get("dnn") or modem.profile.default_dnn
            self.host.send_at(f'AT+CGDCONT={psi},"{pdu_type}","{dnn}"')
        if not self.use_escort:
            # Ablation: naive CGACT cycle; releasing the last session
            # drops the bearer and forces a control-plane reattach.
            self.host.send_at(f"AT+CGACT=0,{psi}")
            self.sim.schedule(0.05, self.host.send_at, f"AT+CGACT=1,{psi}",
                              label="seedapp:naive-reset")
            return
        if self._escort_pending is not None:
            return  # a fast reset is already in flight
        self._escort_pending = {"psi": psi, "stage": "escort_up"}
        hook_holder = {}

        def on_session_event(up_psi: int, session) -> None:
            state = self._escort_pending
            if state is None:
                modem.on_session_up.remove(hook_holder["hook"])
                return
            if state["stage"] == "escort_up" and up_psi == 2:
                state["stage"] = "data_up"
                self.host.send_at(f"AT+CGACT=0,{state['psi']}")
                self.sim.schedule(0.05, self.host.send_at, f"AT+CGACT=1,{state['psi']}",
                                  label="seedapp:data-reactivate")
            elif state["stage"] == "data_up" and up_psi == state["psi"]:
                self._escort_pending = None
                modem.on_session_up.remove(hook_holder["hook"])
                self.host.send_at("AT+CGACT=0,2")

        hook_holder["hook"] = on_session_event
        modem.on_session_up.append(on_session_event)
        self.host.send_at('AT+CGDCONT=2,"IPv4","DIAG"')
        self.host.send_at("AT+CGACT=1,2")
        # Safety valve: if the escort never comes up (e.g. the radio is
        # gone), abandon the sequence after a deadline.
        self.sim.schedule(3.0, self._escort_deadline, hook_holder, label="seedapp:escort-deadline")

    def _escort_deadline(self, hook_holder: dict) -> None:
        if self._escort_pending is not None:
            self._escort_pending = None
            hook = hook_holder.get("hook")
            if hook in self.host.modem.on_session_up:
                self.host.modem.on_session_up.remove(hook)

    def _do_send_diag_request(self, instruction: dict) -> None:
        """Uplink diagnosis: PDU establishment request with opaque DNN."""
        dnn_raw = instruction.get("dnn_raw", b"")
        # Message generation cost on the device side (§7.2.2 "Prep").
        self.sim.schedule(0.012, self.host.modem.send_diag_session_request, 3, dnn_raw,
                          label="seedapp:diag-req")

    def _do_ota_flush(self) -> None:
        if self.ota_flush is not None:
            self.ota_flush()
