"""Access and Mobility Management Function.

Handles registration (with full Milenage AKA), service requests, and
deregistration. Failure behaviour is driven by the
:class:`~repro.infra.failures.FailureEngine`; every reject passes
through ``reject_hook`` so the SEED core plugin (when deployed) can
classify the failure and push assistance info to the SIM (§5.2).

The AMF also exposes ``send_auth_request`` to the plugin: the 5G
standard allows an Authentication Request at any time over a NAS
signaling connection (§4.5), which is the downlink diagnosis carrier.
"""

from __future__ import annotations

from typing import Callable

from repro.infra.failures import FailureClass, FailureEngine, FailureMode
from repro.infra.gnb import Gnb
from repro.infra.nms import Nms
from repro.infra.cpu import CpuModel
from repro.infra.subscriber_db import SubscriberDb, SubscriberError
from repro.nas import ies
from repro.nas.causes import Plane
from repro.nas.messages import (
    AuthenticationFailure,
    AuthenticationRequest,
    AuthenticationResponse,
    DeregistrationRequest,
    NasMessage,
    RegistrationAccept,
    RegistrationReject,
    RegistrationRequest,
    ServiceReject,
    ServiceRequest,
)

PROCESSING_DELAY = 0.006

# 5GMM cause shortcuts used by the natural (non-injected) paths.
CAUSE_IDENTITY_UNDERIVABLE = 9
CAUSE_SERVICES_NOT_ALLOWED = 7
CAUSE_MAC_FAILURE = 20
CAUSE_SYNCH_FAILURE = 21


class Amf:
    """Registration/mobility handling for all subscribers."""

    def __init__(
        self,
        sim,
        gnb: Gnb,
        subscriber_db: SubscriberDb,
        engine: FailureEngine,
        nms: Nms,
        cpu: CpuModel,
    ) -> None:
        self.sim = sim
        self.gnb = gnb
        self.subscriber_db = subscriber_db
        self.engine = engine
        self.nms = nms
        self.cpu = cpu
        self.registered: set[str] = set()
        self._pending_auth: dict[str, dict] = {}
        # SEED plugin hooks (None when SEED is not deployed).
        self.reject_hook: Callable[[str, Plane, int, dict], None] | None = None
        self.diag_ack_hook: Callable[[str], None] | None = None
        self.sync_failure_hook: Callable[[str, bytes], None] | None = None
        self.rejects: list[tuple[float, str, int]] = []
        # Called with the SUPI on deregistration and on fresh initial
        # registration; the core uses it to purge stale session state.
        self.cleanup_hook: Callable[[str], None] | None = None
        # Requests dropped while a TIMEOUT failure is active are parked;
        # when the failure clears they are re-delivered, modeling the
        # lower-layer (RLC) retransmissions that recover fast transients
        # without waiting for the NAS retry timer.
        self._parked: list[tuple[str, NasMessage]] = []
        self.engine.on_clear.append(self._on_failure_cleared)

    # ------------------------------------------------------------------
    # Uplink dispatch
    # ------------------------------------------------------------------
    def handle(self, supi: str, message: NasMessage) -> None:
        """Entry point for 5GMM messages from the gNB."""
        self.sim.schedule(PROCESSING_DELAY, self._dispatch, supi, message, label="amf:process")

    def _dispatch(self, supi: str, message: NasMessage) -> None:
        if isinstance(message, RegistrationRequest):
            self._process_registration(supi, message)
        elif isinstance(message, AuthenticationResponse):
            self._process_auth_response(supi, message)
        elif isinstance(message, AuthenticationFailure):
            self._process_auth_failure(supi, message)
        elif isinstance(message, DeregistrationRequest):
            self._process_deregistration(supi, message)
        elif isinstance(message, ServiceRequest):
            self._process_service_request(supi, message)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _process_registration(self, supi: str, msg: RegistrationRequest) -> None:
        self.cpu.note_procedure()
        self.nms.note_core_event()
        self.engine.note_retry(supi, FailureClass.CONTROL_PLANE)
        if msg.guti is None:
            self.engine.note_fresh_identity(supi)
        self.engine.note_config_presented(
            supi,
            {
                "plmn": msg.requested_plmn,
                "rats": tuple(msg.capabilities),
                "sst": msg.requested_sst,
            },
        )

        # Network-unresponsive failures: drop the request silently.
        timeouts = self.engine.matching(supi, FailureClass.CONTROL_PLANE, FailureMode.TIMEOUT)
        if timeouts:
            self.cpu.note_failure()
            self._parked.append((supi, msg))
            return

        # Identity resolution.
        if msg.guti is not None:
            try:
                record = self.subscriber_db.by_guti(msg.guti)
            except SubscriberError:
                self._reject_registration(supi, CAUSE_IDENTITY_UNDERIVABLE)
                return
        else:
            try:
                record = self.subscriber_db.by_supi(supi)
            except SubscriberError:
                self._reject_registration(supi, CAUSE_IDENTITY_UNDERIVABLE)
                return

        # Subscription state (expired plans need user action, §3.1).
        if not record.subscription_active:
            self._reject_registration(supi, CAUSE_SERVICES_NOT_ALLOWED)
            return

        # Injected control-plane rejects still active after the trigger
        # notifications above (config mismatch, custom causes, ...).
        rejects = self.engine.matching(supi, FailureClass.CONTROL_PLANE, FailureMode.REJECT)
        if rejects:
            failure = rejects[0]
            self._reject_registration(supi, failure.spec.cause, failure_id=failure.failure_id)
            return

        # Mutual authentication (Milenage AKA).
        mil = record.milenage()
        rand_bits = self.sim.rng.stream("amf.rand").getrandbits
        rand = bytes(rand_bits(8) for _ in range(16))
        if ies.is_dflag(rand):  # astronomically unlikely; reserved value
            rand = b"\x00" * 15 + b"\x01"
        sqn = record.next_sqn()
        autn = mil.generate_autn(rand, sqn)
        self._pending_auth[supi] = {
            "expected_res": mil.f2(rand),
            "request": msg,
            "record": record,
        }
        self.gnb.downlink(supi, AuthenticationRequest(rand=rand, autn=autn))

    def _process_auth_response(self, supi: str, msg: AuthenticationResponse) -> None:
        pending = self._pending_auth.pop(supi, None)
        if pending is None:
            return
        if msg.res != pending["expected_res"]:
            self._reject_registration(supi, CAUSE_MAC_FAILURE)
            return
        record = pending["record"]
        guti = self.subscriber_db.allocate_guti(record.supi)
        if self.cleanup_hook is not None:
            # Initial registration implicitly releases prior contexts.
            self.cleanup_hook(supi)
        self.registered.add(supi)
        self.gnb.downlink(
            supi,
            RegistrationAccept(guti=guti, tracking_area_list=(pending["request"].tracking_area,)),
        )

    def _process_auth_failure(self, supi: str, msg: AuthenticationFailure) -> None:
        if msg.cause == CAUSE_SYNCH_FAILURE and msg.auts.startswith(b"DACK"):
            # SIM acknowledged a diagnosis payload (paper Figure 7a).
            if self.diag_ack_hook is not None:
                self.diag_ack_hook(supi)
            return
        if msg.cause == CAUSE_SYNCH_FAILURE and self.sync_failure_hook is not None:
            self.sync_failure_hook(supi, msg.auts)
            return
        # Genuine MAC failure: abort the pending registration.
        self._pending_auth.pop(supi, None)
        self._reject_registration(supi, CAUSE_MAC_FAILURE)

    def _reject_registration(self, supi: str, cause: int, failure_id: int | None = None) -> None:
        self.cpu.note_failure()
        self.rejects.append((self.sim.now, supi, cause))
        self.gnb.downlink(supi, RegistrationReject(cause=cause))
        if self.reject_hook is not None:
            self.reject_hook(supi, Plane.CONTROL, cause, {"failure_id": failure_id})

    # ------------------------------------------------------------------
    # Service request / deregistration
    # ------------------------------------------------------------------
    def _process_service_request(self, supi: str, msg: ServiceRequest) -> None:
        self.cpu.note_procedure()
        try:
            self.subscriber_db.by_guti(msg.guti)
        except SubscriberError:
            self.cpu.note_failure()
            self.gnb.downlink(supi, ServiceReject(cause=CAUSE_IDENTITY_UNDERIVABLE))
            if self.reject_hook is not None:
                self.reject_hook(supi, Plane.CONTROL, CAUSE_IDENTITY_UNDERIVABLE, {})

    def _process_deregistration(self, supi: str, msg: DeregistrationRequest) -> None:
        self.cpu.note_procedure()
        self.registered.discard(supi)
        self._pending_auth.pop(supi, None)
        if self.cleanup_hook is not None:
            self.cleanup_hook(supi)

    # ------------------------------------------------------------------
    # SEED plugin surface
    # ------------------------------------------------------------------
    def send_auth_request(self, supi: str, rand: bytes, autn: bytes) -> None:
        """Send a (possibly diagnosis-flagged) Authentication Request.

        Available at any time over the NAS signaling connection, even
        while control/data-plane procedures are failing (§4.5).
        """
        self.gnb.downlink(supi, AuthenticationRequest(rand=rand, autn=autn))

    def _on_failure_cleared(self, failure) -> None:
        if failure.spec.mode is not FailureMode.TIMEOUT:
            return
        if failure.spec.failure_class is not FailureClass.CONTROL_PLANE:
            return
        parked, self._parked = self._parked, []
        latest: dict[str, NasMessage] = {}
        for supi, msg in parked:
            if not failure.spec.supi or failure.spec.supi == supi:
                latest[supi] = msg
            else:
                self._parked.append((supi, msg))
        for supi, msg in latest.items():
            self.sim.schedule(0.1, self._dispatch, supi, msg, label="amf:rlc-redeliver")

    def is_registered(self, supi: str) -> bool:
        return supi in self.registered

    def force_deregister(self, supi: str) -> None:
        """Drop registration state (used by failure scenarios)."""
        self.registered.discard(supi)
