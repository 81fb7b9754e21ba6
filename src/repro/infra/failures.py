"""Failure-injection engine.

Scenarios inject :class:`FailureSpec` instances; the engine turns them
into :class:`ActiveFailure` state that the AMF/SMF/UPF consult on every
procedure. Each failure declares *how it can clear* — the set of
:class:`ClearTrigger` conditions — which is what differentiates the
recovery paths of legacy handling vs SEED's targeted resets:

* ``ON_RETRY`` — any repeated attempt succeeds (transient desync);
  legacy timers recover these, just slowly.
* ``ON_FRESH_IDENTITY`` — clears when the device registers with its
  permanent identity instead of a stale GUTI (profile reload / reattach
  does this; blind retries with the cached GUTI do not).
* ``ON_CONFIG_MATCH`` — clears only when the device presents the
  configuration the network currently requires (SEED's config push);
  blind retries repeat the failure.
* ``ON_SESSION_RESET`` — clears when the PDU session is torn down and
  re-established (stale gateway state).
* ``ON_POLICY_FIX`` — clears when the network-side policy/config is
  corrected (SEED's uplink report triggers this).
* ``ON_USER_ACTION`` — needs the subscriber (plan reactivation).
* ``AFTER_DURATION`` — ambient recovery after ``duration`` seconds
  (network-side state eventually resyncs, ops fix configs, the device
  moves cells). This is the only path legacy handling has for
  config-class failures, and its long durations produce the heavy
  tails in Figure 2 / Table 4.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.simkernel.simulator import Simulator


class FailureClass(enum.Enum):
    CONTROL_PLANE = "control_plane"
    DATA_PLANE = "data_plane"
    DATA_DELIVERY = "data_delivery"


class FailureMode(enum.Enum):
    """How the failure manifests at the protocol level."""

    REJECT = "reject"          # explicit reject with a cause code
    TIMEOUT = "timeout"        # requests silently dropped
    BLOCK = "block"            # user-plane packets dropped
    DNS_OUTAGE = "dns_outage"  # resolver stops answering


class ClearTrigger(enum.Enum):
    ON_RETRY = "on_retry"
    ON_FRESH_IDENTITY = "on_fresh_identity"
    ON_CONFIG_MATCH = "on_config_match"
    ON_SESSION_RESET = "on_session_reset"
    ON_POLICY_FIX = "on_policy_fix"
    ON_USER_ACTION = "on_user_action"
    AFTER_DURATION = "after_duration"


@dataclass
class FailureSpec:
    """Declarative description of one injected failure."""

    failure_class: FailureClass
    mode: FailureMode
    cause: int = 0
    supi: str = ""                       # empty = applies to all devices
    config_field: str = ""               # e.g. "dnn" for ON_CONFIG_MATCH
    required_value: object = None        # value the network now requires
    clear_triggers: frozenset[ClearTrigger] = frozenset({ClearTrigger.ON_RETRY})
    duration: float = 0.0                # for AFTER_DURATION
    block_protocol: str = ""             # "tcp"/"udp"/"dns" for BLOCK
    block_direction: str = "both"
    dns_server: str = ""                 # DNS_OUTAGE: failed resolver ("" = any)
    customized: bool = False             # operator-custom (unstandardized)
    congestion: bool = False             # congestion-driven failure
    label: str = ""


_failure_ids = itertools.count(1)


@dataclass
class ActiveFailure:
    """Runtime state of an injected failure."""

    spec: FailureSpec
    injected_at: float
    failure_id: int = field(default_factory=lambda: next(_failure_ids))
    cleared: bool = False
    cleared_at: float | None = None
    cleared_by: ClearTrigger | None = None
    retry_seen: bool = False
    clear_event: object = None  # pending AFTER_DURATION timer, if any


class FailureEngine:
    """Owns active failures and evaluates clear triggers."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        #: Uncleared failures in injection order. A failure applies to
        #: ``supi`` when ``spec.supi in ("", supi)``: unscoped ones
        #: apply to every device.
        self.active: list[ActiveFailure] = []
        self.history: list[ActiveFailure] = []
        # Observers notified on every clear, in registration order (the
        # UPF, AMF and SMF, then the measurement harness, which uses
        # this to re-check connectivity without polling).
        self.on_clear: list = []

    def scoped_active(self, supi: str) -> list[ActiveFailure]:
        """Active failures that apply to ``supi``, in injection order."""
        return [f for f in self.active if f.spec.supi in ("", supi)]

    def inject(self, spec: FailureSpec) -> ActiveFailure:
        failure = ActiveFailure(spec=spec, injected_at=self.sim.now)
        self.active.append(failure)
        self.history.append(failure)
        if ClearTrigger.AFTER_DURATION in spec.clear_triggers and spec.duration > 0:
            label = f"failure:{failure.failure_id}:ambient-clear"
            if spec.mode in (FailureMode.BLOCK, FailureMode.DNS_OUTAGE):
                # Maintenance: a user-plane clear only changes packet
                # fates and wakes the meter; the AMF/SMF clear observers
                # act on TIMEOUT failures only, and the quiescence
                # predicate re-checks every observable before anything
                # is elided. settle() records it if a stop discards it.
                failure.clear_event = self.sim.schedule(  # seedlint: disable=DET006
                    spec.duration, self._clear, failure,
                    ClearTrigger.AFTER_DURATION, label=label, maintenance=True,
                )
            else:
                failure.clear_event = self.sim.schedule(
                    spec.duration, self._clear, failure,
                    ClearTrigger.AFTER_DURATION, label=label,
                )
        return failure

    def _clear(self, failure: ActiveFailure, trigger: ClearTrigger) -> None:
        if failure.cleared:
            return
        self._retire(failure, trigger, self.sim.now)
        for observer in self.on_clear:
            observer(failure)

    def _retire(self, failure: ActiveFailure, trigger: ClearTrigger, at: float) -> None:
        """A clear's own bookkeeping, without notifying observers."""
        # An earlier trigger beat the ambient timer: cancel it so a
        # long-dated dead timer does not hold off quiescence.
        if failure.clear_event is not None:
            failure.clear_event.cancel()
            failure.clear_event = None
        failure.cleared = True
        failure.cleared_at = at
        failure.cleared_by = trigger
        if failure in self.active:
            self.active.remove(failure)

    def settle(self, until: float) -> None:
        """Record the ambient clears a quiescent stop discarded.

        A run that stops early drops its pending user-plane clears with
        the rest of the maintenance heap. They change no record (see
        :meth:`inject`), so only their bookkeeping is applied here, at
        their own times: the failures then read as a run that reached
        ``until`` leaves them. A no-op after a full-horizon run.
        """
        for failure in list(self.active):
            event = failure.clear_event
            if event is not None and event.pending and event.time <= until:
                self._retire(failure, ClearTrigger.AFTER_DURATION, event.time)

    # ------------------------------------------------------------------
    # Queries used by AMF / SMF / UPF
    # ------------------------------------------------------------------
    def matching(
        self, supi: str, failure_class: FailureClass, mode: FailureMode | None = None
    ) -> list[ActiveFailure]:
        return [
            f
            for f in self.active
            if f.spec.supi in ("", supi)
            and f.spec.failure_class is failure_class
            and (mode is None or f.spec.mode is mode)
        ]

    def blocking_rules(self, supi: str) -> list[ActiveFailure]:
        return [
            f
            for f in self.active
            if f.spec.supi in ("", supi)
            and f.spec.mode in (FailureMode.BLOCK, FailureMode.DNS_OUTAGE)
        ]

    # ------------------------------------------------------------------
    # Trigger notifications (called by core functions / SEED actions)
    # ------------------------------------------------------------------
    def note_retry(self, supi: str, failure_class: FailureClass) -> None:
        """A repeated attempt arrived; clears ON_RETRY failures.

        The *first* attempt that hits a failure sets ``retry_seen``;
        the next attempt clears it — modelling "recovered on retry".
        """
        for failure in self.matching(supi, failure_class):
            if ClearTrigger.ON_RETRY in failure.spec.clear_triggers:
                if failure.retry_seen:
                    self._clear(failure, ClearTrigger.ON_RETRY)
                else:
                    failure.retry_seen = True

    def note_fresh_identity(self, supi: str) -> None:
        for failure in self.matching(supi, FailureClass.CONTROL_PLANE):
            if ClearTrigger.ON_FRESH_IDENTITY in failure.spec.clear_triggers:
                self._clear(failure, ClearTrigger.ON_FRESH_IDENTITY)

    def note_config_presented(self, supi: str, values: dict) -> None:
        """The device presented configuration ``values`` (field→value)."""
        for failure in self.scoped_active(supi):
            if failure.cleared:
                continue
            if ClearTrigger.ON_CONFIG_MATCH not in failure.spec.clear_triggers:
                continue
            presented = values.get(failure.spec.config_field)
            if presented is not None and presented == failure.spec.required_value:
                self._clear(failure, ClearTrigger.ON_CONFIG_MATCH)

    def note_session_reset(self, supi: str) -> None:
        for failure in self.scoped_active(supi):
            if not failure.cleared and ClearTrigger.ON_SESSION_RESET in failure.spec.clear_triggers:
                self._clear(failure, ClearTrigger.ON_SESSION_RESET)

    def note_policy_fix(self, supi: str, protocol: str = "") -> None:
        for failure in self.scoped_active(supi):
            if failure.cleared:
                continue
            if ClearTrigger.ON_POLICY_FIX not in failure.spec.clear_triggers:
                continue
            if protocol and failure.spec.block_protocol and failure.spec.block_protocol != protocol:
                continue
            self._clear(failure, ClearTrigger.ON_POLICY_FIX)

    def note_user_action(self, supi: str) -> None:
        for failure in self.scoped_active(supi):
            if not failure.cleared and ClearTrigger.ON_USER_ACTION in failure.spec.clear_triggers:
                self._clear(failure, ClearTrigger.ON_USER_ACTION)

    def clear_all(self) -> None:
        for failure in list(self.active):
            self._clear(failure, ClearTrigger.AFTER_DURATION)
