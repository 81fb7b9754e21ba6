"""Android OS model: data-stall detection + sequential recovery.

Reproduces the behaviour the paper measures in §3.3 (Android 12's
DcTracker / NetworkMonitor mechanics, §2):

Detection — three detectors, evaluated on a periodic check:

* **Captive portal probe**: resolve + fetch
  ``connectivitycheck.gstatic.com`` at each validation interval;
  repeated probe failure flags a stall (also the source of the false
  positives the paper demonstrates when only the probe server is down).
* **TCP health**: failure rate over 80 % in the last minute, or >10
  outbound packets with zero inbound.
* **DNS health**: five consecutive DNS timeouts within 30 minutes,
  observed on the OS's own probe queries.

There is deliberately *no* UDP detector (§3.3: "Android does not check
for those failures related to UDP").

Recovery — the sequential-retry ladder with configurable inter-action
timers (Android default 3 min; the paper's baseline uses the 21/6/16 s
recommended values from [35]): ① clean up TCP connections, ② re-register
(reattach), ③ restart the modem. The ladder stops as soon as a probe
validates connectivity.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable

from repro.device.modem import Modem
from repro.simkernel.simulator import Simulator
from repro.transport.dns import DnsClient
from repro.transport.probes import ConnectivityProber
from repro.transport.tcp import TcpClient


class StallReason(enum.Enum):
    PROBE_FAILURE = "probe_failure"
    TCP_FAILURE = "tcp_failure"
    DNS_TIMEOUTS = "dns_timeouts"


@dataclass
class StallEvent:
    time: float
    reason: StallReason


@dataclass
class AndroidTimers:
    """Detection cadence and ladder intervals.

    ``ladder`` entries are the waits *before* each recovery rung, per
    the paper's baseline configuration (21 s / 6 s / 16 s from [35]);
    Android's stock value is ~210 s between rungs.
    """

    validation_interval: float = 60.0   # captive-portal probe cadence
    evaluation_interval: float = 30.0   # TCP/DNS health evaluation
    dns_probe_interval: float = 120.0   # OS's own DNS health queries
    probe_failures_needed: int = 2      # consecutive probe failures
    ladder: tuple[float, float, float] = (21.0, 6.0, 16.0)

    @classmethod
    def stock(cls) -> "AndroidTimers":
        """Android defaults: ~3 min between recovery actions (§2)."""
        return cls(ladder=(210.0, 210.0, 210.0))


class AndroidOs:
    """The OS-level failure detector and sequential-recovery driver."""

    def __init__(
        self,
        sim: Simulator,
        modem: Modem,
        prober: ConnectivityProber,
        dns: DnsClient,
        tcp: TcpClient,
        timers: AndroidTimers | None = None,
        auto_recover: bool = True,
    ) -> None:
        self.sim = sim
        self.modem = modem
        self.prober = prober
        self.dns = dns
        self.tcp = tcp
        self.timers = timers or AndroidTimers()
        self.auto_recover = auto_recover
        self.stalls: list[StallEvent] = []
        self.stall_active = False
        self.recovery_actions: list[tuple[float, str]] = []
        self._probe_failures = 0
        self._ladder_event = None
        self._started = False
        self._dns_probe_timeouts = 0
        # Connectivity Diagnostics API consumers (SEED's carrier app).
        self.stall_listeners: list[Callable[[StallEvent], None]] = []

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin periodic validation/evaluation loops."""
        if self._started:
            return
        self._started = True
        self.sim.schedule(self.timers.validation_interval, self._validation_tick,
                          label="android:validate", maintenance=True)
        self.sim.schedule(self.timers.evaluation_interval, self._evaluation_tick,
                          label="android:evaluate", maintenance=True)
        self.sim.schedule(self.timers.dns_probe_interval, self._dns_probe_tick,
                          label="android:dns-probe", maintenance=True)

    # -- captive portal validation ----------------------------------------
    # The periodic ticks are maintenance timers: they re-arm themselves
    # forever, and their probe/query children inherit the maintenance
    # taint. Detector *reactions* run as callbacks of those children:
    # the stall record itself is covered by the testbed's settledness
    # predicate, while the work a stall hands on (SEED's stall report,
    # each ladder rung) is scheduled explicitly substantive.
    def _validation_tick(self) -> None:
        self.prober.probe(self._on_probe_outcome)
        self.sim.schedule(self.timers.validation_interval, self._validation_tick,
                          label="android:validate", maintenance=True)

    def _on_probe_outcome(self, outcome) -> None:
        if outcome.ok:
            self._probe_failures = 0
            if self.stall_active:
                self._stall_recovered()
            return
        self._probe_failures += 1
        if self._probe_failures >= self.timers.probe_failures_needed:
            self._report_stall(StallReason.PROBE_FAILURE)

    # -- TCP / DNS evaluation ----------------------------------------------
    def _evaluation_tick(self) -> None:
        now = self.sim.now
        self.tcp.stats.prune(now)
        if self.tcp.stats.failure_rate(now) > 0.8 or self.tcp.stats.outbound_without_inbound(now):
            self._report_stall(StallReason.TCP_FAILURE)
        if self.dns.consecutive_timeouts() >= 5:
            self._report_stall(StallReason.DNS_TIMEOUTS)
        self.sim.schedule(self.timers.evaluation_interval, self._evaluation_tick,
                          label="android:evaluate", maintenance=True)

    def _dns_probe_tick(self) -> None:
        """The OS's own DNS health query (independent of app queries)."""
        self.dns.query("connectivitycheck.gstatic.com", self._on_dns_probe)
        self.sim.schedule(self.timers.dns_probe_interval, self._dns_probe_tick,
                          label="android:dns-probe", maintenance=True)

    def _on_dns_probe(self, outcome) -> None:
        del outcome  # outcome already lands in dns.history for detection

    # -- stall reporting and the recovery ladder ----------------------------
    def _report_stall(self, reason: StallReason) -> None:
        if self.stall_active:
            return
        self.stall_active = True
        event = StallEvent(time=self.sim.now, reason=reason)
        self.stalls.append(event)
        for listener in list(self.stall_listeners):
            listener(event)
        if self.auto_recover:
            self._start_ladder()

    def _stall_recovered(self) -> None:
        self.stall_active = False
        self._probe_failures = 0
        if self._ladder_event is not None:
            self._ladder_event.cancel()
            self._ladder_event = None

    def _start_ladder(self) -> None:
        self._schedule_rung(0)

    def _schedule_rung(self, rung: int) -> None:
        if rung >= len(self.timers.ladder):
            return
        # Explicitly substantive: the first rung is armed from inside a
        # maintenance detector tick, and a rung re-validates, resets the
        # modem and arms the next rung, none of which may be elided.
        self._ladder_event = self.sim.schedule(
            self.timers.ladder[rung], self._run_rung, rung,
            label=f"android:rung{rung}", maintenance=False,
        )

    def _run_rung(self, rung: int) -> None:
        if not self.stall_active:
            return
        # Before escalating, re-validate: the previous rung may have
        # recovered connectivity.
        self.prober.probe(lambda outcome: self._after_rung_probe(outcome, rung))

    def _after_rung_probe(self, outcome, rung: int) -> None:
        if outcome.ok:
            self._stall_recovered()
            return
        action = ("cleanup_tcp", "reregister", "restart_modem")[rung]
        self.recovery_actions.append((self.sim.now, action))
        if action == "cleanup_tcp":
            self.tcp.close_all()
        elif action == "reregister":
            self.modem.reattach()
        elif action == "restart_modem":
            self.modem.reboot()
        self._schedule_rung(rung + 1)

    # ------------------------------------------------------------------
    def detectors_quiet(self, window: float = 60.0) -> bool:
        """No stall handling in flight and no detector primed to trip.

        Part of the testbed's quiescence predicate. Beyond the current
        state being green, this guarantees *future* evaluation ticks
        stay green on today's data. A later tick's window holds a
        suffix of today's window plus new exchanges, which succeed on
        the passing paths the predicate demands. Successes only lower
        a failure rate, so no suffix of the window's attempts may reach
        0.8 (the float expression of ``TcpStats.failure_rate``). A
        window without inbound packets starts after today's last
        inbound, so at most 10 outbound packets may follow it.
        """
        if self.stall_active or self._probe_failures > 0:
            return False
        if self._ladder_event is not None and self._ladder_event.pending:
            return False
        if self.dns.consecutive_timeouts() >= 5:
            return False
        stats = self.tcp.stats
        cutoff = self.sim.now - window
        succeeded = total = 0
        for t, ok in reversed(stats.attempts):
            if t < cutoff:
                break
            total += 1
            succeeded += ok
            if 1.0 - (succeeded / total) >= 0.8:
                return False
        outbound = stats.outbound
        since = bisect_right(outbound, stats.inbound[-1]) if stats.inbound else 0
        return len(outbound) - max(since, bisect_left(outbound, cutoff)) <= 10

    def stall_spent(self) -> bool:
        """A stall is active and no recovery rung is pending.

        Part of the testbed's quiescence predicate when configuration
        blocks the validation probe's path: no probe can succeed, so the
        stall never clears and every later detection is a no-op; the
        legacy ladder has run out, and SEED modes run no ladder.
        """
        event = self._ladder_event
        return self.stall_active and (event is None or not event.pending)

    def detection_latency(self, failure_onset: float) -> float | None:
        """Time from ``failure_onset`` to the first stall report after it."""
        for event in self.stalls:
            if event.time >= failure_onset:
                return event.time - failure_onset
        return None
