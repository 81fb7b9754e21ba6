"""Disruption measurement: ground-truth connectivity oracle.

The paper measures disruption "from the time when failure happens to
the instant" service is restored. The oracle answers — without
injecting probe traffic that would perturb the experiment — whether
the device currently has working service for the scenario's target
(registration up, default PDU session up, target flows unblocked,
resolver healthy).

Recovery detection is event-driven: session/registration events,
failure clears, and session modifications trigger re-checks, with a
coarse heartbeat as a safety net, so recovery timestamps are precise
to milliseconds without per-tick polling. The heartbeat fires only on
grid points where something could have changed since the last check
(see :meth:`DisruptionMeter._heartbeat`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.device.apps import AppProfile
from repro.device.device import Device
from repro.infra.core_network import CoreNetwork
from repro.simkernel.simulator import Simulator
from repro.testbed.scenarios import ConnectivityTarget
from repro.transport.packets import Direction, Protocol

HEARTBEAT = 2.0
EVENT_CHECK_DELAY = 0.02


def _app_target(profile: AppProfile) -> ConnectivityTarget:
    """The flows one app's exchanges need, as an oracle target."""
    if profile.protocol == "udp":
        return ConnectivityTarget(needs_tcp=False, needs_udp=True,
                                  needs_dns=False, port=profile.port)
    return ConnectivityTarget(needs_tcp=True, needs_udp=False,
                              needs_dns=profile.protocol == "web",
                              port=profile.port)


class ConnectivityOracle:
    """Pure connectivity check for one device."""

    def __init__(self, core: CoreNetwork, device: Device) -> None:
        # Bound once: the meter consults the oracle on every check, and
        # a harness UE's core is a per-UE facade.
        self.upf = core.upf
        self.device = device

    def config_blocked(self, target: ConnectivityTarget) -> bool:
        """Does configuration (not an injected failure) drop one of the
        target's flows, in either direction?"""
        upf = self.upf
        supi = self.device.supi
        flows = []
        if target.needs_tcp:
            flows.append((Protocol.TCP, target.port))
        if target.needs_udp:
            flows.append((Protocol.UDP, target.port))
        if target.needs_dns:
            flows.append((Protocol.DNS, 53))
        for protocol, port in flows:
            for direction in (Direction.UPLINK, Direction.DOWNLINK):
                if upf.config_blocks(supi, protocol, port, direction):
                    return True
        return False

    def ok(self, target: ConnectivityTarget) -> bool:
        modem = self.device.modem
        if not modem.registered:
            return False
        session = modem.sessions.get(1)
        if session is None or not session.active:
            return False
        upf = self.upf
        supi = self.device.supi
        ctx = upf.sessions.get(supi, {}).get(1)
        if ctx is None or ctx.ip_address != session.ip_address:
            return False
        if target.needs_tcp:
            if upf.would_block(supi, Protocol.TCP, target.port, Direction.UPLINK):
                return False
            if upf.would_block(supi, Protocol.TCP, target.port, Direction.DOWNLINK):
                return False
        if target.needs_udp:
            if upf.would_block(supi, Protocol.UDP, target.port, Direction.UPLINK):
                return False
            if upf.would_block(supi, Protocol.UDP, target.port, Direction.DOWNLINK):
                return False
        if target.needs_dns:
            if upf.would_block(supi, Protocol.DNS, 53, Direction.UPLINK):
                return False
            if not upf.dns_healthy(ctx):
                return False
            # The device must actually be pointed at the healthy server.
            if session.dns_server != ctx.dns_server:
                return False
        return True


@dataclass
class Measurement:
    """One disruption measurement outcome."""

    onset: float
    recovered_at: float | None = None
    meta: dict = field(default_factory=dict)

    @property
    def recovered(self) -> bool:
        return self.recovered_at is not None

    def duration(self, horizon_end: float | None = None) -> float:
        """Disruption duration; censored at the horizon if unrecovered."""
        if self.recovered_at is not None:
            return self.recovered_at - self.onset
        if horizon_end is None:
            raise ValueError("unrecovered measurement needs a horizon")
        return horizon_end - self.onset


class DisruptionMeter:
    """Tracks one disruption from onset to verified recovery."""

    def __init__(
        self,
        sim: Simulator,
        core: CoreNetwork,
        device: Device,
        target: ConnectivityTarget,
        deployment=None,
    ) -> None:
        self.sim = sim
        self.core = core
        self.device = device
        self.target = target
        self.deployment = deployment
        self.oracle = ConnectivityOracle(core, device)
        self.measurement: Measurement | None = None
        self._armed = False
        #: After recovery, the run may only stop once the clock is past
        #: this: the recovery instant or the latest exchange deadline
        #: armed by then, whichever is later.
        self._settle_after = 0.0
        #: The same bound for the last registration, session or
        #: failure-clear event on this device (None: none since the
        #: meter was built).
        self._changed_after: float | None = None
        # The censored branch of settled() reads these on every event of
        # an open outage: resolved once.
        self._upf = self.oracle.upf
        self._policies = self._upf.config_store.user_policies
        # Android's validation probe: resolve (usually from its cache),
        # then connect. A blocked resolver alone does not fail a probe
        # with a warm cache, so only its TCP leg makes a stall permanent.
        self._probe_target = ConnectivityTarget(port=device.prober.port)
        self._probe_tcp = ConnectivityTarget(needs_dns=False, port=device.prober.port)
        # Event wiring (idempotent per meter instance). Clears are
        # filtered to this device's SUPI, so on a core shared by several
        # devices another subscriber's clear does not wake this meter
        # (a harness run sees no difference: every failure there is
        # unscoped or aimed at its one device).
        device.modem.on_registered.append(self._on_event)
        device.modem.on_session_up.append(lambda psi, s: self._on_event())
        device.modem.on_session_modified.append(lambda psi, s: self._on_event())
        core.engine.on_clear_for(device.supi, lambda failure: self._on_event())

    def start(self) -> Measurement:
        """Declare failure onset now."""
        self.measurement = Measurement(onset=self.sim.now)
        self._armed = True
        self._schedule_check(EVENT_CHECK_DELAY)
        self._heartbeat()
        return self.measurement

    def _heartbeat(self) -> None:
        """Check now, then re-arm on the next grid point worth a check.

        The grid is the onset plus repeated ``+ HEARTBEAT`` additions.
        Model state only changes inside event callbacks, so every grid
        point before the next pending event would re-check the state
        this check just saw and fail again. The re-arm skips them: it
        lands on the first grid point at or after that event, reached
        by the same float additions, so its time is bit-identical to
        the eager chain's. Nothing fires in between, so the entry sorts
        as the eager chain's would there: after every event already
        queued, before anything scheduled later. (Exact as long as
        nothing is scheduled from outside a callback while the meter is
        armed; the harness launches the meter last, then runs once.)
        """
        if not self._armed:
            return
        self._check()
        if not self._armed:
            return
        sim = self.sim
        at = sim.now + HEARTBEAT
        upcoming = sim.next_event_time()
        if upcoming is not None:
            while at < upcoming:
                at += HEARTBEAT
        sim.schedule_at(at, self._heartbeat, label="meter:heartbeat",
                        maintenance=True)

    def _exchange_deadline(self) -> float:
        """Latest timeout deadline any of the device's transport clients
        has armed: every exchange launched up to now resolves by then."""
        device = self.device
        return max(device.udp.deadline, device.tcp.deadline,
                   device.dns.deadline)

    def _on_event(self) -> None:
        self._changed_after = max(self._exchange_deadline(), self.sim.now)
        if self._config_blocks():
            # The censored branch of settled() turns true at the first
            # event past this bound. Keep every app eager until then, so
            # that event is a real one, as in the eager run.
            self.device.hold_parks(self._changed_after)
        if self._armed:
            self._schedule_check(EVENT_CHECK_DELAY)

    def _schedule_check(self, delay: float) -> None:
        self.sim.schedule(delay, self._check, label="meter:check")

    def _check(self) -> None:
        if not self._armed or self.measurement is None:
            return
        if self.oracle.ok(self.target):
            now = self.sim.now
            self.measurement.recovered_at = now
            self._settle_after = max(self._exchange_deadline(), now)
            self._armed = False

    def disarm(self) -> None:
        """Stop measuring (the run's end): pending heartbeats and checks
        become no-ops."""
        self._armed = False

    # ------------------------------------------------------------------
    # Quiescence predicate
    # ------------------------------------------------------------------
    def settled(self) -> bool:
        """True when stopping the run now is output-invariant.

        This is the ``quiesce_when`` predicate for
        :meth:`Simulator.run_quiescent`: together with the kernel's
        "only maintenance events pending" condition it guarantees the
        elided horizon tail is pure steady-state churn — no app
        mid-failure-episode, no NAS procedure or legacy retry in flight,
        no Android detector primed to trip, and no SEED component
        (applet decision, escort sequence, downlink fragment, OTA flush)
        with pending work. A recovered measurement needs the clock past
        every exchange deadline armed up to recovery and the rest of the
        device quiet, every app and Android's probe on a path that
        passes; an open one is
        handled by :meth:`_censored_settled`. Every check reads state
        that the corresponding subsystem exposes for exactly this
        purpose; the checks are ordered cheapest-first because the
        kernel calls this once per event while the heap is
        maintenance-only.
        """
        measurement = self.measurement
        if measurement is None:
            return False
        if measurement.recovered_at is None:
            return self._censored_settled()
        # Every exchange launched up to recovery has resolved and left
        # its trace in the state read below.
        if self.sim.now <= self._settle_after:
            return False
        device = self.device
        if not device.modem.procedures_idle():
            return False
        for app in device.apps.values():
            if not app.quiet():
                return False
        if not device.android.detectors_quiet():
            return False
        oracle = self.oracle
        if not oracle.ok(self.target):
            return False
        if not self._seed_idle():
            return False
        # Every later exchange, an app's or Android's probe, runs on a
        # path that passes: the look-ahead of detectors_quiet() and the
        # apps' quiet() rest on it.
        for app in device.apps.values():
            if not oracle.ok(_app_target(app.profile)):
                return False
        return oracle.ok(self._probe_target)

    def _censored_settled(self) -> bool:
        """The open-measurement branch of :meth:`settled`.

        A measurement can only close once its target's flows pass. When
        configuration blocks one of them, only the SEED plugin's policy
        fix can lift it, and that fix is reachable only through a report
        pipeline, which is substantive work the kernel never elides. So
        the run may stop once no maintenance churn can start such a
        pipeline or change any other record: every app whose flow
        configuration blocks has an open disruption and no report left
        to send, every other app is quiet on a working flow, and Android
        either holds a stall that can never clear (its probe is blocked
        by configuration; no rung pending) or has quiet detectors on a
        working probe path with no blocked TCP app.
        """
        device = self.device
        # O(1) gate: only a config-level block can censor a run for good.
        # The kernel calls this on every event of any open outage.
        if not self._config_blocks():
            return False
        # Every exchange launched up to the last connectivity change
        # (session recycle, reattach, resolver switch) has resolved.
        changed_after = self._changed_after
        if changed_after is not None and self.sim.now <= changed_after:
            return False
        oracle = self.oracle
        if not oracle.config_blocked(self.target):
            return False
        if not device.modem.procedures_idle():
            return False
        if not self._seed_idle():
            return False
        tcp_blocked = False
        for app in device.apps.values():
            target = _app_target(app.profile)
            if oracle.config_blocked(target):
                if not app.reported_open():
                    return False
                tcp_blocked = tcp_blocked or target.needs_tcp
            elif not (app.quiet() and oracle.ok(target)):
                return False
        android = device.android
        if oracle.config_blocked(self._probe_tcp):
            return android.stall_spent()
        # A blocked TCP app keeps feeding failed attempts to the TCP
        # detector, which the look-ahead of detectors_quiet() assumes
        # never happens.
        return (not tcp_blocked and android.detectors_quiet()
                and oracle.ok(self._probe_target))

    def _config_blocks(self) -> bool:
        """Does any rule or this device's policy block something?"""
        policy = self._policies.get(self.device.supi)
        return (policy is not None and bool(policy.blocked)) or bool(self._upf.rules)

    def _seed_idle(self) -> bool:
        """No SEED component on this device has work pending."""
        deployment = self.deployment
        if deployment is None:
            return True
        device = self.device
        if device.card.proactive_queue:
            return False
        applet = deployment.applets.get(device.supi)
        if applet is not None and applet.busy:
            return False
        carrier_app = deployment.carrier_apps.get(device.supi)
        if carrier_app is not None and not carrier_app.idle:
            return False
        return deployment.plugin.downlinks_idle(device.supi)
