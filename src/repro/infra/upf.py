"""User-plane function: packet forwarding, blocking rules, servers.

The UPF is the ``user_plane`` the transport clients submit packets to.
It enforces three kinds of packet fate, matching the paper's data
delivery failure classes (§3.1): no active PDU session (NO_ROUTE),
policy/misconfiguration drops for TCP/UDP (injected via the failure
engine and mirrored in user policies), and DNS outages (the carrier
LDNS stops answering). Delivered uplink packets reach a small modeled
server farm (DNS resolver, TCP/UDP echo services) whose replies
traverse the downlink rules after an RTT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.infra.config_store import ConfigStore
from repro.infra.failures import FailureEngine, FailureMode
from repro.simkernel.simulator import Simulator
from repro.transport.packets import Direction, Packet, Protocol, Verdict
from repro.transport.parking import WakeList


@dataclass
class BlockRule:
    """An explicit UPF drop rule (outside the failure engine)."""

    protocol: Protocol
    direction: str = "both"  # "uplink" / "downlink" / "both"
    port: int | None = None
    supi: str = ""

    def matches(self, packet: Packet, supi: str) -> bool:
        if self.supi and self.supi != supi:
            return False
        if packet.protocol is not self.protocol:
            return False
        if self.direction != "both" and packet.direction.value != self.direction:
            return False
        if self.port is not None and packet.dst_port != self.port and packet.src_port != self.port:
            return False
        return True


@dataclass
class SessionContext:
    """One active PDU session's user-plane state."""

    supi: str
    pdu_session_id: int
    ip_address: str
    dns_server: str
    dnn: str
    tft: tuple[str, ...] = ()
    established_at: float = 0.0


class Upf:
    """Forwarding plane + modeled remote services."""

    ONE_WAY_LATENCY_MEAN = 0.018
    ONE_WAY_LATENCY_STDEV = 0.006

    def __init__(
        self,
        sim: Simulator,
        engine: FailureEngine,
        config_store: ConfigStore,
    ) -> None:
        self.sim = sim
        self.engine = engine
        self.config_store = config_store
        self.sessions: dict[str, dict[int, SessionContext]] = {}
        self.rules: list[BlockRule] = []
        self.default_address = "203.0.113.10"
        # Positive session_for_ip results, invalidated on any session
        # mutation. Packets outnumber session changes by orders of
        # magnitude, so the linear scan runs once per (ip, epoch).
        self._ip_cache: dict[str, SessionContext] = {}
        #: Wakes of parked uplink cadences per SUPI (:meth:`park`), run
        #: on any change that can alter those packets' fate.
        self._wakes = WakeList()
        # The UPF observes clears before the meter (built later), so a
        # woken cadence is accounted before the meter reads it.
        engine.on_clear.append(self._on_clear)

    # ------------------------------------------------------------------
    # Session management (driven by the SMF)
    # ------------------------------------------------------------------
    def add_session(self, ctx: SessionContext) -> None:
        self.sessions.setdefault(ctx.supi, {})[ctx.pdu_session_id] = ctx
        self._ip_cache.clear()
        self._wakes.run(ctx.supi)

    def remove_session(self, supi: str, pdu_session_id: int) -> SessionContext | None:
        self._ip_cache.clear()
        removed = self.sessions.get(supi, {}).pop(pdu_session_id, None)
        if removed is not None:
            self._wakes.run(supi)
        return removed

    def session_modified(self, supi: str) -> None:
        """A session of ``supi`` changed in place (its resolver)."""
        self._wakes.run(supi)

    def session_for_ip(self, ip: str) -> SessionContext | None:
        ctx = self._ip_cache.get(ip)
        if ctx is not None:
            return ctx
        for per_supi in self.sessions.values():
            for ctx in per_supi.values():
                if ctx.ip_address == ip:
                    self._ip_cache[ip] = ctx
                    return ctx
        return None

    def active_sessions(self, supi: str) -> list[SessionContext]:
        return list(self.sessions.get(supi, {}).values())

    # ------------------------------------------------------------------
    # Packet path
    # ------------------------------------------------------------------
    def submit(self, packet: Packet, on_response: Callable[[Packet], None] | None = None) -> Verdict:
        """Carry an uplink packet; schedule any service reply."""
        ctx = self.session_for_ip(packet.src_ip)
        if ctx is None:
            return Verdict.NO_ROUTE
        if self._blocked(packet, ctx.supi):
            return Verdict.DROPPED
        if on_response is not None:
            reply = self._service_reply(packet, ctx)
            if reply is not None:
                gauss = self.sim.rng.stream("upf.latency").gauss(
                    self.ONE_WAY_LATENCY_MEAN, self.ONE_WAY_LATENCY_STDEV
                )
                rtt = 2 * (gauss if gauss > 0.002 else 0.002)
                self.sim.schedule_fire(rtt, self._deliver_downlink, reply, ctx, on_response,
                                       label="upf:reply")
        return Verdict.DELIVERED

    def _deliver_downlink(self, reply: Packet, ctx: SessionContext, on_response) -> None:
        if self._blocked(reply, ctx.supi):
            return
        # Session may have been torn down in flight.
        per_supi = self.sessions.get(ctx.supi)
        if per_supi is None or ctx.pdu_session_id not in per_supi:
            return
        on_response(reply)

    # ------------------------------------------------------------------
    # Parked uplink cadences (see ``repro.transport.parking``)
    # ------------------------------------------------------------------
    def park(self, src_ip: str, protocol: Protocol, wake: Callable[[], None],
             dst_ip: str = "") -> bool:
        """Promise ``wake`` on any change that could let an uplink
        ``protocol`` packet from ``src_ip`` (to ``dst_ip``) be answered,
        if none can be now.

        True when an uncleared BLOCK failure matches that flow, or, for
        a DNS query to the session's resolver, an uncleared DNS_OUTAGE
        covers that resolver (the query is delivered and never
        answered). Until the failure clears, or a session of the
        subscriber comes, goes or changes its resolver, every such
        packet stays unanswered whatever else changes: rules and
        policies only add drops, and other failures do not lift this
        one. Neither fate writes UPF state or draws a latency sample. A
        clear of any failure that applies to the subscriber wakes it.
        """
        ctx = self.session_for_ip(src_ip)
        if ctx is None:
            return False
        supi = ctx.supi
        value = protocol.value
        for failure in self.engine.active:
            spec = failure.spec
            if spec.supi not in ("", supi):
                continue
            if spec.mode is FailureMode.BLOCK:
                holds = (spec.block_protocol in ("", value)
                         and spec.block_direction in ("both", "uplink"))
            else:
                holds = (spec.mode is FailureMode.DNS_OUTAGE
                         and protocol is Protocol.DNS and dst_ip == ctx.dns_server
                         and spec.dns_server in ("", ctx.dns_server))
            if holds:
                self._wakes.add(supi, wake)
                return True
        return False

    def _on_clear(self, failure) -> None:
        supi = failure.spec.supi
        if supi:
            self._wakes.run(supi)
        else:
            self._wakes.run_all()

    # ------------------------------------------------------------------
    # Pure oracles (no counters; used by the measurement harness)
    # ------------------------------------------------------------------
    def config_blocks(self, supi: str, protocol: Protocol, port: int,
                      direction: Direction = Direction.UPLINK) -> bool:
        """Would configuration alone drop a packet of this shape?

        Configuration is a :class:`BlockRule` or an entry of the
        subscriber's user policy, as opposed to an injected failure.
        Nothing lifts a rule, and only ``ConfigStore.clear_block`` (the
        SEED plugin's policy fix) lifts a policy entry.
        """
        if self.rules:
            probe = Packet(protocol=protocol, direction=direction,
                           src_port=port, dst_port=port)
            for rule in self.rules:
                if rule.matches(probe, supi):
                    return True
        policy = self.config_store.user_policies.get(supi)
        return policy is not None and policy.blocks(protocol.value, direction.value, port)

    def would_block(self, supi: str, protocol: Protocol, port: int,
                    direction: Direction = Direction.UPLINK) -> bool:
        """Would a packet of this shape be dropped right now?"""
        if self.config_blocks(supi, protocol, port, direction):
            return True
        for failure in self.engine.blocking_rules(supi):
            spec = failure.spec
            if spec.mode is FailureMode.DNS_OUTAGE:
                continue
            if spec.block_protocol and spec.block_protocol != protocol.value:
                continue
            if spec.block_direction not in ("both", direction.value):
                continue
            return True
        return False

    def dns_healthy(self, ctx: SessionContext) -> bool:
        """Is the session's configured resolver answering right now?"""
        for failure in self.engine.blocking_rules(ctx.supi):
            if failure.spec.mode is not FailureMode.DNS_OUTAGE:
                continue
            if failure.spec.dns_server and failure.spec.dns_server != ctx.dns_server:
                continue
            return False
        return True

    def _blocked(self, packet: Packet, supi: str) -> bool:
        # Hot path: one call per packet per direction. Enum .value reads
        # are hoisted and the engine's rule list is filtered inline
        # instead of materialising a fresh list per packet — DNS_OUTAGE
        # failures never block the wire, so only BLOCK mode matters here.
        if self.rules:
            for rule in self.rules:
                if rule.matches(packet, supi):
                    return True
        uplink = packet.direction is Direction.UPLINK
        # Read-only policy probe: an absent policy blocks nothing, so
        # the auto-vivifying policy_for() is not needed on this path.
        policy = self.config_store.user_policies.get(supi)
        if policy is not None and policy.blocked:
            port = packet.dst_port if uplink else packet.src_port
            direction_value = "uplink" if uplink else "downlink"
            if policy.blocks(packet.protocol.value, direction_value, port):
                return True
        for failure in self.engine.active:
            spec = failure.spec
            if spec.mode is not FailureMode.BLOCK or spec.supi not in ("", supi):
                continue
            if spec.block_protocol and spec.block_protocol != packet.protocol.value:
                continue
            if spec.block_direction not in ("both", "uplink" if uplink else "downlink"):
                continue
            return True
        return False

    # ------------------------------------------------------------------
    # Modeled services
    # ------------------------------------------------------------------
    def _service_reply(self, packet: Packet, ctx: SessionContext) -> Packet | None:
        if packet.protocol is Protocol.DNS:
            if packet.dst_ip != ctx.dns_server:
                return None  # wrong resolver: nothing is listening there
            if self._dns_down(ctx):
                return None
            qname = packet.payload.get("qname", "")
            return packet.reply(qname=qname, address=self.default_address,
                                rcode="NOERROR")
        if packet.protocol is Protocol.TCP:
            flags = packet.payload.get("flags", "")
            if flags == "SYN":
                return packet.reply(flags="SYN-ACK")
            return packet.reply(flags="ACK-DATA")
        if packet.protocol is Protocol.UDP:
            return packet.reply(echo=True)
        return None

    def _dns_down(self, ctx: SessionContext) -> bool:
        for failure in self.engine.blocking_rules(ctx.supi):
            if failure.spec.mode is not FailureMode.DNS_OUTAGE:
                continue
            if failure.spec.dns_server and failure.spec.dns_server != ctx.dns_server:
                continue  # outage is on a different resolver
            return True
        return False
