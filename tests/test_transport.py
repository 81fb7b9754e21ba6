"""Transport-layer tests against a scripted stub user plane."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.simkernel import Simulator
from repro.transport import (
    ConnectivityProber,
    Direction,
    DnsClient,
    Packet,
    Protocol,
    TcpClient,
    UdpClient,
    Verdict,
)
from repro.transport.dns import DnsResult
from repro.transport.probes import ProbeResult
from repro.transport.tcp import TcpStats
from repro.transport.udp import UdpResult


class StubPlane:
    """Scripted user plane: per-protocol behaviour, optional delays."""

    def __init__(self, sim, behaviour=None, delay=0.02):
        self.sim = sim
        self.behaviour = behaviour or {}
        self.delay = delay
        self.submitted = []

    def submit(self, packet, on_response=None):
        self.submitted.append(packet)
        action = self.behaviour.get(packet.protocol, "reply")
        if action == "no_route":
            return Verdict.NO_ROUTE
        if action == "drop":
            return Verdict.DROPPED
        if action == "silent":
            return Verdict.DELIVERED
        if on_response is not None:
            if packet.protocol is Protocol.DNS:
                reply = packet.reply(address="203.0.113.10", rcode="NOERROR")
            elif packet.protocol is Protocol.TCP and packet.payload.get("flags") == "SYN":
                reply = packet.reply(flags="SYN-ACK")
            else:
                reply = packet.reply(ok=True)
            self.sim.schedule(self.delay, on_response, reply)
        return Verdict.DELIVERED


class TestPacket:
    def test_reply_reverses_direction_and_addresses(self):
        packet = Packet(Protocol.TCP, Direction.UPLINK, src_ip="a", dst_ip="b",
                        src_port=1, dst_port=2)
        reply = packet.reply()
        assert reply.direction is Direction.DOWNLINK
        assert (reply.src_ip, reply.dst_ip) == ("b", "a")
        assert (reply.src_port, reply.dst_port) == (2, 1)

    def test_packet_ids_unique(self):
        a = Packet(Protocol.UDP, Direction.UPLINK)
        b = Packet(Protocol.UDP, Direction.UPLINK)
        assert a.packet_id != b.packet_id


class TestDnsClient:
    def make(self, behaviour=None):
        sim = Simulator()
        plane = StubPlane(sim, behaviour)
        dns = DnsClient(sim, plane)
        dns.configure("10.10.0.53")
        return sim, plane, dns

    def test_resolution_success(self):
        sim, _, dns = self.make()
        outcomes = []
        dns.query("example.com", outcomes.append)
        sim.run_until_idle()
        assert outcomes[0].result is DnsResult.RESOLVED
        assert outcomes[0].address == "203.0.113.10"

    def test_timeout_when_server_silent(self):
        sim, _, dns = self.make({Protocol.DNS: "silent"})
        outcomes = []
        dns.query("example.com", outcomes.append, timeout=2.0)
        sim.run_until_idle()
        assert outcomes[0].result is DnsResult.TIMEOUT
        assert outcomes[0].latency == 2.0

    def test_no_route(self):
        sim, _, dns = self.make({Protocol.DNS: "no_route"})
        outcomes = []
        dns.query("example.com", outcomes.append)
        sim.run_until_idle()
        assert outcomes[0].result is DnsResult.NO_ROUTE

    def test_unconfigured_server_servfail(self):
        sim = Simulator()
        dns = DnsClient(sim, StubPlane(sim))
        outcomes = []
        dns.query("example.com", outcomes.append)
        sim.run_until_idle()
        assert outcomes[0].result is DnsResult.SERVFAIL

    def test_consecutive_timeouts_counts_trailing_run(self):
        sim, plane, dns = self.make({Protocol.DNS: "silent"})
        for _ in range(3):
            dns.query("x", lambda outcome: None, timeout=1.0)
        sim.run_until_idle()
        assert dns.consecutive_timeouts() == 3
        plane.behaviour[Protocol.DNS] = "reply"
        dns.query("x", lambda outcome: None)
        sim.run_until_idle()
        assert dns.consecutive_timeouts() == 0

    def test_consecutive_timeouts_window_expiry(self):
        sim, _, dns = self.make({Protocol.DNS: "silent"})
        dns.query("x", lambda outcome: None, timeout=1.0)
        sim.run_until_idle()
        sim.run(until=sim.now + 3600.0)
        assert dns.consecutive_timeouts(window=1800.0) == 0

    @staticmethod
    def scan_consecutive_timeouts(history, now, window):
        """Reference: the original backwards scan over the history."""
        cutoff = now - window
        run = 0
        for outcome in reversed(history):
            if outcome.time < cutoff:
                break
            if outcome.result is not DnsResult.TIMEOUT:
                break
            run += 1
        return run

    @given(
        queries=st.lists(st.tuples(
            st.floats(min_value=0.0, max_value=20.0),
            st.sampled_from(["silent", "reply", "no_route"]),
            st.floats(min_value=0.1, max_value=10.0),
        ), max_size=30),
        probes=st.lists(st.tuples(
            st.floats(min_value=0.0, max_value=100.0),
            st.floats(min_value=0.0, max_value=200.0),
        ), min_size=1, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_consecutive_timeouts_matches_history_scan(self, queries, probes):
        sim, plane, dns = self.make()
        for gap, behaviour, timeout in queries:
            sim.run(until=sim.now + gap)
            plane.behaviour[Protocol.DNS] = behaviour
            dns.query("x", lambda outcome: None, timeout=timeout)
        sim.run_until_idle()
        for advance, window in probes:
            sim.run(until=sim.now + advance)
            assert dns.consecutive_timeouts(window) == \
                self.scan_consecutive_timeouts(dns.history, sim.now, window)


class TestTcpClient:
    def make(self, behaviour=None):
        sim = Simulator()
        plane = StubPlane(sim, behaviour)
        return sim, plane, TcpClient(sim, plane)

    def test_connect_success(self):
        sim, _, tcp = self.make()
        conns = []
        tcp.connect("203.0.113.10", 443, conns.append)
        sim.run_until_idle()
        assert conns[0].established

    def test_connect_timeout(self):
        sim, _, tcp = self.make({Protocol.TCP: "drop"})
        conns = []
        tcp.connect("203.0.113.10", 443, conns.append, timeout=3.0)
        sim.run_until_idle()
        assert not conns[0].established
        assert tcp.stats.failure_rate(sim.now) == 1.0

    def test_request_on_established(self):
        sim, _, tcp = self.make()
        results = []
        tcp.connect("x", 443, lambda conn: tcp.request(conn, results.append))
        sim.run_until_idle()
        assert results == [True]

    def test_request_on_closed_fails_fast(self):
        sim, _, tcp = self.make()
        conns = []
        tcp.connect("x", 443, conns.append)
        sim.run_until_idle()
        tcp.close_all()
        results = []
        tcp.request(conns[0], results.append)
        sim.run_until_idle()
        assert results == [False]

    def test_close_all_counts(self):
        sim, _, tcp = self.make()
        for _ in range(3):
            tcp.connect("x", 443, lambda conn: None)
        sim.run_until_idle()
        assert tcp.close_all() == 3

    def test_fresh_clients_send_identical_source_ports(self):
        """Connection ids count per client, not per process, and only
        established handshakes are kept."""
        ports = []
        for _ in range(2):
            sim, plane, tcp = self.make()
            tcp.connect("x", 443, lambda conn: None)
            plane.behaviour[Protocol.TCP] = "drop"
            tcp.connect("x", 443, lambda conn: None, timeout=1.0)
            plane.behaviour[Protocol.TCP] = "reply"
            tcp.connect("x", 443, lambda conn: None)
            sim.run_until_idle()
            ports.append([packet.src_port for packet in plane.submitted])
            assert [conn.conn_id for conn in tcp.connections] == [1, 3]
            assert tcp.close_all() == 2
            assert tcp.close_all() == 0
        assert ports[0] == ports[1] == [40001, 40002, 40003]


class TestTcpStats:
    def test_failure_rate_windowed(self):
        stats = TcpStats()
        stats.note_attempt(0.0, True)
        stats.note_attempt(50.0, False)
        stats.note_attempt(55.0, False)
        assert stats.failure_rate(60.0) == pytest.approx(2 / 3)
        # At t=70 the early success ages out of the 60 s window.
        assert stats.failure_rate(70.0) == 1.0

    def test_outbound_without_inbound(self):
        stats = TcpStats()
        for i in range(12):
            stats.note_outbound(float(i))
        assert stats.outbound_without_inbound(12.0)
        stats.note_inbound(11.5)
        assert not stats.outbound_without_inbound(12.0)

    def test_prune_drops_old_entries(self):
        stats = TcpStats()
        stats.note_attempt(0.0, True)
        stats.note_outbound(0.0)
        stats.prune(500.0)
        assert not stats.attempts and not stats.outbound


class TestUdpClient:
    def test_exchange_reply(self):
        sim = Simulator()
        udp = UdpClient(sim, StubPlane(sim))
        outcomes = []
        udp.exchange("x", 9000, outcomes.append)
        sim.run_until_idle()
        assert outcomes[0].result is UdpResult.REPLIED

    def test_exchange_timeout(self):
        sim = Simulator()
        udp = UdpClient(sim, StubPlane(sim, {Protocol.UDP: "drop"}))
        outcomes = []
        udp.exchange("x", 9000, outcomes.append, timeout=1.0)
        sim.run_until_idle()
        assert outcomes[0].result is UdpResult.TIMEOUT


class TestExchangeDeadline:
    """Each client keeps the latest timeout deadline it armed: once the
    clock is past it, every exchange launched so far has resolved."""

    def test_latest_armed_deadline_wins(self):
        sim = Simulator()
        plane = StubPlane(sim)
        udp, tcp = UdpClient(sim, plane), TcpClient(sim, plane)
        dns = DnsClient(sim, plane)
        dns.configure("198.51.100.53")
        assert (udp.deadline, tcp.deadline, dns.deadline) == (0.0, 0.0, 0.0)
        udp.exchange("x", 9000, lambda outcome: None, timeout=3.0)
        udp.exchange("x", 9000, lambda outcome: None, timeout=0.25)
        tcp.connect("x", 443, lambda conn: None, timeout=6.0)
        dns.query("example.net", lambda outcome: None, timeout=5.0)
        assert (udp.deadline, tcp.deadline, dns.deadline) == (3.0, 6.0, 5.0)
        sim.run_until_idle()  # replies cancel the timers; deadlines stay
        assert (udp.deadline, tcp.deadline, dns.deadline) == (3.0, 6.0, 5.0)

    def test_request_timeout_extends_the_tcp_deadline(self):
        sim = Simulator()
        tcp = TcpClient(sim, StubPlane(sim))
        conns = []
        tcp.connect("x", 443, conns.append, timeout=1.0)
        sim.run(until=0.5)
        tcp.request(conns[0], lambda ok: None, timeout=10.0)
        assert tcp.deadline == sim.now + 10.0

    def test_resolution_never_outlives_the_deadline(self):
        sim = Simulator()
        udp = UdpClient(sim, StubPlane(sim, {Protocol.UDP: "silent"}))
        outcomes = []
        udp.exchange("x", 9000, outcomes.append, timeout=1.5)
        sim.run(until=udp.deadline)
        assert outcomes and outcomes[0].time <= udp.deadline


class TestProber:
    def make(self, behaviour=None):
        sim = Simulator()
        plane = StubPlane(sim, behaviour)
        dns = DnsClient(sim, plane)
        dns.configure("10.10.0.53")
        tcp = TcpClient(sim, plane)
        return sim, ConnectivityProber(sim, dns, tcp)

    def test_success_path(self):
        sim, prober = self.make()
        outcomes = []
        prober.probe(outcomes.append)
        sim.run_until_idle()
        assert outcomes[0].result is ProbeResult.SUCCESS
        assert prober.last_ok()

    def test_dns_failure(self):
        sim, prober = self.make({Protocol.DNS: "silent"})
        outcomes = []
        prober.probe(outcomes.append)
        sim.run_until_idle()
        assert outcomes[0].result is ProbeResult.DNS_FAILURE

    def test_connect_failure_uses_cached_dns(self):
        sim, prober = self.make()
        outcomes = []
        prober.probe(outcomes.append)
        sim.run_until_idle()
        # Now break TCP only: probe uses the cached address and reports
        # a connect failure, not a DNS failure.
        prober.tcp.user_plane.behaviour[Protocol.TCP] = "drop"
        prober.probe(outcomes.append)
        sim.run_until_idle()
        assert outcomes[1].result is ProbeResult.CONNECT_FAILURE

    def test_dns_outage_masked_by_cache(self):
        sim, prober = self.make()
        outcomes = []
        prober.probe(outcomes.append)
        sim.run_until_idle()
        prober.dns.user_plane.behaviour[Protocol.DNS] = "silent"
        prober.probe(outcomes.append)
        sim.run_until_idle()
        assert outcomes[1].result is ProbeResult.SUCCESS
