"""Simplified TCP connection model.

Enough TCP to produce the failure signals the paper's detectors use:
a SYN/SYN-ACK handshake (connection success/failure), per-connection
request/response exchanges, and windowed statistics matching Android's
detector inputs — "TCP failure rate exceeds 80%, or over ten outbound
packets but no inbound packets during the last minute" (§2 fn. 4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.simkernel.simulator import Simulator
from repro.transport.packets import Direction, Packet, Protocol, Verdict

SYN_TIMEOUT = 6.0
REQUEST_TIMEOUT = 10.0

_conn_ids = itertools.count(1)


@dataclass
class TcpStats:
    """Sliding-window accounting for Android's TCP health check."""

    attempts: list[tuple[float, bool]] = field(default_factory=list)  # (time, success)
    outbound: list[float] = field(default_factory=list)
    inbound: list[float] = field(default_factory=list)

    def note_attempt(self, time: float, success: bool) -> None:
        self.attempts.append((time, success))

    def note_outbound(self, time: float) -> None:
        self.outbound.append(time)

    def note_inbound(self, time: float) -> None:
        self.inbound.append(time)

    def failure_rate(self, now: float, window: float = 60.0) -> float:
        recent = [ok for (t, ok) in self.attempts if t >= now - window]
        if not recent:
            return 0.0
        return 1.0 - (sum(recent) / len(recent))

    def outbound_without_inbound(self, now: float, window: float = 60.0) -> bool:
        out = sum(1 for t in self.outbound if t >= now - window)
        inb = sum(1 for t in self.inbound if t >= now - window)
        return out > 10 and inb == 0

    def prune(self, now: float, keep: float = 120.0) -> None:
        cutoff = now - keep
        self.attempts = [(t, ok) for (t, ok) in self.attempts if t >= cutoff]
        self.outbound = [t for t in self.outbound if t >= cutoff]
        self.inbound = [t for t in self.inbound if t >= cutoff]


@dataclass
class TcpConnection:
    """An established (or failed) connection handle."""

    conn_id: int
    dst_ip: str
    dst_port: int
    established: bool = False
    closed: bool = False
    reset_count: int = 0


class TcpClient:
    """Opens TCP connections and performs request/response exchanges."""

    def __init__(self, sim: Simulator, user_plane, device_ip: str = "10.0.0.2") -> None:
        self.sim = sim
        self.user_plane = user_plane
        self.device_ip = device_ip
        self.stats = TcpStats()
        self.connections: list[TcpConnection] = []
        #: Latest timeout deadline armed so far (0.0: none). Every
        #: handshake or request launched up to now has resolved once the
        #: clock is past it.
        self.deadline = 0.0

    def connect(
        self,
        dst_ip: str,
        dst_port: int,
        callback: Callable[[TcpConnection], None],
        timeout: float = SYN_TIMEOUT,
    ) -> None:
        """Attempt a handshake; callback gets the (maybe failed) handle."""
        conn = TcpConnection(next(_conn_ids), dst_ip, dst_port)
        self.connections.append(conn)
        syn = Packet(
            protocol=Protocol.TCP,
            direction=Direction.UPLINK,
            src_ip=self.device_ip,
            dst_ip=dst_ip,
            src_port=40000 + conn.conn_id % 20000,
            dst_port=dst_port,
            payload={"flags": "SYN"},
        )
        state = {"done": False}
        self.stats.note_outbound(self.sim.now)
        timeout_event = self.sim.schedule(
            timeout, self._on_connect_timeout, conn, state, callback, label="tcp:syn-timeout"
        )
        if timeout_event.time > self.deadline:
            self.deadline = timeout_event.time

        def on_synack(response: Packet) -> None:
            if state["done"]:
                return
            state["done"] = True
            timeout_event.cancel()
            self.stats.note_inbound(self.sim.now)
            conn.established = True
            self.stats.note_attempt(self.sim.now, True)
            callback(conn)

        verdict = self.user_plane.submit(syn, on_synack)
        if verdict is Verdict.NO_ROUTE:
            state["done"] = True
            timeout_event.cancel()
            self.stats.note_attempt(self.sim.now, False)
            self.sim.call_soon(callback, conn, label="tcp:no-route")

    def _on_connect_timeout(self, conn: TcpConnection, state: dict, callback) -> None:
        if state["done"]:
            return
        state["done"] = True
        self.stats.note_attempt(self.sim.now, False)
        callback(conn)

    def request(
        self,
        conn: TcpConnection,
        callback: Callable[[bool], None],
        timeout: float = REQUEST_TIMEOUT,
        size_bytes: int = 400,
    ) -> None:
        """Send data on an established connection; callback(success)."""
        if not conn.established or conn.closed:
            self.sim.call_soon(callback, False, label="tcp:not-established")
            return
        packet = Packet(
            protocol=Protocol.TCP,
            direction=Direction.UPLINK,
            src_ip=self.device_ip,
            dst_ip=conn.dst_ip,
            src_port=40000 + conn.conn_id % 20000,
            dst_port=conn.dst_port,
            size_bytes=size_bytes,
            payload={"flags": "PSH"},
        )
        state = {"done": False}
        self.stats.note_outbound(self.sim.now)
        timeout_event = self.sim.schedule(
            timeout, self._on_request_timeout, state, callback, label="tcp:req-timeout"
        )
        if timeout_event.time > self.deadline:
            self.deadline = timeout_event.time

        def on_reply(response: Packet) -> None:
            if state["done"]:
                return
            state["done"] = True
            timeout_event.cancel()
            self.stats.note_inbound(self.sim.now)
            callback(True)

        verdict = self.user_plane.submit(packet, on_reply)
        if verdict is Verdict.NO_ROUTE:
            state["done"] = True
            timeout_event.cancel()
            self.sim.call_soon(callback, False, label="tcp:no-route")

    def _on_request_timeout(self, state: dict, callback) -> None:
        if state["done"]:
            return
        state["done"] = True
        callback(False)

    def close_all(self) -> int:
        """Tear down every connection (Android's first recovery rung)."""
        closed = 0
        for conn in self.connections:
            if conn.established and not conn.closed:
                conn.closed = True
                closed += 1
        return closed
