"""Simplified TCP connection model.

Enough TCP to produce the failure signals the paper's detectors use:
a SYN/SYN-ACK handshake (connection success/failure), per-connection
request/response exchanges, and windowed statistics matching Android's
detector inputs — "TCP failure rate exceeds 80%, or over ten outbound
packets but no inbound packets during the last minute" (§2 fn. 4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from repro.simkernel.simulator import Simulator
from repro.transport.packets import Direction, Packet, Protocol, Verdict
from repro.transport.parking import Cadence, Parking, TransportClient

SYN_TIMEOUT = 6.0
REQUEST_TIMEOUT = 10.0


class TcpStats:
    """Sliding-window accounting for Android's TCP health check.

    Every read or append first accounts the owning client's parked
    cadences up to now (``parking``). The lists stay assignable.
    """

    def __init__(self, parking: Parking | None = None) -> None:
        self._attempts: list[tuple[float, bool]] = []  # (time, success)
        self._outbound: list[float] = []
        self._inbound: list[float] = []
        self._parking = parking

    def _sync(self) -> None:
        parking = self._parking
        if parking is not None and parking.cadences:
            parking.sync()

    @property
    def attempts(self) -> list[tuple[float, bool]]:
        self._sync()
        return self._attempts

    @attempts.setter
    def attempts(self, value: list[tuple[float, bool]]) -> None:
        self._attempts = value

    @property
    def outbound(self) -> list[float]:
        self._sync()
        return self._outbound

    @outbound.setter
    def outbound(self, value: list[float]) -> None:
        self._outbound = value

    @property
    def inbound(self) -> list[float]:
        self._sync()
        return self._inbound

    @inbound.setter
    def inbound(self, value: list[float]) -> None:
        self._inbound = value

    # The methods below sync once and then read the lists directly.
    def note_attempt(self, time: float, success: bool) -> None:
        parking = self._parking
        if parking is not None and parking.cadences:
            parking.sync()
        self._attempts.append((time, success))

    def note_outbound(self, time: float) -> None:
        parking = self._parking
        if parking is not None and parking.cadences:
            parking.sync()
        self._outbound.append(time)

    def note_inbound(self, time: float) -> None:
        parking = self._parking
        if parking is not None and parking.cadences:
            parking.sync()
        self._inbound.append(time)

    def failure_rate(self, now: float, window: float = 60.0) -> float:
        self._sync()
        recent = [ok for (t, ok) in self._attempts if t >= now - window]
        if not recent:
            return 0.0
        return 1.0 - (sum(recent) / len(recent))

    def outbound_without_inbound(self, now: float, window: float = 60.0) -> bool:
        self._sync()
        out = sum(1 for t in self._outbound if t >= now - window)
        inb = sum(1 for t in self._inbound if t >= now - window)
        return out > 10 and inb == 0

    def prune(self, now: float, keep: float = 120.0) -> None:
        self._sync()
        cutoff = now - keep
        self._attempts = [(t, ok) for (t, ok) in self._attempts if t >= cutoff]
        self._outbound = [t for t in self._outbound if t >= cutoff]
        self._inbound = [t for t in self._inbound if t >= cutoff]


@dataclass
class TcpConnection:
    """A connection handle: established once its handshake completed."""

    conn_id: int
    dst_ip: str
    dst_port: int
    established: bool = False
    closed: bool = False
    reset_count: int = 0


class TcpClient(TransportClient):
    """Opens TCP connections and performs request/response exchanges.

    A connect or request cadence the user plane drops can park here
    (:mod:`repro.transport.parking`): ``stats`` and ``deadline`` catch
    up on every read.
    """

    def __init__(self, sim: Simulator, user_plane, device_ip: str = "10.0.0.2") -> None:
        super().__init__(sim, user_plane, device_ip)
        self.stats = TcpStats(self.parking)
        #: Established connections (only :meth:`close_all` reads them).
        self.connections: list[TcpConnection] = []
        # Per client, so a device's source ports do not depend on what
        # else ran in the process.
        self._conn_ids = itertools.count(1)

    def connect(
        self,
        dst_ip: str,
        dst_port: int,
        callback: Callable[[TcpConnection], None],
        timeout: float = SYN_TIMEOUT,
        park: Cadence | None = None,
    ) -> None:
        """Attempt a handshake; callback gets the (maybe failed) handle.

        ``park``, if given, is the sender's cadence to park when the
        user plane drops the SYN (:meth:`Parking.park`).
        """
        sim = self.sim
        stats = self.stats
        # Accounts the parked connects before now first, so they take
        # their connection ids ahead of this one, as they would eagerly.
        stats.note_outbound(sim.now)
        conn = TcpConnection(next(self._conn_ids), dst_ip, dst_port)
        syn = Packet(
            protocol=Protocol.TCP,
            direction=Direction.UPLINK,
            src_ip=self._device_ip,
            dst_ip=dst_ip,
            src_port=40000 + conn.conn_id % 20000,
            dst_port=dst_port,
            payload={"flags": "SYN"},
        )
        # The timeout event is the handshake's done-flag: its cancel()
        # succeeds once, for whichever of SYN-ACK / no-route / timeout
        # settles it first.
        timeout_event = sim.schedule(
            timeout, self._on_connect_timeout, conn, callback, label="tcp:syn-timeout"
        )
        if timeout_event.time > self._deadline:
            self._deadline = timeout_event.time

        def on_synack(response: Packet) -> None:
            if not timeout_event.cancel():
                return
            now = sim.now
            stats.note_inbound(now)
            conn.established = True
            self.connections.append(conn)
            stats.note_attempt(now, True)
            callback(conn)

        verdict = self.user_plane.submit(syn, on_synack)
        if verdict is Verdict.NO_ROUTE:
            timeout_event.cancel()
            stats.note_attempt(sim.now, False)
            sim.call_soon(callback, conn, label="tcp:no-route")
        elif park is not None and self.parking.park(
                park, self.user_plane, self._device_ip, Protocol.TCP):
            self._bind(park, callback, dst_ip, dst_port)

    def _on_connect_timeout(self, conn: TcpConnection, callback) -> None:
        self.stats.note_attempt(self.sim.now, False)
        callback(conn)

    def request(
        self,
        conn: TcpConnection,
        callback: Callable[[bool], None],
        timeout: float = REQUEST_TIMEOUT,
        size_bytes: int = 400,
        park: Cadence | None = None,
    ) -> None:
        """Send data on an established connection; callback(success).

        ``park`` as for :meth:`connect`.
        """
        sim = self.sim
        if not conn.established or conn.closed:
            sim.call_soon(callback, False, label="tcp:not-established")
            return
        packet = Packet(
            protocol=Protocol.TCP,
            direction=Direction.UPLINK,
            src_ip=self._device_ip,
            dst_ip=conn.dst_ip,
            src_port=40000 + conn.conn_id % 20000,
            dst_port=conn.dst_port,
            size_bytes=size_bytes,
            payload={"flags": "PSH"},
        )
        stats = self.stats
        stats.note_outbound(sim.now)
        timeout_event = sim.schedule(
            timeout, callback, False, label="tcp:req-timeout"
        )
        if timeout_event.time > self._deadline:
            self._deadline = timeout_event.time

        def on_reply(response: Packet) -> None:
            if not timeout_event.cancel():
                return
            stats.note_inbound(sim.now)
            callback(True)

        verdict = self.user_plane.submit(packet, on_reply)
        if verdict is Verdict.NO_ROUTE:
            timeout_event.cancel()
            sim.call_soon(callback, False, label="tcp:no-route")
        elif park is not None and self.parking.park(
                park, self.user_plane, self._device_ip, Protocol.TCP):
            self._bind(park, callback, conn=conn)

    def _bind(self, cadence: Cadence, callback, dst_ip: str = "", dst_port: int = 0,
              conn: TcpConnection | None = None) -> None:
        """Account a parked cadence's connects (or, on ``conn``, its
        requests) as :meth:`connect` and :meth:`request` would."""
        stats = self.stats

        def launch(start: float):
            stats._outbound.append(start)
            return None if conn is not None else next(self._conn_ids)

        def settle(start: float, end: float, _token) -> None:
            stats._attempts.append((end, False))

        def rearm(start: float, end: float, token) -> None:
            if conn is not None:
                self.sim.schedule_at(end, callback, False, label="tcp:req-timeout",
                                     maintenance=True)
            else:
                self.sim.schedule_at(end, self._on_connect_timeout,
                                     TcpConnection(token, dst_ip, dst_port), callback,
                                     label="tcp:syn-timeout", maintenance=True)

        cadence.launch, cadence.rearm = launch, rearm
        cadence.settle = settle if conn is None else None

    def close_all(self) -> int:
        """Tear down every connection (Android's first recovery rung).

        Parked request cadences turn into connects: they wake first.
        """
        closed = 0
        for conn in self.connections:
            if not conn.closed:
                if not closed:
                    self.parking.wake()
                conn.closed = True
                closed += 1
        return closed
