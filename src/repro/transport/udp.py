"""UDP datagram exchange model.

The paper highlights that UDP failures (widely reported port blocking
under 5G, §3.1) are invisible to Android's detector unless they happen
to drag DNS down with them (§3.3). The client supports request/response
exchanges (WebRTC/QUIC-style) whose losses are observable to the *app*
— which is exactly what SEED's failure-report API surfaces.

An app whose cadence of exchanges the user plane black-holes can park
it here (:mod:`repro.transport.parking`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from repro.simkernel.simulator import Simulator
from repro.transport.packets import Direction, Packet, Protocol, Verdict
from repro.transport.parking import Cadence, TransportClient

UDP_EXCHANGE_TIMEOUT = 3.0


class UdpResult(enum.Enum):
    REPLIED = "replied"
    TIMEOUT = "timeout"
    NO_ROUTE = "no_route"


@dataclass(slots=True)
class UdpOutcome:
    result: UdpResult
    dst_ip: str
    dst_port: int
    latency: float = 0.0
    time: float = 0.0


class UdpClient(TransportClient):
    """Sends datagrams expecting an application-level reply."""

    def __init__(self, sim: Simulator, user_plane, device_ip: str = "10.0.0.2") -> None:
        super().__init__(sim, user_plane, device_ip)
        self._history: list[UdpOutcome] = []

    # Reads, and the appends below that go through them, first account
    # parked cadences' exchanges up to now, as if they had been sent.
    @property
    def history(self) -> list[UdpOutcome]:
        """Every settled exchange, in the order it settled."""
        if self.parking.cadences:
            self.parking.sync()
        return self._history

    def exchange(
        self,
        dst_ip: str,
        dst_port: int,
        callback: Callable[[UdpOutcome], None],
        timeout: float = UDP_EXCHANGE_TIMEOUT,
        size_bytes: int = 200,
        park: Cadence | None = None,
    ) -> None:
        """Send one datagram expecting a reply; ``park``, if given, is
        the sender's cadence to park when the user plane can only lose
        it (:meth:`Parking.park`)."""
        sim = self.sim
        start = sim.now
        packet = Packet(
            protocol=Protocol.UDP,
            direction=Direction.UPLINK,
            src_ip=self._device_ip,
            dst_ip=dst_ip,
            src_port=50000,
            dst_port=dst_port,
            size_bytes=size_bytes,
        )
        # The timeout event doubles as the exchange's done-flag: its
        # cancel() succeeds exactly once, for whichever of reply /
        # no-route / timeout settles the exchange first (no per-exchange
        # state dict).
        timeout_event = sim.schedule(
            timeout, self._on_timeout, dst_ip, dst_port, start, callback,
            label="udp:timeout",
        )
        if timeout_event.time > self._deadline:
            self._deadline = timeout_event.time

        def on_reply(response: Packet) -> None:
            if not timeout_event.cancel():
                return
            outcome = UdpOutcome(
                UdpResult.REPLIED, dst_ip, dst_port,
                latency=sim.now - start, time=sim.now,
            )
            if self.parking.cadences:
                self.parking.sync()
            self._history.append(outcome)
            callback(outcome)

        verdict = self.user_plane.submit(packet, on_reply)
        if verdict is Verdict.NO_ROUTE:
            timeout_event.cancel()
            outcome = UdpOutcome(UdpResult.NO_ROUTE, dst_ip, dst_port, time=sim.now)
            self.history.append(outcome)
            sim.schedule_fire(0.0, callback, outcome, label="udp:no-route")
        elif park is not None and self.parking.park(
                park, self.user_plane, self._device_ip, Protocol.UDP):
            self._bind(park, dst_ip, dst_port, callback)

    def _on_timeout(self, dst_ip: str, dst_port: int, start: float, callback) -> None:
        outcome = UdpOutcome(
            UdpResult.TIMEOUT, dst_ip, dst_port,
            latency=self.sim.now - start, time=self.sim.now,
        )
        self.history.append(outcome)
        callback(outcome)

    def _bind(self, cadence: Cadence, dst_ip: str, dst_port: int, callback) -> None:
        """Account a parked cadence's exchanges as :meth:`exchange` would."""
        history = self._history

        def settle(start: float, end: float, _token) -> None:
            history.append(UdpOutcome(UdpResult.TIMEOUT, dst_ip, dst_port, end - start, end))

        def rearm(start: float, end: float, _token) -> None:
            self.sim.schedule_at(end, self._on_timeout, dst_ip, dst_port, start, callback,
                                 label="udp:timeout", maintenance=True)

        cadence.settle, cadence.rearm = settle, rearm
