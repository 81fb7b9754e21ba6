"""UDP datagram exchange model.

The paper highlights that UDP failures (widely reported port blocking
under 5G, §3.1) are invisible to Android's detector unless they happen
to drag DNS down with them (§3.3). The client supports request/response
exchanges (WebRTC/QUIC-style) whose losses are observable to the *app*
— which is exactly what SEED's failure-report API surfaces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from repro.simkernel.simulator import Simulator
from repro.transport.packets import Direction, Packet, Protocol, Verdict

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


class UdpClient:
    """Sends datagrams expecting an application-level reply."""

    def __init__(self, sim: Simulator, user_plane, device_ip: str = "10.0.0.2") -> None:
        self.sim = sim
        self.user_plane = user_plane
        self.device_ip = device_ip
        self.history: list[UdpOutcome] = []
        #: Latest timeout deadline armed so far (0.0: none). Every
        #: exchange launched up to now has resolved once the clock is
        #: past it.
        self.deadline = 0.0

    def exchange(
        self,
        dst_ip: str,
        dst_port: int,
        callback: Callable[[UdpOutcome], None],
        timeout: float = UDP_EXCHANGE_TIMEOUT,
        size_bytes: int = 200,
    ) -> None:
        sim = self.sim
        start = sim.now
        packet = Packet(
            protocol=Protocol.UDP,
            direction=Direction.UPLINK,
            src_ip=self.device_ip,
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
        if timeout_event.time > self.deadline:
            self.deadline = timeout_event.time

        def on_reply(response: Packet) -> None:
            if not timeout_event.cancel():
                return
            outcome = UdpOutcome(
                UdpResult.REPLIED, dst_ip, dst_port,
                latency=sim.now - start, time=sim.now,
            )
            self.history.append(outcome)
            callback(outcome)

        verdict = self.user_plane.submit(packet, on_reply)
        if verdict is Verdict.NO_ROUTE:
            timeout_event.cancel()
            outcome = UdpOutcome(UdpResult.NO_ROUTE, dst_ip, dst_port, time=sim.now)
            self.history.append(outcome)
            sim.schedule_fire(0.0, callback, outcome, label="udp:no-route")

    def _on_timeout(self, dst_ip: str, dst_port: int, start: float, callback) -> None:
        outcome = UdpOutcome(
            UdpResult.TIMEOUT, dst_ip, dst_port,
            latency=self.sim.now - start, time=self.sim.now,
        )
        self.history.append(outcome)
        callback(outcome)

    def recent_loss_rate(self, window: float = 60.0) -> float:
        cutoff = self.sim.now - window
        recent = [o for o in self.history if o.time >= cutoff]
        if not recent:
            return 0.0
        lost = sum(1 for o in recent if o.result is not UdpResult.REPLIED)
        return lost / len(recent)
