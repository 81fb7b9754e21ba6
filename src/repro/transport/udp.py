"""UDP datagram exchange model.

The paper highlights that UDP failures (widely reported port blocking
under 5G, §3.1) are invisible to Android's detector unless they happen
to drag DNS down with them (§3.3). The client supports request/response
exchanges (WebRTC/QUIC-style) whose losses are observable to the *app*
— which is exactly what SEED's failure-report API surfaces.

An app whose cadence of exchanges the user plane black-holes can park
it here (:meth:`UdpClient.park`): no datagram, timeout or tick is
simulated until the user plane says their fate can change, and the
skipped exchanges are then accounted with the eager chain's own float
additions.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
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


@dataclass(slots=True)
class _Parked:
    """A parked cadence: one exchange every ``interval`` from
    ``next_start`` on, each dropped by the user plane."""

    dst_ip: str
    dst_port: int
    callback: Callable[[UdpOutcome], None]
    timeout: float
    interval: float
    next_start: float
    on_wake: Callable[[float, int, int], None]
    #: Starts of accounted exchanges whose timeouts lie ahead.
    in_flight: deque = field(default_factory=deque)
    sent: int = 0
    lost: int = 0


class UdpClient:
    """Sends datagrams expecting an application-level reply."""

    def __init__(self, sim: Simulator, user_plane, device_ip: str = "10.0.0.2") -> None:
        self.sim = sim
        self.user_plane = user_plane
        self._device_ip = device_ip
        self._history: list[UdpOutcome] = []
        self._deadline = 0.0
        self._parked: _Parked | None = None

    # Reads, and the appends below that go through them, first account a
    # parked cadence's exchanges up to now, as if they had been sent.
    @property
    def history(self) -> list[UdpOutcome]:
        """Every settled exchange, in the order it settled."""
        if self._parked is not None:
            self._catch_up()
        return self._history

    @property
    def deadline(self) -> float:
        """Latest timeout deadline armed so far (0.0: none). Every
        exchange launched up to now has resolved once the clock is past
        it."""
        if self._parked is not None:
            self._catch_up()
        return self._deadline

    @property
    def device_ip(self) -> str:
        return self._device_ip

    @device_ip.setter
    def device_ip(self, ip: str) -> None:
        changed = ip != self._device_ip
        self._device_ip = ip
        if changed:
            self.wake()  # a new source address can meet another fate

    def exchange(
        self,
        dst_ip: str,
        dst_port: int,
        callback: Callable[[UdpOutcome], None],
        timeout: float = UDP_EXCHANGE_TIMEOUT,
        size_bytes: int = 200,
    ) -> Verdict:
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
            if self._parked is not None:
                # A reply can end the failure episode a parked cadence
                # relies on: hand the cadence back first.
                self.wake()
            outcome = UdpOutcome(
                UdpResult.REPLIED, dst_ip, dst_port,
                latency=sim.now - start, time=sim.now,
            )
            self._history.append(outcome)
            callback(outcome)

        verdict = self.user_plane.submit(packet, on_reply)
        if verdict is Verdict.NO_ROUTE:
            timeout_event.cancel()
            outcome = UdpOutcome(UdpResult.NO_ROUTE, dst_ip, dst_port, time=sim.now)
            self.history.append(outcome)
            sim.schedule_fire(0.0, callback, outcome, label="udp:no-route")
        return verdict

    def _on_timeout(self, dst_ip: str, dst_port: int, start: float, callback) -> None:
        outcome = UdpOutcome(
            UdpResult.TIMEOUT, dst_ip, dst_port,
            latency=self.sim.now - start, time=self.sim.now,
        )
        self.history.append(outcome)
        callback(outcome)

    # ------------------------------------------------------------------
    # Parking
    # ------------------------------------------------------------------
    def park(
        self,
        dst_ip: str,
        dst_port: int,
        callback: Callable[[UdpOutcome], None],
        timeout: float,
        interval: float,
        next_start: float,
        on_wake: Callable[[float, int, int], None],
    ) -> bool:
        """Stop sending a cadence whose datagrams the user plane drops.

        The caller would send one exchange every ``interval`` from
        ``next_start`` on, each to time out after ``timeout`` into
        ``callback``. Parks only when the user plane promises a wake on
        any change to those datagrams' fate (``user_plane.park``); this
        client wakes too when its address changes or a reply arrives.
        :meth:`wake` accounts the skipped exchanges, re-arms the
        timeouts still ahead, and calls ``on_wake(next_start, sent,
        lost)``: the first start not sent, and the exchanges sent and
        timed out while parked. One cadence parks per client.
        """
        if self._parked is not None or not self.user_plane.park(
                self._device_ip, Protocol.UDP, self.wake):
            return False
        self._parked = _Parked(dst_ip, dst_port, callback, timeout, interval,
                               next_start, on_wake)
        return True

    def wake(self) -> None:
        """End the park, if any (see :meth:`park`)."""
        parked = self._parked
        if parked is None:
            return
        self._catch_up()
        self._parked = None
        sim = self.sim
        for start in parked.in_flight:
            sim.schedule_at(start + parked.timeout, self._on_timeout,
                            parked.dst_ip, parked.dst_port, start, parked.callback,
                            label="udp:timeout", maintenance=True)
        parked.on_wake(parked.next_start, parked.sent, parked.lost)

    def _catch_up(self) -> None:
        """Account the parked exchanges the eager chain fires before now.

        Starts and deadlines are the eager chain's float sums: the next
        start ``s + interval``, the deadline ``s + timeout``, the
        latency ``deadline - s``. All share one timeout, so they settle
        in start order. An exchange that would start, or time out,
        exactly now is left to :meth:`wake`.
        """
        parked = self._parked
        now = self.sim.now
        timeout = parked.timeout
        in_flight = parked.in_flight
        start = parked.next_start
        while start < now:
            parked.sent += 1
            in_flight.append(start)
            if start + timeout > self._deadline:
                self._deadline = start + timeout
            start += parked.interval
        parked.next_start = start
        while in_flight and in_flight[0] + timeout < now:
            start = in_flight.popleft()
            end = start + timeout
            self._history.append(UdpOutcome(UdpResult.TIMEOUT, parked.dst_ip, parked.dst_port,
                                            latency=end - start, time=end))
            parked.lost += 1
