"""DNS client model.

Carriers point devices at their local DNS resolvers (LDNS), which the
paper notes are "less stable due to user mobility and congestion"
(§3.1) and have no OS-provided fallback. The client issues queries over
the user plane; unanswered queries time out, which is the raw signal
behind Android's "five consecutive DNS timeouts" detector.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable

from repro.simkernel.simulator import Simulator
from repro.transport.packets import Direction, Packet, Protocol, Verdict


class DnsResult(enum.Enum):
    RESOLVED = "resolved"
    TIMEOUT = "timeout"
    SERVFAIL = "servfail"
    NO_ROUTE = "no_route"


DEFAULT_DNS_TIMEOUT = 5.0


@dataclass
class DnsOutcome:
    result: DnsResult
    name: str
    address: str | None = None
    latency: float = 0.0
    time: float = 0.0  # simulation time the outcome was decided


class DnsClient:
    """Resolves names through the configured (carrier) DNS server."""

    def __init__(self, sim: Simulator, user_plane, device_ip: str = "10.0.0.2") -> None:
        self.sim = sim
        self.user_plane = user_plane
        self.device_ip = device_ip
        self.server_ip = ""  # set from PDU session config
        self.history: list[DnsOutcome] = []
        #: Times of the trailing run of timeouts in ``history``
        #: (non-decreasing; emptied by any other outcome).
        self._timeout_run: list[float] = []
        #: Latest timeout deadline armed so far (0.0: none). Every query
        #: launched up to now has resolved once the clock is past it.
        self.deadline = 0.0

    def configure(self, server_ip: str) -> None:
        self.server_ip = server_ip

    def query(
        self,
        name: str,
        callback: Callable[[DnsOutcome], None],
        timeout: float = DEFAULT_DNS_TIMEOUT,
    ) -> None:
        """Asynchronously resolve ``name``; callback gets the outcome."""
        start = self.sim.now
        if not self.server_ip:
            outcome = DnsOutcome(DnsResult.SERVFAIL, name, time=self.sim.now)
            self._record(outcome)
            self.sim.call_soon(callback, outcome, label="dns:no-server")
            return
        packet = Packet(
            protocol=Protocol.DNS,
            direction=Direction.UPLINK,
            src_ip=self.device_ip,
            dst_ip=self.server_ip,
            src_port=33000,
            dst_port=53,
            payload={"qname": name},
        )
        state = {"answered": False}
        timeout_event = self.sim.schedule(
            timeout, self._on_timeout, name, start, state, callback, label="dns:timeout"
        )
        if timeout_event.time > self.deadline:
            self.deadline = timeout_event.time

        def on_response(response: Packet) -> None:
            if state["answered"]:
                return
            state["answered"] = True
            timeout_event.cancel()
            if response.payload.get("rcode") == "SERVFAIL":
                outcome = DnsOutcome(DnsResult.SERVFAIL, name, latency=self.sim.now - start, time=self.sim.now)
            else:
                outcome = DnsOutcome(
                    DnsResult.RESOLVED,
                    name,
                    address=response.payload.get("address"),
                    latency=self.sim.now - start,
                    time=self.sim.now,
                )
            self._record(outcome)
            callback(outcome)

        verdict = self.user_plane.submit(packet, on_response)
        if verdict is Verdict.NO_ROUTE:
            state["answered"] = True
            timeout_event.cancel()
            outcome = DnsOutcome(DnsResult.NO_ROUTE, name, time=self.sim.now)
            self._record(outcome)
            self.sim.call_soon(callback, outcome, label="dns:no-route")

    def _on_timeout(self, name: str, start: float, state: dict, callback) -> None:
        if state["answered"]:
            return
        state["answered"] = True
        outcome = DnsOutcome(DnsResult.TIMEOUT, name, latency=self.sim.now - start, time=self.sim.now)
        self._record(outcome)
        callback(outcome)

    def _record(self, outcome: DnsOutcome) -> None:
        self.history.append(outcome)
        if outcome.result is DnsResult.TIMEOUT:
            self._timeout_run.append(outcome.time)
        else:
            self._timeout_run.clear()

    def consecutive_timeouts(self, window: float = 1800.0) -> int:
        """Trailing run of timeouts within ``window`` seconds (Android).

        O(log n): outcomes arrive in time order, so the run's timeouts
        inside the window are a suffix of ``_timeout_run``.
        """
        run = self._timeout_run
        return len(run) - bisect_left(run, self.sim.now - window)
