"""DNS client model.

Carriers point devices at their local DNS resolvers (LDNS), which the
paper notes are "less stable due to user mobility and congestion"
(§3.1) and have no OS-provided fallback. The client issues queries over
the user plane; unanswered queries time out, which is the raw signal
behind Android's "five consecutive DNS timeouts" detector.

A query cadence the user plane leaves unanswered (a resolver outage, or
a drop) can park here (:mod:`repro.transport.parking`): ``history``,
the trailing timeout run and ``deadline`` catch up on every read.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable

from repro.simkernel.simulator import Simulator
from repro.transport.packets import Direction, Packet, Protocol, Verdict
from repro.transport.parking import Cadence, TransportClient


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


class DnsClient(TransportClient):
    """Resolves names through the configured (carrier) DNS server."""

    def __init__(self, sim: Simulator, user_plane, device_ip: str = "10.0.0.2") -> None:
        super().__init__(sim, user_plane, device_ip)
        self.server_ip = ""  # set from PDU session config
        self._history: list[DnsOutcome] = []
        #: Times of the trailing run of timeouts in ``history``
        #: (non-decreasing; emptied by any other outcome).
        self._run: list[float] = []

    # Reads, and the appends that go through them, first account parked
    # cadences' queries up to now, as if they had been sent.
    @property
    def history(self) -> list[DnsOutcome]:
        """Every settled query, in the order it settled."""
        if self.parking.cadences:
            self.parking.sync()
        return self._history

    @property
    def _timeout_run(self) -> list[float]:
        if self.parking.cadences:
            self.parking.sync()
        return self._run

    def configure(self, server_ip: str) -> None:
        changed = server_ip != self.server_ip
        self.server_ip = server_ip
        if changed:
            self.parking.wake()  # another resolver can answer

    def query(
        self,
        name: str,
        callback: Callable[[DnsOutcome], None],
        timeout: float = DEFAULT_DNS_TIMEOUT,
        park: Cadence | None = None,
    ) -> None:
        """Asynchronously resolve ``name``; callback gets the outcome.

        ``park``, if given, is the sender's cadence to park when the
        user plane leaves the query unanswered (:meth:`Parking.park`).
        """
        sim = self.sim
        start = sim.now
        if not self.server_ip:
            outcome = DnsOutcome(DnsResult.SERVFAIL, name, time=start)
            self._record(outcome)
            sim.call_soon(callback, outcome, label="dns:no-server")
            return
        packet = Packet(
            protocol=Protocol.DNS,
            direction=Direction.UPLINK,
            src_ip=self._device_ip,
            dst_ip=self.server_ip,
            src_port=33000,
            dst_port=53,
            payload={"qname": name},
        )
        # The timeout event is the query's done-flag: its cancel()
        # succeeds once, for whichever of reply / no-route / timeout
        # settles the query first.
        timeout_event = sim.schedule(
            timeout, self._on_timeout, name, start, callback, label="dns:timeout"
        )
        if timeout_event.time > self._deadline:
            self._deadline = timeout_event.time

        def on_response(response: Packet) -> None:
            if not timeout_event.cancel():
                return
            now = sim.now
            if response.payload.get("rcode") == "SERVFAIL":
                outcome = DnsOutcome(DnsResult.SERVFAIL, name, latency=now - start, time=now)
            else:
                outcome = DnsOutcome(
                    DnsResult.RESOLVED,
                    name,
                    address=response.payload.get("address"),
                    latency=now - start,
                    time=now,
                )
            self._record(outcome)
            callback(outcome)

        verdict = self.user_plane.submit(packet, on_response)
        if verdict is Verdict.NO_ROUTE:
            timeout_event.cancel()
            outcome = DnsOutcome(DnsResult.NO_ROUTE, name, time=start)
            self._record(outcome)
            sim.call_soon(callback, outcome, label="dns:no-route")
        elif park is not None and self.parking.park(
                park, self.user_plane, self._device_ip, Protocol.DNS, self.server_ip):
            self._bind(park, name, callback)

    def _on_timeout(self, name: str, start: float, callback) -> None:
        now = self.sim.now
        outcome = DnsOutcome(DnsResult.TIMEOUT, name, latency=now - start, time=now)
        self._record(outcome)
        callback(outcome)

    def _record(self, outcome: DnsOutcome) -> None:
        if self.parking.cadences:
            self.parking.sync()
        self._history.append(outcome)
        if outcome.result is DnsResult.TIMEOUT:
            self._run.append(outcome.time)
        else:
            self._run.clear()

    def _bind(self, cadence: Cadence, name: str, callback) -> None:
        """Account a parked cadence's queries as :meth:`query` would."""
        history, run = self._history, self._run

        def settle(start: float, end: float, _token) -> None:
            history.append(DnsOutcome(DnsResult.TIMEOUT, name, None, end - start, end))
            run.append(end)

        def rearm(start: float, end: float, _token) -> None:
            self.sim.schedule_at(end, self._on_timeout, name, start, callback,
                                 label="dns:timeout", maintenance=True)

        cadence.settle, cadence.rearm = settle, rearm

    def consecutive_timeouts(self, window: float = 1800.0) -> int:
        """Trailing run of timeouts within ``window`` seconds (Android).

        O(log n): outcomes arrive in time order, so the run's timeouts
        inside the window are a suffix of ``_timeout_run``.
        """
        run = self._timeout_run
        return len(run) - bisect_left(run, self.sim.now - window)
