"""Application traffic models (Table 5 workloads).

Five latency-sensitive applications from the paper's §7.1.2 experiment,
each modeled as a traffic daemon with a buffer/tolerance: video
(YouTube, ~30 s buffer), live streaming (Twitch, ~3 s buffer), web
browsing (Chrome, page loads every 5 s), navigation (Google Maps,
periodic location uploads), and an edge AR app (continuous frame
exchange, no buffer — fails at 100 ms disruptions, §3.3).

An app perceives *disruption* when the time since its last successful
exchange exceeds its buffer; the disruption ends at the next success.
Disruption-sensitive apps call the SEED failure-report API (§4.3.2)
after a few consecutive failures, supplying failure type, traffic
direction, and address — exactly the API's three parameters.

An app whose failure episode can change nothing but counters parks its
cadence in the transport client that carries it while the user plane
can only lose its exchanges (:meth:`App._cadence`,
:mod:`repro.transport.parking`): no tick, exchange, timeout or retry is
simulated until their fate or shape can change, and the skipped
exchanges are accounted as the eager chain would have fired them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.simkernel.simulator import Simulator
from repro.transport.dns import DnsClient, DnsResult
from repro.transport.parking import Cadence
from repro.transport.tcp import TcpClient
from repro.transport.udp import UdpClient, UdpResult


@dataclass(frozen=True)
class AppProfile:
    """Static traffic/tolerance description of one application."""

    name: str
    protocol: str               # "tcp", "udp", or "web" (dns+tcp)
    interval: float             # seconds between exchanges
    buffer_seconds: float       # disruption masked below this
    report_after_failures: int  # consecutive failures before SEED report
    exchange_timeout: float = 2.0  # app-level response deadline
    server: str = "app.example.net"
    port: int = 443


APP_PROFILES: dict[str, AppProfile] = {
    "video": AppProfile("video", "tcp", 2.0, 30.0, 4, exchange_timeout=2.0),
    "live_stream": AppProfile("live_stream", "tcp", 1.0, 3.0, 3,
                              exchange_timeout=0.8, port=1935),
    "web": AppProfile("web", "web", 5.0, 1.0, 2, exchange_timeout=2.0, port=443),
    "navigation": AppProfile("navigation", "udp", 5.0, 2.0, 2,
                             exchange_timeout=1.0, port=5060),
    # The AR app exchanges frames continuously and fails at 100 ms
    # disruptions (§3.3); its report fires within a few hundred ms.
    "edge_ar": AppProfile("edge_ar", "udp", 0.1, 0.1, 3,
                          exchange_timeout=0.25, port=9000),
}


@dataclass
class Disruption:
    start: float
    end: float | None = None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError("disruption still open")
        return self.end - self.start


class App:
    """A running application instance generating traffic."""

    def __init__(
        self,
        sim: Simulator,
        profile: AppProfile,
        dns: DnsClient,
        tcp: TcpClient,
        udp: UdpClient,
        report_api: Callable[[str, str, str], None] | None = None,
        server_ip: str = "203.0.113.10",
    ) -> None:
        self.sim = sim
        self.profile = profile
        self.dns = dns
        self.tcp = tcp
        self.udp = udp
        self.report_api = report_api
        self.server_ip = server_ip
        self.running = False
        self.exchanges = 0
        self.successes = 0
        self.last_success: float | None = None
        self.consecutive_failures = 0
        self.reports_sent: list[tuple[float, str]] = []
        self.disruptions: list[Disruption] = []
        self._open_disruption: Disruption | None = None
        self._tcp_conn = None
        self._dns_cache: tuple[str, float] | None = None
        self._retry_pending = False
        #: The cadence parked in a transport client (None: eager).
        self._parked: Cadence | None = None
        self._episode_first_failure = 0.0
        self._event_label = f"app:{profile.name}"
        self._retry_label = f"app:{profile.name}:retry"

    DNS_CACHE_TTL = 600.0
    # Failed interactions are retried quickly (browser/app retry
    # behaviour), so recovery detection is not quantized to the
    # app's nominal cadence.
    FAILURE_RETRY_DELAY = 1.0

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self.last_success = self.sim.now  # service was fine at start
        self._schedule_next()

    def stop(self) -> None:
        self.running = False
        # A parked cadence is accounted up to now; what it re-arms finds
        # the app stopped, as the eager chain's pending events would.
        self._release()

    def _release(self) -> None:
        parked = self._parked
        if parked is not None:
            parked.parking.release(parked)

    def _schedule_next(self) -> None:
        if not self.running:
            return
        # The nominal cadence is maintenance churn; the exchange's
        # transport children inherit the taint. Failure retries are
        # scheduled from those children, so they are tainted too — the
        # meter's settled() predicate (quiet()) covers them instead.
        self.sim.schedule_fire(self.profile.interval, self._do_exchange,
                               label=self._event_label, maintenance=True)

    # ------------------------------------------------------------------
    def _do_exchange(self) -> None:
        if not self.running:
            return
        self.exchanges += 1
        # An app without an open disruption never parks: skip the offer.
        cadence = self._cadence() if self._open_disruption is not None else None
        self._send(cadence)
        if cadence is not None and cadence.parking is not None:
            self._parked = cadence
            return
        self._schedule_next()

    def _send(self, park: Cadence | None = None) -> None:
        """Send one exchange: the nominal tick's or a failure retry's.
        ``park`` goes to the client that carries it."""
        profile = self.profile
        timeout = profile.exchange_timeout
        if profile.protocol == "udp":
            self.udp.exchange(self.server_ip, profile.port, self._on_udp,
                              timeout=timeout, park=park)
        elif profile.protocol == "web":
            cached = self._dns_cache
            if cached is not None and self.sim.now < cached[1]:
                self.tcp.connect(cached[0], profile.port, self._on_tcp_connect,
                                 timeout=timeout, park=park)
            else:
                self.dns.query(profile.server, self._on_web_dns, timeout=timeout,
                               park=park)
        else:
            conn = self._tcp_conn
            if conn is not None and conn.established and not conn.closed:
                self.tcp.request(conn, self._on_result, timeout=timeout, park=park)
            else:
                self.tcp.connect(self.server_ip, profile.port, self._on_tcp_connect,
                                 timeout=timeout, park=park)

    def _cadence(self) -> Cadence | None:
        """The cadence to offer this tick's client for parking, if the
        failure episode can only count.

        The disruption is open with no report left to send
        (:meth:`reported_open`). Then every later exchange, while the
        user plane keeps losing it, only adds to ``exchanges`` and, at
        its timeout, to ``consecutive_failures``, and arms a failure
        retry when none is pending. The client parks the cadence only
        if the user plane promises to wake it on any change to that
        fate. A web app connecting from its DNS cache parks only if the
        cache outlives every exchange already in flight; the park ends
        at the expiry, where connects turn into queries.
        """
        if not self.reported_open():
            return None
        profile = self.profile
        delay = self.FAILURE_RETRY_DELAY
        until = None
        if profile.protocol == "web":
            cached = self._dns_cache
            if cached is not None and self.sim.now < cached[1]:
                until = cached[1]
                if until <= self.sim.now + profile.exchange_timeout + delay:
                    return None
        return Cadence(profile.interval, profile.exchange_timeout,
                       delay if profile.interval > delay else None,
                       self._retry_pending, self._do_exchange, self._event_label,
                       self._do_retry, self._retry_label, self._unpark, until)

    def _unpark(self, cadence: Cadence) -> None:
        """Take back a parked cadence's tallies; the client re-armed
        its tick, retry and timeouts still ahead."""
        self._parked = None
        self.exchanges += cadence.sent
        self.consecutive_failures += cadence.lost
        self._retry_pending = cadence.retry_pending

    def _on_tcp_connect(self, conn) -> None:
        if not conn.established:
            self._on_result(False)
            return
        self._release()  # a reply changes what the app sends next
        self._tcp_conn = conn
        self.tcp.request(conn, self._on_result, timeout=self.profile.exchange_timeout)

    def _on_web_dns(self, outcome) -> None:
        if outcome.result is not DnsResult.RESOLVED:
            self._record(False, failure_type="dns")
            return
        self._release()  # a reply changes what the app sends next
        self._dns_cache = (outcome.address, self.sim.now + self.DNS_CACHE_TTL)
        self.tcp.connect(outcome.address, self.profile.port, self._on_tcp_connect,
                         timeout=self.profile.exchange_timeout)

    def _on_udp(self, outcome) -> None:
        self._record(outcome.result is UdpResult.REPLIED, failure_type="udp")

    def _on_result(self, success: bool) -> None:
        self._record(success, failure_type="tcp")

    def _do_retry(self) -> None:
        parked = self._parked
        if parked is not None:
            parked.parking.retry(parked)
            return
        self._retry_pending = False
        if self.running:
            self._send()

    # ------------------------------------------------------------------
    def _record(self, success: bool, failure_type: str) -> None:
        if not self.running:
            # Stopped (a frozen cohort member): an exchange still in
            # flight resolves into nobody's record, as it would past
            # the end of a one-member run.
            return
        parked = self._parked
        if parked is not None:
            if not success:
                parked.parking.fail(parked)
                return
            self._release()
        now = self.sim.now
        if success:
            self.successes += 1
            self.consecutive_failures = 0
            self.last_success = now
            if self._open_disruption is not None:
                self._open_disruption.end = now
                self._open_disruption = None
            return
        self.consecutive_failures += 1
        if self.consecutive_failures == 1:
            self._episode_first_failure = now
        if (
            self.running
            and not self._retry_pending
            and self.profile.interval > self.FAILURE_RETRY_DELAY
        ):
            self._retry_pending = True
            self.sim.schedule_fire(self.FAILURE_RETRY_DELAY, self._do_retry,
                                   label=self._retry_label)
        # Buffer masks short gaps: the user only perceives disruption
        # once the gap since the last success exceeds the buffer — and
        # not before the app actually observed a failure (idle time
        # between interactions is not perceived disruption).
        if self._open_disruption is None and self.last_success is not None:
            gap = now - self.last_success
            if gap >= self.profile.buffer_seconds:
                start = max(
                    self.last_success + self.profile.buffer_seconds,
                    self._episode_first_failure,
                )
                self._open_disruption = Disruption(start=min(start, now))
                self.disruptions.append(self._open_disruption)
        if (
            self.report_api is not None
            and self.consecutive_failures == self.profile.report_after_failures
        ):
            direction = "both"
            address = f"{self.server_ip}:{self.profile.port}"
            if failure_type == "dns":
                address = self.profile.server
            self.reports_sent.append((now, failure_type))
            self.report_api(failure_type, direction, address)

    # ------------------------------------------------------------------
    def quiet(self) -> bool:
        """No open disruption, no failure episode, no retry in flight.

        Part of the testbed's quiescence predicate: an app is quiet when
        stopping the run now cannot change its disruption record or
        trigger a pending SEED report.
        """
        return (
            self._open_disruption is None
            and self.consecutive_failures == 0
            and not self._retry_pending
        )

    def reported_open(self) -> bool:
        """An open disruption, and no report left to send for it.

        Part of the testbed's quiescence predicate for an app whose flow
        configuration blocks for good: every later exchange fails, so
        the disruption stays open to the horizon, and the failure count
        only grows past the report threshold, so no report can fire.
        """
        return self._open_disruption is not None and (
            self.report_api is None
            or self.consecutive_failures >= self.profile.report_after_failures
        )

    # ------------------------------------------------------------------
    def perceived_disruption_total(self) -> float:
        """Total user-perceived disruption (open intervals extend to now)."""
        total = 0.0
        for d in self.disruptions:
            end = d.end if d.end is not None else self.sim.now
            total += max(0.0, end - d.start)
        return total

    def close_open_disruption(self, end: float | None = None) -> None:
        """End the open disruption at ``end`` (default: now)."""
        if self._open_disruption is not None:
            self._open_disruption.end = self.sim.now if end is None else end
            self._open_disruption = None
