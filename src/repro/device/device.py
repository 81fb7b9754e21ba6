"""Assembled UE: SIM card + modem + OS + transport clients + apps.

One :class:`Device` per subscriber. The device wires the modem's
session events into the transport clients (IP/DNS configuration) and
hosts the application daemons of Table 5.
"""

from __future__ import annotations

from repro.device.android import AndroidOs, AndroidTimers
from repro.device.apps import APP_PROFILES, App
from repro.device.battery import BatteryModel
from repro.device.carrier_host import CarrierHost
from repro.device.modem import Modem, ModemLatencies, ModemSession
from repro.infra.gnb import Gnb
from repro.nas.timers import DEFAULT_TIMERS, StandardTimers
from repro.sim_card.applet_rt import AppletRuntime
from repro.sim_card.profile import SimProfile
from repro.sim_card.usim import UsimApplet
from repro.simkernel.simulator import Simulator
from repro.transport.dns import DnsClient
from repro.transport.probes import ConnectivityProber
from repro.transport.tcp import TcpClient
from repro.transport.udp import UdpClient

CARRIER_INSTALL_KEY = b"\x01" * 16


class Device:
    """A complete 5G user equipment."""

    def __init__(
        self,
        sim: Simulator,
        gnb: Gnb,
        user_plane,
        profile: SimProfile,
        timers: StandardTimers = DEFAULT_TIMERS,
        android_timers: AndroidTimers | None = None,
        modem_latencies: ModemLatencies | None = None,
        rooted: bool = False,
    ) -> None:
        self.sim = sim
        self.profile = profile
        self.card = AppletRuntime(carrier_key=CARRIER_INSTALL_KEY)
        self.usim = UsimApplet(profile)
        self.card.install(self.usim, CARRIER_INSTALL_KEY)
        self.modem = Modem(sim, gnb, self.card, self.usim, timers, modem_latencies)
        self.user_plane = user_plane
        self.dns = DnsClient(sim, user_plane)
        self.tcp = TcpClient(sim, user_plane)
        self.udp = UdpClient(sim, user_plane)
        self.prober = ConnectivityProber(sim, self.dns, self.tcp)
        self.android = AndroidOs(sim, self.modem, self.prober, self.dns, self.tcp,
                                 timers=android_timers)
        self.battery = BatteryModel(sim)
        self.carrier_host = CarrierHost(sim, self.modem, self.android, rooted=rooted)
        self.apps: dict[str, App] = {}
        self.ui_notifications: list[tuple[float, str]] = []
        self.modem.on_session_up.append(self._on_session_up)
        self.modem.on_session_modified.append(self._on_session_modified)
        self.modem.on_display_text.append(
            lambda text: self.ui_notifications.append((sim.now, text))
        )

    @property
    def supi(self) -> str:
        return self.modem.supi

    # ------------------------------------------------------------------
    def power_on(self) -> None:
        """Boot: register and bring up the default data session."""
        self.modem.start_registration()
        self.android.start()

    def _on_session_up(self, psi: int, session: ModemSession) -> None:
        if psi != 1:
            return  # escort/diagnosis sessions do not carry app traffic
        self.dns.device_ip = session.ip_address
        self.tcp.device_ip = session.ip_address
        self.udp.device_ip = session.ip_address
        self.dns.configure(session.dns_server)

    def _on_session_modified(self, psi: int, session: ModemSession) -> None:
        if psi == 1 and session.dns_server:
            self.dns.configure(session.dns_server)

    # ------------------------------------------------------------------
    def hold_parks(self, until: float) -> None:
        """Release every parked cadence and park none until the clock
        is past ``until`` (see ``DisruptionMeter._on_event``)."""
        for client in (self.udp, self.dns, self.tcp):
            client.parking.hold(until)

    def freeze_parks(self, at: float) -> None:
        """Account every parked cadence up to ``at``, where the run
        stopped, and end its park."""
        for client in (self.udp, self.dns, self.tcp):
            client.parking.freeze(at)

    def launch_app(self, name: str, report_api=None, server_ip: str = "203.0.113.10") -> App:
        profile = APP_PROFILES[name]
        app = App(self.sim, profile, self.dns, self.tcp, self.udp,
                  report_api=report_api, server_ip=server_ip)
        self.apps[name] = app
        app.start()
        return app

    def default_session(self) -> ModemSession | None:
        return self.modem.sessions.get(1)

    def data_session_active(self) -> bool:
        session = self.default_session()
        return session is not None and session.active
