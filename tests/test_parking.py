"""Parked cadences: an app whose exchanges the user plane can only lose
stops simulating them until their fate or shape can change.

Every test runs the same scenario twice, parked and eager (the park
offer patched off), and compares what the apps and their transport
clients hold. A parked app takes the counts of its skipped exchanges
back when it wakes, so a snapshot taken while it is parked adds the
tallies its cadence still holds.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.device import Device
from repro.device.apps import App
from repro.infra import CoreNetwork
from repro.infra.failures import ClearTrigger, FailureClass, FailureMode, FailureSpec
from repro.sim_card.profile import SimProfile
from repro.simkernel.simulator import Simulator
from repro.testbed.harness import WARMUP, HandlingMode, Testbed, run_one
from repro.testbed.scenarios import scenario_by_name
from repro.transport.dns import DnsOutcome, DnsResult
from repro.transport.packets import Protocol
from repro.transport.parking import Cadence, Parking
from repro.transport.tcp import TcpConnection

#: At this seed the exchanges dropped just before the clear time out
#: after the first success and reopen a 28 ms disruption.
SEED = 4
BLACK_HOLE = 20.0
OPC = bytes.fromhex("cd63cb71954a9f4e48a5994e37a02baf")


def black_hole(supi: str, duration: float = BLACK_HOLE) -> FailureSpec:
    """Every flow of ``supi`` dropped (``""``: every subscriber's)."""
    return FailureSpec(
        failure_class=FailureClass.DATA_DELIVERY, mode=FailureMode.BLOCK,
        supi=supi,
        clear_triggers=frozenset({ClearTrigger.ON_SESSION_RESET,
                                  ClearTrigger.AFTER_DURATION}),
        duration=duration)


def app_state(app: App):
    udp = app.udp
    history = list(udp.history)  # accounts a parked cadence up to now
    parked = app._parked
    sent, lost = (parked.sent, parked.lost) if parked is not None else (0, 0)
    return (app.exchanges + sent, app.successes, app.consecutive_failures + lost,
            [(d.start, d.end) for d in app.disruptions], list(app.reports_sent),
            history, udp.deadline)


def launch(eager: bool, monkeypatch, seed: int = SEED):
    """A legacy testbed whose edge AR app reports into a list, and the
    injection time of a black hole that clears after BLACK_HOLE s."""
    if eager:
        monkeypatch.setattr(App, "_cadence", lambda self: None)
    testbed = Testbed(seed=seed, handling=HandlingMode.LEGACY)
    testbed.warm_up()
    reports = []
    app = testbed.device.launch_app("edge_ar", report_api=lambda *args: reports.append(args))
    testbed.sim.run(until=testbed.sim.now + 5.0)
    injected = testbed.sim.now
    testbed.inject(black_hole(testbed.device.supi))
    return testbed, app, injected


class TestParkedMatchesEager:
    def _states(self, eager, monkeypatch):
        testbed, app, injected = launch(eager, monkeypatch)
        sim = testbed.sim
        clear = injected + BLACK_HOLE
        states = []
        for until in (clear - 0.001, clear, clear + 0.15, clear + 0.3, clear + 5.0):
            sim.run(until=until)
            states.append(app_state(app))
        return states, sim.fired_events, clear

    def test_state_before_at_and_after_a_clear(self, monkeypatch):
        parked, parked_events, clear = self._states(False, monkeypatch)
        eager, eager_events, _ = self._states(True, monkeypatch)
        assert parked == eager
        # Timeouts of exchanges dropped before the clear land after its
        # first success and reopen a short disruption.
        disruptions = parked[-1][3]
        assert len(disruptions) == 2
        assert disruptions[0][1] < disruptions[1][0]
        assert clear < disruptions[1][0] < disruptions[1][1] < clear + 0.3
        assert parked_events * 2 < eager_events

    def test_another_apps_outcomes_keep_the_history_in_order(self, monkeypatch):
        """Navigation shares the edge AR app's UDP client (and parks with
        its failure retries): its outcomes interleave with the edge AR
        app's in the shared history."""
        def run(eager):
            testbed, app, injected = launch(eager, monkeypatch)
            navigation = testbed.device.launch_app("navigation")
            testbed.sim.run(until=injected + BLACK_HOLE + 5.0)
            monkeypatch.undo()
            return app_state(app), app_state(navigation)

        parked, eager = run(False), run(True)
        assert parked == eager
        results = {outcome.dst_port for outcome in parked[0][5]}
        assert results == {9000, 5060}

    def test_parks_only_once_reported(self, monkeypatch):
        testbed, app, injected = launch(False, monkeypatch)
        testbed.sim.run(until=injected + 0.3)
        assert app._parked is None
        testbed.sim.run(until=injected + 1.0)
        assert app._parked is not None
        assert app.reported_open() and len(app.reports_sent) == 1

    def test_stop_while_parked_accounts_and_does_not_resume(self, monkeypatch):
        def run(eager):
            testbed, app, injected = launch(eager, monkeypatch)
            sim = testbed.sim
            stop_at = injected + 7.0
            sim.schedule_at(stop_at, app.stop)
            sim.run(until=stop_at)
            at_stop = app_state(app)
            sim.run(until=stop_at + 3.0)
            monkeypatch.undo()
            return testbed, app, at_stop

        parked_tb, parked_app, parked_at_stop = run(False)
        _eager_tb, eager_app, eager_at_stop = run(True)
        assert parked_at_stop == eager_at_stop
        assert app_state(parked_app) == app_state(eager_app)
        assert parked_app._parked is None
        assert "app:edge_ar" not in parked_tb.sim.pending_labels()
        assert parked_app.exchanges == parked_at_stop[0]


class TestWakes:
    def _pair(self, supi_scoped=True):
        """Two devices on one core, each with an edge AR app parked
        under a black hole (one per SUPI, or one for everyone)."""
        sim = Simulator(seed=11)
        core = CoreNetwork(sim)
        devices = []
        for index in range(2):
            imsi = f"0010100000000{index:02d}"
            k = bytes([index + 1]) * 16
            core.provision_subscriber(f"imsi-{imsi}", k, OPC)
            devices.append(Device(sim, core.gnb, core.upf,
                                  SimProfile(imsi=imsi, k=k, opc=OPC)))
        for device in devices:
            device.power_on()
        sim.run(until=WARMUP)
        apps = [device.launch_app("edge_ar") for device in devices]
        sim.run(until=sim.now + 1.0)
        supis = [device.supi for device in devices] if supi_scoped else [""]
        failures = [core.engine.inject(black_hole(supi, duration=600.0))
                    for supi in supis]
        sim.run(until=sim.now + 1.0)
        assert all(app._parked is not None for app in apps)
        return core, devices, apps, failures

    def test_a_members_clear_wakes_only_that_member(self):
        core, devices, apps, failures = self._pair()
        core.engine.note_session_reset(devices[0].supi)
        assert failures[0].cleared and not failures[1].cleared
        assert apps[0]._parked is None
        assert apps[1]._parked is not None

    def test_a_members_session_change_wakes_only_that_member(self):
        core, devices, apps, _failures = self._pair()
        upf = core.upf
        ctx = upf.remove_session(devices[1].supi, 1)
        assert apps[1]._parked is None
        assert apps[0]._parked is not None
        apps[1].udp.parking.wake()  # idempotent
        core.sim.run(until=core.sim.now + 1.0)  # no route: stays eager
        assert apps[1]._parked is None
        upf.add_session(ctx)
        core.sim.run(until=core.sim.now + 1.0)  # dropped again: parks
        assert apps[1]._parked is not None

    def test_a_session_replaced_in_place_wakes(self):
        """A new context on the same session id changes the address
        the UPF maps, with no removal before it."""
        core, devices, apps, _failures = self._pair()
        upf = core.upf
        supi = devices[0].supi
        upf.add_session(dataclasses.replace(upf.sessions[supi][1],
                                            ip_address="10.255.0.7"))
        assert apps[0]._parked is None and apps[1]._parked is not None

    def test_an_address_change_wakes(self):
        _core, _devices, apps, _failures = self._pair()
        udp = apps[0].udp
        udp.device_ip = udp.device_ip
        assert apps[0]._parked is not None
        udp.device_ip = "10.255.0.9"
        assert apps[0]._parked is None and apps[1]._parked is not None

    def test_an_unscoped_clear_wakes_every_member(self):
        core, _devices, apps, failures = self._pair(supi_scoped=False)
        core.engine.clear_all()
        assert failures[0].cleared
        assert all(app._parked is None for app in apps)


def device_reads(device):
    """What the detectors, the meter and the apps hold: client state
    first (it accounts parked cadences up to now), then app tallies."""
    dns, tcp, udp = device.dns, device.tcp, device.udp
    clients = ([(o.result, o.name, o.latency, o.time) for o in dns.history],
               dns.consecutive_timeouts(), list(tcp.stats.attempts),
               list(tcp.stats.outbound), list(tcp.stats.inbound),
               [(o.result, o.dst_port, o.latency, o.time) for o in udp.history],
               (dns.deadline, tcp.deadline, udp.deadline))
    apps = {}
    for name, app in sorted(device.apps.items()):
        parked = app._parked
        sent, lost = (parked.sent, parked.lost) if parked is not None else (0, 0)
        apps[name] = (app.exchanges + sent, app.successes,
                      app.consecutive_failures + lost,
                      [(d.start, d.end) for d in app.disruptions], list(app.reports_sent))
    return clients, apps


def tcp_block(supi: str, protocol: str = "tcp") -> FailureSpec:
    return FailureSpec(failure_class=FailureClass.DATA_DELIVERY, mode=FailureMode.BLOCK,
                       supi=supi, block_protocol=protocol,
                       clear_triggers=frozenset({ClearTrigger.AFTER_DURATION}),
                       duration=900.0)


def resolver_outage(supi: str, server: str) -> FailureSpec:
    return FailureSpec(failure_class=FailureClass.DATA_DELIVERY,
                       mode=FailureMode.DNS_OUTAGE, supi=supi, block_protocol="dns",
                       dns_server=server,
                       clear_triggers=frozenset({ClearTrigger.AFTER_DURATION}),
                       duration=900.0)


class TestDnsAndTcpWakes:
    """Each test acts on a parked app at ``act`` and compares the reads
    before and after with an eager run's."""

    def _compare(self, monkeypatch, apps, failure, act, parked_as, ttl=None):
        """``ttl`` shortens the web app's DNS cache: 10 s lets its
        queries meet a resolver outage."""
        def run(eager):
            if eager:
                monkeypatch.setattr(App, "_cadence", lambda self: None)
            if ttl is not None:
                monkeypatch.setattr(App, "DNS_CACHE_TTL", ttl)
            testbed = Testbed(seed=SEED, handling=HandlingMode.LEGACY)
            testbed.warm_up()
            sim, device = testbed.sim, testbed.device
            for name in apps:
                device.launch_app(name)
            sim.run(until=sim.now + 40.0)
            testbed.inject(failure(testbed))
            sim.run(until=sim.now + 60.0)
            before = device_reads(device)
            if not eager:
                assert parked_as(device)
            act(testbed)
            states = [before]
            for step in (0.5, 2.0, 8.0, 30.0):
                sim.run(until=sim.now + step)
                states.append(device_reads(device))
            monkeypatch.undo()
            return states

        assert run(False) == run(True)

    def test_resolver_failover_wakes(self, monkeypatch):
        def failure(testbed):
            return resolver_outage(testbed.device.supi, testbed.device.dns.server_ip)

        def failover(testbed):
            supi = testbed.device.supi
            backup = testbed.core.config_store.rotate_dns()
            assert testbed.core.smf.modify_session(supi, 1, new_dns_server=backup)
            # The session's resolver changed; the device still queries
            # the old one until the command reaches it.
            assert testbed.device.dns.server_ip != backup
            assert not testbed.device.dns.parking.cadences

        self._compare(monkeypatch, ["web"], failure, failover,
                      lambda device: device.dns.parking.cadences, ttl=10.0)

    def test_a_resolver_switch_on_the_device_wakes(self, monkeypatch):
        """The device points its client at the backup resolver, with no
        change at the UPF."""
        def failure(testbed):
            return resolver_outage(testbed.device.supi, testbed.device.dns.server_ip)

        def switch(testbed):
            testbed.device.dns.configure(testbed.core.config_store.rotate_dns())
            assert not testbed.device.dns.parking.cadences

        self._compare(monkeypatch, ["web"], failure, switch,
                      lambda device: device.dns.parking.cadences, ttl=10.0)

    @pytest.mark.parametrize("client", ["dns", "tcp"])
    def test_an_address_change_wakes(self, monkeypatch, client):
        def failure(testbed):
            supi = testbed.device.supi
            if client == "dns":
                return resolver_outage(supi, testbed.device.dns.server_ip)
            return tcp_block(supi)

        def move(testbed):
            getattr(testbed.device, client).device_ip = "10.255.0.9"

        apps = ["web"] if client == "dns" else ["live_stream"]
        self._compare(monkeypatch, apps, failure, move,
                      lambda device: getattr(device, client).parking.cadences,
                      ttl=10.0)

    def test_the_clean_up_rung_turns_requests_into_connects(self, monkeypatch):
        def failure(testbed):
            return tcp_block(testbed.device.supi)

        def clean_up(testbed):
            assert testbed.device.tcp.close_all() == 1

        self._compare(monkeypatch, ["video"], failure, clean_up,
                      lambda device: device.apps["video"]._parked is not None)

    def test_dns_cache_expiry_turns_connects_into_queries(self, monkeypatch):
        """The web app's cache (TTL shortened) expires while it is parked
        on connects; its queries then resolve."""
        def failure(testbed):
            return tcp_block(testbed.device.supi)

        def wait(testbed):
            web = testbed.device.apps["web"]
            testbed.sim.run(until=web._dns_cache[1] + 3.0)

        self._compare(monkeypatch, ["web"], failure, wait,
                      lambda device: device.tcp.parking.cadences[0].until
                      == device.apps["web"]._dns_cache[1], ttl=140.0)

    def test_stop_while_parked_on_queries(self, monkeypatch):
        def failure(testbed):
            return resolver_outage(testbed.device.supi, testbed.device.dns.server_ip)

        def stop(testbed):
            testbed.device.apps["web"].stop()

        self._compare(monkeypatch, ["web"], failure, stop,
                      lambda device: device.dns.parking.cadences, ttl=10.0)

    @pytest.mark.parametrize("name,reply", [("web", "dns"), ("web", "connect"),
                                            ("video", "request")])
    def test_a_reply_wakes(self, monkeypatch, name, reply):
        """A reply changes what the app sends next. No run delivers one
        to a parked app (the failure that parked it loses the reply
        too), so the same reply is handed to the parked and the eager
        app at one instant."""
        def failure(testbed):
            supi = testbed.device.supi
            if reply == "dns":
                return resolver_outage(supi, testbed.device.dns.server_ip)
            return tcp_block(supi)

        def answer(testbed):
            app = testbed.device.apps[name]
            if reply == "dns":
                app._on_web_dns(DnsOutcome(DnsResult.RESOLVED, app.profile.server,
                                           address=app.server_ip, time=testbed.sim.now))
            elif reply == "connect":
                app._on_tcp_connect(TcpConnection(0, app.server_ip, app.profile.port,
                                                  established=True))
            else:
                app._on_result(True)
            assert app._parked is None

        self._compare(monkeypatch, [name], failure, answer,
                      lambda device: device.apps[name]._parked is not None,
                      ttl=10.0 if reply == "dns" else None)


@pytest.mark.parametrize("phase", [
    0.3,
    pytest.param(0.0, marks=pytest.mark.xfail(
        strict=True, reason="at an exact tie with a parked connect the real "
        "connect takes its id first (DESIGN.md section 10, Connection ids)")),
])
def test_parked_connects_take_their_ids_before_a_real_connect(monkeypatch, phase):
    """The web app is parked on connects when live_stream starts on the
    same TCP client and connects until it reports: each SYN leaves with
    the source port the eager run gives it. At ``phase`` 0.0 live_stream
    ticks on the web app's grid."""
    def run(eager):
        if eager:
            monkeypatch.setattr(App, "_cadence", lambda self: None)
        testbed = Testbed(seed=SEED, handling=HandlingMode.LEGACY)
        testbed.warm_up()
        sim, device = testbed.sim, testbed.device
        upf = device.tcp.user_plane
        submit = upf.submit
        syns = []

        def record(packet, on_response=None):
            if packet.payload.get("flags") == "SYN":
                syns.append((sim.now, packet.src_port, packet.dst_port))
            return submit(packet, on_response)

        monkeypatch.setattr(upf, "submit", record)
        device.launch_app("web")
        sim.run(until=sim.now + 40.0)
        testbed.inject(tcp_block(device.supi))
        sim.run(until=sim.now + 60.0 + phase)
        if not eager:
            assert device.tcp.parking.cadences
        device.launch_app("live_stream")
        sim.run(until=sim.now + 10.0)
        device.tcp.parking.sync()
        next_id = repr(device.tcp._conn_ids)
        monkeypatch.undo()
        return syns, next_id

    (parked, parked_next), (eager, eager_next) = run(False), run(True)
    live = [syn for syn in parked if syn[2] == 1935]
    assert len(live) >= 3
    assert live == [syn for syn in eager if syn[2] == 1935][:len(live)]
    assert set(parked) <= set(eager)
    assert parked_next == eager_next


def test_a_quiescent_stop_freezes_parked_reads(monkeypatch):
    """A censored SEED-U UDP-block run stops while its edge AR app is
    parked: every read after the run is the eager run's at the stop."""
    monkeypatch.delenv("REPRO_FULL_HORIZON", raising=False)

    def run(eager):
        if eager:
            monkeypatch.setattr(App, "_cadence", lambda self: None)
        _result, testbed = run_one(scenario_by_name("dd_udp_block"),
                                   HandlingMode.SEED_U, seed=271849)
        monkeypatch.undo()
        return testbed.sim.quiesced_at, device_reads(testbed.device)

    assert run(False) == run(True)


class TestReplayBoundary:
    """A read inside a run leaves out parked events at exactly ``now``
    (they would fire after the running event); a read between runs
    includes them, whether the cadence is parked alone or beside
    another."""

    class Plane:
        def park(self, src_ip, protocol, wake, dst_ip=""):
            return True

    def _parked(self, shared: bool):
        sim = Simulator()
        parking = Parking(sim)

        def cadence(interval):
            return Cadence(interval, 0.25, None, False, lambda: None, "tick",
                           lambda: None, "retry", lambda _cadence: None)

        lone = cadence(0.5)
        assert parking.park(lone, self.Plane(), "10.0.0.2", Protocol.UDP)
        settled = []
        lone.settle = lambda start, end, _token: settled.append((start, end))
        if shared:  # a second cadence whose first tick lies far ahead
            assert parking.park(cadence(100.0), self.Plane(), "10.0.0.2", Protocol.UDP)
        return sim, parking, lone, settled

    @pytest.mark.parametrize("shared", [False, True])
    def test_events_at_now(self, shared):
        sim, parking, lone, settled = self._parked(shared)
        reads = []

        def read():
            parking.sync()
            reads.append((sim.now, lone.sent, lone.lost))

        # Ticks at 0.5, 1.0, 1.5; each times out 0.25 s later.
        for at in (0.75, 1.0, 1.25):
            sim.schedule_at(at, read)
        sim.run(until=1.0)
        read()
        sim.run(until=1.25)
        read()
        assert reads == [(0.75, 1, 0), (1.0, 1, 1), (1.0, 2, 1),
                         (1.25, 2, 1), (1.25, 2, 2)]
        assert settled == [(0.5, 0.75), (1.0, 1.25)]
        assert parking.armed == 1.25


class TestEventCount:
    @pytest.mark.parametrize("scenario,mode,eager,events", [
        ("dd_dns_outage", "legacy", False, 456),
        ("dd_dns_outage", "legacy", True, 4_363),
        ("dd_dns_outage", "seed_u", False, 422),
        ("dd_dns_outage", "seed_u", True, 4_346),
        ("dd_tcp_policy_block", "legacy", False, 220),
        ("dd_tcp_policy_block", "legacy", True, 2_850),
    ])
    def test_churn_runs(self, monkeypatch, scenario, mode, eager, events):
        """Stock timers, seed 777: a 2,400 s resolver outage the DNS
        detector sees, and a TCP policy block the TCP detector sees."""
        monkeypatch.delenv("REPRO_FULL_HORIZON", raising=False)
        if eager:
            monkeypatch.setattr(App, "_cadence", lambda self: None)
        _result, testbed = run_one(scenario_by_name(scenario), HandlingMode(mode),
                                   seed=777)
        assert testbed.sim.fired_events == events

    @pytest.mark.parametrize("eager,events", [(False, 542), (True, 10_213)])
    def test_gateway_stale_legacy_run(self, monkeypatch, eager, events):
        """Stock timers, seed 777: the app sits ~450 s in the hole."""
        monkeypatch.delenv("REPRO_FULL_HORIZON", raising=False)
        if eager:
            monkeypatch.setattr(App, "_cadence", lambda self: None)
        result, testbed = run_one(scenario_by_name("dd_gateway_stale"),
                                  HandlingMode.LEGACY, seed=777)
        assert result.recovered and result.duration == pytest.approx(450.15, abs=0.01)
        assert testbed.sim.fired_events == events
