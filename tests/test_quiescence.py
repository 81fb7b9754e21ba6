"""Quiescence-aware termination: kernel semantics + output parity.

The contract under test (PR 5): a run may stop as soon as the heap
holds only maintenance churn and the testbed's settledness predicate
holds, and doing so is *output-invariant* — every RunResult field,
learning record, app-level read, and the fleet's aggregate.json must
be byte-identical to the full-horizon run (``REPRO_FULL_HORIZON=1``),
at any worker count and any steal order. That holds for recovered runs
and for runs a configuration block censors at the horizon.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, Phase, assume, given, settings, strategies as st

from repro.device.android import AndroidOs, StallEvent, StallReason
from repro.fleet.planner import plan_matrix
from repro.fleet.runner import FleetRunner
from repro.infra.upf import BlockRule
from repro.simkernel import PeriodicSampler, Monitor, Simulator
from repro.testbed import harness
from repro.testbed.harness import HandlingMode, Testbed, run_one
from repro.testbed.measurement import HEARTBEAT, DisruptionMeter
from repro.testbed.scenarios import (
    ALL_SCENARIOS,
    ConnectivityTarget,
    scenario_by_name,
)
from repro.transport.dns import DnsClient
from repro.transport.packets import Protocol
from repro.transport.tcp import TcpClient


class Ticker:
    """Minimal pure maintenance timer (the DET006 shape)."""

    def __init__(self, sim, interval=5.0):
        self.sim = sim
        self.interval = interval
        self.fired = 0
        self.sim.schedule(self.interval, self._tick, label="ticker",
                          maintenance=True)

    def _tick(self):
        self.fired += 1
        self.sim.schedule(self.interval, self._tick, label="ticker",
                          maintenance=True)


class TestMaintenanceClassification:
    def test_default_schedule_is_substantive(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.substantive_pending == 1

    def test_maintenance_schedule_is_not_substantive(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None, maintenance=True)
        sim.schedule_fire(1.0, lambda: None, maintenance=True)
        assert sim.substantive_pending == 0

    def test_cancel_releases_substantive_count(self):
        sim = Simulator()
        event = sim.schedule(720.0, lambda: None, label="t3502")
        assert sim.substantive_pending == 1
        assert event.cancel()
        assert sim.substantive_pending == 0
        assert not event.cancel()  # second cancel is a no-op
        assert sim.substantive_pending == 0

    def test_children_inherit_maintenance_taint(self):
        """Work scheduled *while dispatching* a maintenance event is
        maintenance too, unless explicitly overridden — a periodic
        probe's transport children must not look substantive."""
        sim = Simulator()
        seen = []

        def tick():
            sim.schedule(1.0, lambda: None, label="child")
            seen.append(sim.substantive_pending)

        sim.schedule(1.0, tick, maintenance=True)
        sim.run(until=1.5)
        assert seen == [0]  # the child inherited the taint

    def test_explicit_flag_overrides_inherited_taint(self):
        sim = Simulator()
        seen = []

        def tick():
            sim.schedule(1.0, lambda: None, maintenance=False)
            seen.append(sim.substantive_pending)

        sim.schedule(1.0, tick, maintenance=True)
        sim.run(until=1.5)
        assert seen == [1]

    def test_substantive_dispatch_does_not_taint_children(self):
        sim = Simulator()
        seen = []

        def work():
            sim.schedule(1.0, lambda: None)
            seen.append(sim.substantive_pending)

        sim.schedule(1.0, work)
        sim.run(until=1.5)
        assert seen == [1]


class TestRunQuiescent:
    def test_stops_early_but_clock_reaches_until(self):
        sim = Simulator()
        ticker = Ticker(sim)
        elided = sim.run_quiescent(1000.0, lambda: True)
        assert sim.now == 1000.0           # post-run reads see the horizon
        assert sim.quiesced_at == 0.0      # nothing substantive ever ran
        assert ticker.fired == 0
        assert elided == 1                 # the armed tick was discarded

    def test_substantive_event_defers_quiescence(self):
        sim = Simulator()
        Ticker(sim, interval=5.0)
        fired = []
        sim.schedule(50.0, lambda: fired.append(sim.now))
        elided = sim.run_quiescent(1000.0, lambda: True)
        assert fired == [50.0]             # substantive work always runs
        assert sim.quiesced_at == 50.0
        assert elided == 1

    def test_false_predicate_burns_the_horizon(self):
        sim = Simulator()
        ticker = Ticker(sim, interval=5.0)
        elided = sim.run_quiescent(100.0, lambda: False)
        assert elided == 0
        assert sim.quiesced_at is None
        assert ticker.fired == 20

    def test_cancelled_substantive_event_unblocks_quiescence(self):
        """The legacy-retry pattern: a long guard timer is armed, then
        cancelled on success — quiescence must not wait for its slot."""
        sim = Simulator()
        Ticker(sim, interval=5.0)
        guard = sim.schedule(720.0, lambda: None, label="guard")

        def succeed():
            guard.cancel()

        sim.schedule(10.0, succeed)
        sim.run_quiescent(1000.0, lambda: True)
        assert sim.quiesced_at == 10.0

    def test_elided_counter_accumulates_across_runs(self):
        sim = Simulator()
        Ticker(sim)
        sim.run_quiescent(10.0, lambda: True)
        first = sim.elided_events
        Ticker(sim)
        sim.run_quiescent(20.0, lambda: True)
        assert first == 1 and sim.elided_events == 2

    def test_predicate_gate_and_maintenance_gate_are_conjunctive(self):
        sim = Simulator()
        Ticker(sim, interval=5.0)
        allowed = []

        def predicate():
            return bool(allowed)

        sim.schedule(12.0, lambda: allowed.append(True))
        sim.run_quiescent(1000.0, predicate)
        assert sim.quiesced_at == 12.0


class TestPeriodicSampler:
    def test_samples_at_cadence_without_blocking_quiescence(self):
        sim = Simulator()
        monitor = Monitor(sim)
        values = iter(range(100))
        sampler = PeriodicSampler(monitor, "load", lambda: next(values), 10.0)
        sampler.start()
        assert sim.substantive_pending == 0
        sim.run(until=35.0)
        assert monitor.series["load"].values == [0, 1, 2]
        sim.run_quiescent(100.0, lambda: True)
        assert sim.now == 100.0
        assert monitor.series["load"].values == [0, 1, 2]  # tail elided

    def test_stop_halts_rearming(self):
        sim = Simulator()
        monitor = Monitor(sim)
        sampler = PeriodicSampler(monitor, "x", lambda: 1.0, 10.0)
        sampler.start()
        sim.run(until=15.0)
        sampler.stop()
        sim.run(until=100.0)
        assert monitor.series["x"].values == [1.0]


PARITY_PATTERNS = [
    "cp_timeout_transient", "cp_state_desync",
    "dp_outdated_dnn", "dp_insufficient_resources",
    "dd_tcp_policy_block", "dd_udp_block", "dd_dns_outage",
]

#: The matrix cells no handling recovers within the horizon: a
#: configuration block only SEED-R's uplink report can lift.
CENSORED_CELLS = [
    ("dd_udp_block", HandlingMode.LEGACY),
    ("dd_udp_block", HandlingMode.SEED_U),
    ("dd_tcp_policy_block", HandlingMode.LEGACY),
    ("dd_tcp_policy_block", HandlingMode.SEED_U),
]


def _run_pair(scenario_name, handling, seed, monkeypatch):
    scenario = scenario_by_name(scenario_name)
    monkeypatch.setenv("REPRO_FULL_HORIZON", "1")
    full_result, full_testbed = run_one(scenario, handling, seed=seed)
    monkeypatch.delenv("REPRO_FULL_HORIZON")
    quiet_result, quiet_testbed = run_one(scenario, handling, seed=seed)
    return (full_result, full_testbed), (quiet_result, quiet_testbed)


def app_reads(testbed):
    """Post-run reads below the record: per-app disruptions and
    reports, UI notifications, Android stalls and ladder actions."""
    device = testbed.device
    apps = {
        name: ([(d.start, d.end) for d in app.disruptions],
               list(app.reports_sent), app.perceived_disruption_total())
        for name, app in device.apps.items()
    }
    android = device.android
    return (apps, list(device.ui_notifications),
            [(stall.time, stall.reason) for stall in android.stalls],
            list(android.recovery_actions))


def failure_state(testbed):
    """Every injected failure's clear record (ambient clears a stop
    discarded are recorded by ``FailureEngine.settle``)."""
    return [(f.cleared, f.cleared_at, f.cleared_by)
            for f in testbed.core.engine.history]


def _assert_parity(full, full_tb, quiet, quiet_tb, name):
    assert full.measurement.recovered_at == quiet.measurement.recovered_at, name
    assert full.duration == quiet.duration, name
    assert full.recovered == quiet.recovered, name
    assert full.timed == quiet.timed, name
    assert full.notified_user == quiet.notified_user, name
    assert full_tb.learning_records() == quiet_tb.learning_records(), name
    assert app_reads(full_tb) == app_reads(quiet_tb), name
    assert failure_state(full_tb) == failure_state(quiet_tb), name
    assert full.meta["elided_events"] == 0
    assert full_tb.sim.quiesced_at is None


class TestRunParity:
    def test_runresult_and_learning_parity(self, monkeypatch):
        cases = [
            ("cp_state_desync", HandlingMode.LEGACY, 1000),
            ("dp_insufficient_resources", HandlingMode.SEED_R, 19),
            ("dd_dns_outage", HandlingMode.SEED_U, 1001),
            ("dd_udp_block", HandlingMode.SEED_R, 7),
        ] + [(name, handling, 1002) for name, handling in CENSORED_CELLS]
        for name, handling, seed in cases:
            (full, full_tb), (quiet, quiet_tb) = _run_pair(
                name, handling, seed, monkeypatch)
            _assert_parity(full, full_tb, quiet, quiet_tb, name)
            if (name, handling) in CENSORED_CELLS:
                assert not quiet.recovered, name
                assert quiet_tb.sim.quiesced_at is not None, name

    def test_unrecovered_run_never_quiesces(self, monkeypatch):
        """An unrecovered run keeps its horizon-censored record, but it
        stops as soon as nothing left on the heap can change it: here,
        once the stock 3 x 210 s legacy ladder has run out against a TCP
        policy block that only SEED-R's report could lift."""
        (full, full_tb), (quiet, quiet_tb) = _run_pair(
            "dd_tcp_policy_block", HandlingMode.LEGACY, 1001, monkeypatch)
        assert not quiet.recovered
        assert quiet.duration == quiet.horizon
        assert quiet_tb.sim.quiesced_at is not None
        assert quiet_tb.sim.quiesced_at < quiet.measurement.onset + quiet.horizon
        assert quiet.meta["elided_events"] > 0
        assert len(quiet_tb.device.android.recovery_actions) == 3
        _assert_parity(full, full_tb, quiet, quiet_tb, "dd_tcp_policy_block")

    def test_censored_run_fires_a_hundredth_of_its_events(self, monkeypatch):
        """Machine-independent size of the saving: a legacy UDP-block
        run is fixed once the AR app's disruption opens, a fraction of a
        second after onset, instead of 10 Hz traffic to the horizon."""
        (full, full_tb), (quiet, quiet_tb) = _run_pair(
            "dd_udp_block", HandlingMode.LEGACY, 1001, monkeypatch)
        assert quiet_tb.sim.fired_events * 100 <= full_tb.sim.fired_events
        _assert_parity(full, full_tb, quiet, quiet_tb, "dd_udp_block")

    def test_recovered_run_quiesces_and_reports_elision(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL_HORIZON", raising=False)
        scenario = scenario_by_name("cp_state_desync")
        result, testbed = run_one(scenario, HandlingMode.SEED_R, seed=1001)
        assert result.recovered
        assert testbed.sim.quiesced_at is not None
        assert testbed.sim.quiesced_at < result.horizon
        assert result.meta["elided_events"] > 0

    def test_aggregate_bytes_identical_across_modes_and_workers(
            self, tmp_path, monkeypatch):
        """The headline guarantee: full-horizon and quiescent fleet
        runs produce byte-identical aggregate.json, at 1 worker and at
        4 workers (work stealing, arbitrary completion order)."""
        plan = plan_matrix(scenario_patterns=PARITY_PATTERNS,
                           replicas=1, master_seed=5, shard_size=1)

        def aggregate_bytes(tag, workers, full_horizon):
            if full_horizon:
                monkeypatch.setenv("REPRO_FULL_HORIZON", "1")
            else:
                monkeypatch.delenv("REPRO_FULL_HORIZON", raising=False)
            out = tmp_path / tag
            FleetRunner(plan, workers=workers, out_dir=str(out)).run()
            return (out / "aggregate.json").read_bytes()

        reference = aggregate_bytes("full-w1", 1, full_horizon=True)
        assert aggregate_bytes("quiet-w1", 1, full_horizon=False) == reference
        assert aggregate_bytes("quiet-w4", 4, full_horizon=False) == reference
        # The reference itself is meaningful: every cell present.
        aggregate = json.loads(reference)
        assert aggregate["tasks"] == len(plan.tasks)

    def test_quiescent_fleet_records_elision(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_FULL_HORIZON", raising=False)
        plan = plan_matrix(scenario_patterns=["cp_state_desync"],
                           modes=[HandlingMode.SEED_R],
                           replicas=2, master_seed=5, shard_size=1)
        report = FleetRunner(plan, workers=1).run()
        assert report.elided_events > 0
        assert all("elided_events" in r for r in report.records)
        # ... but elision stays out of the deterministic surface.
        assert "elided_events" not in json.dumps(report.aggregate)


def _substantive_added_by(sim, action):
    """Run ``action`` inside a maintenance dispatch (the context app
    traffic and Android's detectors run in); return how many
    substantive events it left pending."""
    added = []

    def tick():
        before = sim.substantive_pending
        action()
        added.append(sim.substantive_pending - before)

    sim.schedule(0.0, tick, label="test:tick", maintenance=True)
    sim.run(until=sim.now)
    return added[0]


class TestSubstantiveHandoff:
    """Work churn hands to SEED or to Android's recovery ladder is
    substantive even when scheduled from a maintenance dispatch, so the
    kernel never consults the settledness predicate mid-pipeline."""

    def test_app_report_is_substantive(self):
        testbed = Testbed(seed=3, handling=HandlingMode.SEED_R)
        testbed.warm_up()
        carrier_app = testbed.carrier_app
        assert _substantive_added_by(testbed.sim, lambda: carrier_app.report_failure(
            "udp", "both", "203.0.113.10:9000")) == 1

    def test_os_stall_report_is_substantive(self):
        testbed = Testbed(seed=3, handling=HandlingMode.SEED_U)
        testbed.warm_up()
        stall = StallEvent(time=testbed.sim.now, reason=StallReason.TCP_FAILURE)
        assert _substantive_added_by(
            testbed.sim, lambda: testbed.carrier_app._on_os_stall(stall)) == 1

    def test_ladder_rung_is_substantive(self):
        testbed = Testbed(seed=3, handling=HandlingMode.LEGACY)
        testbed.warm_up()
        android = testbed.device.android
        assert _substantive_added_by(
            testbed.sim, lambda: android._schedule_rung(0)) == 1
        assert android._ladder_event.pending


class TestPurgeSessionsApi:
    def test_public_purge_releases_sessions(self):
        testbed = Testbed(seed=3, handling=HandlingMode.LEGACY)
        testbed.warm_up()
        supi = testbed.device.supi
        assert testbed.core.upf.active_sessions(supi)
        testbed.core.purge_sessions(supi)
        assert not testbed.core.upf.active_sessions(supi)

    def test_amf_cleanup_hook_uses_public_name(self):
        testbed = Testbed(seed=3, handling=HandlingMode.LEGACY)
        assert testbed.core.amf.cleanup_hook == testbed.core.purge_sessions


class TestNextEventTime:
    def test_empty_heap_is_none(self):
        assert Simulator().next_event_time() is None

    def test_cancelled_heads_are_discarded(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        second = sim.schedule(2.0, lambda: None)
        sim.schedule_fire(3.0, lambda: None)
        first.cancel()
        second.cancel()
        assert sim.next_event_time() == 3.0
        assert len(sim._heap) == 1  # the cancelled heads were popped
        sim.run_until_idle()
        assert sim.next_event_time() is None

    def test_only_cancelled_entries_is_none(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None).cancel()
        assert sim.next_event_time() is None

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 20), st.booleans(), st.booleans()),
                    max_size=25))
    def test_equals_the_time_run_fires_next(self, specs):
        """(delay, cancelled, fire-and-forget) schedules, some chaining
        a child: each ``next_event_time()`` is the time of the next
        batch ``run`` fires."""
        sim = Simulator()
        fired: list[float] = []

        def note(chain: bool) -> None:
            fired.append(sim.now)
            if chain:
                sim.schedule(0.5, note, False)

        for delay, cancelled, bare in specs:
            if bare:
                sim.schedule_fire(delay / 4, note, cancelled)
            else:
                event = sim.schedule(delay / 4, note, False)
                if cancelled:
                    event.cancel()
        while True:
            upcoming = sim.next_event_time()
            if upcoming is None:
                assert sim.pending_events == 0
                break
            before = len(fired)
            sim.run(until=upcoming)
            assert len(fired) > before
            assert set(fired[before:]) == {upcoming}


class EagerHeartbeatMeter(DisruptionMeter):
    """The reference heartbeat: re-armed on every grid point, whether
    or not anything could have changed since the last check."""

    def _heartbeat(self) -> None:
        if not self._armed:
            return
        self._check()
        if self._armed:
            self.sim.schedule(HEARTBEAT, self._heartbeat,
                              label="meter:heartbeat", maintenance=True)


def observables(result, testbed):
    """Everything a run reports: the record fields, learning, app-level
    reads and failure state (elision is audit data)."""
    measurement = result.measurement
    return ((result.scenario, result.handling, measurement.onset,
             measurement.recovered_at, result.duration, result.recovered,
             result.timed, result.notified_user, result.horizon),
            testbed.learning_records(), app_reads(testbed),
            failure_state(testbed))


class TestLazyHeartbeat:
    """The parity suites compare two runs that share the lazy heartbeat,
    so they cannot catch a bug in it; this compares it with the eager
    chain it replaces, on every matrix cell."""

    @pytest.mark.parametrize("full_horizon", [False, True])
    def test_matches_the_eager_heartbeat_on_every_cell(
            self, monkeypatch, full_horizon):
        if full_horizon:
            monkeypatch.setenv("REPRO_FULL_HORIZON", "1")
        else:
            monkeypatch.delenv("REPRO_FULL_HORIZON", raising=False)
        lazy_events = eager_events = 0
        for seed in (1001, 2718):
            for scenario in ALL_SCENARIOS:
                for handling in HandlingMode:
                    lazy, lazy_tb = run_one(scenario, handling, seed=seed)
                    monkeypatch.setattr(harness, "DisruptionMeter",
                                        EagerHeartbeatMeter)
                    eager, eager_tb = run_one(scenario, handling, seed=seed)
                    monkeypatch.setattr(harness, "DisruptionMeter",
                                        DisruptionMeter)
                    name = (scenario.name, handling, seed)
                    assert isinstance(eager_tb.meter, EagerHeartbeatMeter)
                    assert (observables(lazy, lazy_tb)
                            == observables(eager, eager_tb)), name
                    lazy_events += lazy_tb.sim.fired_events
                    eager_events += eager_tb.sim.fired_events
        assert lazy_events < eager_events


class TestHeartbeatGrid:
    def _blocked_meter(self):
        testbed = Testbed(seed=3, handling=HandlingMode.LEGACY)
        testbed.warm_up()
        upf = testbed.core.upf
        # Configuration the meter hears nothing about when it changes.
        upf.rules.append(BlockRule(protocol=Protocol.TCP, port=443))
        meter = DisruptionMeter(testbed.sim, testbed.core, testbed.device,
                                ConnectivityTarget(needs_dns=False))
        meter.start()
        return testbed.sim, upf, meter

    def test_silent_change_on_a_grid_point_is_seen_there(self):
        """A change landing exactly on a skipped-to grid point fires
        before the heartbeat, as it did before the eager re-arm."""
        sim, upf, meter = self._blocked_meter()
        onset = meter.measurement.onset
        lifted = onset + 3 * HEARTBEAT
        sim.schedule_at(lifted, upf.rules.clear)
        sim.run(until=onset + 30.0)
        assert meter.measurement.recovered_at == lifted

    def test_silent_change_between_grid_points_is_seen_at_the_next(self):
        sim, upf, meter = self._blocked_meter()
        onset = meter.measurement.onset
        sim.schedule_at(onset + 5.1, upf.rules.clear)
        sim.run(until=onset + 30.0)
        assert meter.measurement.recovered_at == onset + 3 * HEARTBEAT


def _bare_android(now: float) -> AndroidOs:
    sim = Simulator()
    sim.now = now
    return AndroidOs(sim, None, None, DnsClient(sim, None), TcpClient(sim, None))


def _window_only(android: AndroidOs, window: float = 60.0) -> bool:
    """Mutant reference for the property below: judges the failure rate
    of the whole current window only, no suffix."""
    stats = android.tcp.stats
    now = android.sim.now
    return (stats.failure_rate(now, window) < 0.8
            and not stats.outbound_without_inbound(now, window))


def _ticks_stay_green(android, attempts, outbound, inbound, ahead, added,
                      quiet) -> None:
    stats = android.tcp.stats
    stats.attempts = sorted((float(t), ok) for t, ok in attempts)
    stats.outbound = sorted(float(t) for t in outbound)
    stats.inbound = sorted(float(t) for t in inbound)
    now = android.sim.now
    assume(quiet(android))
    tick = now + ahead
    for offset in sorted(added):
        at = now + ahead * offset / 1000
        stats.note_outbound(at)
        stats.note_attempt(at, True)
        stats.note_inbound(at)
    assert stats.failure_rate(tick) <= 0.8
    assert not stats.outbound_without_inbound(tick)


#: Histories around a 60 s window ending at 120 s; later ticks up to
#: 75 s ahead (past 60 s a tick sees only the added successes).
HISTORY = dict(
    attempts=st.lists(st.tuples(st.integers(50, 120), st.booleans()),
                      max_size=30),
    outbound=st.lists(st.integers(50, 120), max_size=16),
    inbound=st.lists(st.integers(0, 120), max_size=6),
    ahead=st.integers(1, 75),
    added=st.lists(st.integers(0, 1000), max_size=8),
)


class TestAndroidLookAhead:
    """``detectors_quiet()`` accepts failed attempts still inside the
    window only when no later evaluation tick can trip on them."""

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(**HISTORY)
    def test_quiet_detectors_never_trip_at_a_later_tick(
            self, attempts, outbound, inbound, ahead, added):
        _ticks_stay_green(_bare_android(120.0), attempts, outbound, inbound,
                          ahead, added, AndroidOs.detectors_quiet)

    def test_property_catches_a_whole_window_mutant(self):
        """The same property, run against a predicate that judges only
        the current window, finds a window whose old successes age out
        first."""

        @settings(max_examples=400, deadline=None, derandomize=True,
                  database=None, phases=[Phase.generate],
                  suppress_health_check=[HealthCheck.filter_too_much])
        @given(**HISTORY)
        def mutant_property(attempts, outbound, inbound, ahead, added):
            _ticks_stay_green(_bare_android(120.0), attempts, outbound,
                              inbound, ahead, added, _window_only)

        with pytest.raises(AssertionError):
            mutant_property()

    def test_whole_window_check_alone_is_not_enough(self):
        android = _bare_android(120.0)
        android.tcp.stats.attempts = [(61.0, True)] * 4 + [(100.0, False)] * 4
        assert _window_only(android)
        assert not android.detectors_quiet()
        assert android.tcp.stats.failure_rate(150.0) > 0.8

    def test_outbounds_after_the_last_inbound_are_bounded(self):
        android = _bare_android(120.0)
        stats = android.tcp.stats
        stats.inbound = [70.0]
        stats.outbound = [80.0 + i for i in range(11)]
        assert not stats.outbound_without_inbound(120.0)  # green today
        assert not android.detectors_quiet()
        assert stats.outbound_without_inbound(135.0)  # once 70 s ages out
        stats.outbound.pop(0)
        assert android.detectors_quiet()

    def test_failed_attempts_in_the_window_no_longer_block(self):
        android = _bare_android(120.0)
        android.tcp.stats.attempts = [(70.0, False)] + [(80.0, True)] * 4
        android.tcp.stats.inbound = [80.0]
        assert android.detectors_quiet()


class TestSettledPaths:
    """The look-ahead of ``detectors_quiet()`` assumes every later TCP
    attempt succeeds; both branches of ``settled()`` enforce that."""

    def test_recovered_run_needs_a_passing_probe_path(self):
        testbed = Testbed(seed=3, handling=HandlingMode.LEGACY)
        testbed.warm_up()
        sim = testbed.sim
        meter = DisruptionMeter(sim, testbed.core, testbed.device,
                                ConnectivityTarget(needs_tcp=False, needs_udp=True,
                                                   needs_dns=False, port=9000))
        meter.start()
        assert meter.measurement.recovered_at == sim.now
        upf = testbed.core.upf
        upf.rules.append(BlockRule(protocol=Protocol.TCP, port=443))
        sim.run(until=sim.now + 1.0)
        assert not meter.settled()  # the next validation probe would fail
        upf.rules.clear()
        assert meter.settled()

    def test_blocked_tcp_app_vetoes_a_censored_stop(self, monkeypatch):
        testbed = Testbed(seed=3, handling=HandlingMode.LEGACY)
        testbed.warm_up()
        sim, device = testbed.sim, testbed.device
        testbed.core.config_store.policy_for(device.supi).blocked.add(
            ("tcp", "both", 1935))
        meter = DisruptionMeter(sim, testbed.core, device,
                                ConnectivityTarget(needs_dns=False, port=1935))
        meter.start()
        app = device.launch_app("live_stream")
        sim.run(until=sim.now + 6.0)
        assert app.reported_open()
        monkeypatch.setattr(device.android, "detectors_quiet", lambda: True)
        assert not meter.settled()
        # The same stop is fine once no blocked app talks TCP.
        del device.apps["live_stream"]
        assert meter.settled()


class TestSettleCost:
    """Machine-independent pins of what the three rules save."""

    def test_recovered_run_stops_at_its_last_exchange_deadline(
            self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL_HORIZON", raising=False)
        result, testbed = run_one(scenario_by_name("dd_gateway_stale"),
                                  HandlingMode.SEED_R, seed=1001)
        assert result.recovered
        # A fixed 10 s grace after recovery used to stop it 10.04 s on.
        assert testbed.sim.quiesced_at - result.measurement.recovered_at < 3.0

    def test_legacy_run_fires_no_idle_heartbeats(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL_HORIZON", raising=False)
        result, testbed = run_one(scenario_by_name("cp_identity_desync"),
                                  HandlingMode.LEGACY, seed=1001)
        assert result.recovered
        # 525 with an eager 2 s heartbeat and the 10 s grace.
        assert testbed.sim.fired_events <= 250
