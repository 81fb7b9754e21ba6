"""Quiescence-aware termination: kernel semantics + output parity.

The contract under test (PR 5): a run may stop as soon as the heap
holds only maintenance churn and the testbed's settledness predicate
holds, and doing so is *output-invariant* — every RunResult field,
learning record, and the fleet's aggregate.json must be byte-identical
to the full-horizon run (``REPRO_FULL_HORIZON=1``), at any worker
count and any steal order.
"""

from __future__ import annotations

import json

from repro.fleet.planner import plan_matrix
from repro.fleet.runner import FleetRunner
from repro.simkernel import PeriodicSampler, Monitor, Simulator
from repro.testbed.harness import HandlingMode, Testbed, run_one
from repro.testbed.scenarios import scenario_by_name


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
    "dd_udp_block", "dd_dns_outage",
]


def _run_pair(scenario_name, handling, seed, monkeypatch):
    scenario = scenario_by_name(scenario_name)
    monkeypatch.setenv("REPRO_FULL_HORIZON", "1")
    full_result, full_testbed = run_one(scenario, handling, seed=seed)
    monkeypatch.delenv("REPRO_FULL_HORIZON")
    quiet_result, quiet_testbed = run_one(scenario, handling, seed=seed)
    return (full_result, full_testbed), (quiet_result, quiet_testbed)


class TestRunParity:
    def test_runresult_and_learning_parity(self, monkeypatch):
        cases = [
            ("cp_state_desync", HandlingMode.LEGACY, 1000),
            ("dp_insufficient_resources", HandlingMode.SEED_R, 19),
            ("dd_dns_outage", HandlingMode.SEED_U, 1001),
            ("dd_udp_block", HandlingMode.SEED_R, 7),
        ]
        for name, handling, seed in cases:
            (full, full_tb), (quiet, quiet_tb) = _run_pair(
                name, handling, seed, monkeypatch)
            assert full.duration == quiet.duration, name
            assert full.recovered == quiet.recovered, name
            assert full.timed == quiet.timed, name
            assert full.notified_user == quiet.notified_user, name
            assert full_tb.learning_records() == quiet_tb.learning_records(), name
            assert full.meta["elided_events"] == 0
            assert full_tb.sim.quiesced_at is None

    def test_unrecovered_run_never_quiesces(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL_HORIZON", raising=False)
        scenario = scenario_by_name("dd_tcp_policy_block")
        result, testbed = run_one(scenario, HandlingMode.LEGACY, seed=1001)
        assert not result.recovered
        assert testbed.sim.quiesced_at is None
        assert result.meta["elided_events"] == 0

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
