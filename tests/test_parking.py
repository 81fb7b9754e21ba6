"""Parked UDP cadences: an app black-holed at the UPF stops simulating
its exchanges until their fate can change.

Every test runs the same scenario twice, parked and eager (the park
predicate patched off), and compares what the app and its UDP client
hold. A parked app takes the counts of its skipped exchanges back when
it wakes, so a snapshot taken while it is parked adds the tallies the
client still holds.
"""

from __future__ import annotations

import pytest

from repro.device.apps import App
from repro.infra.failures import ClearTrigger, FailureClass, FailureMode, FailureSpec
from repro.testbed.harness import Cohort, CohortMember, HandlingMode, Testbed, run_one
from repro.testbed.scenarios import scenario_by_name

#: At this seed the exchanges dropped just before the clear time out
#: after the first success and reopen a 28 ms disruption.
SEED = 4
BLACK_HOLE = 20.0


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
    parked = udp._parked
    sent, lost = (parked.sent, parked.lost) if parked is not None else (0, 0)
    return (app.exchanges + sent, app.successes, app.consecutive_failures + lost,
            [(d.start, d.end) for d in app.disruptions], list(app.reports_sent),
            history, udp.deadline)


def launch(eager: bool, monkeypatch, seed: int = SEED):
    """A legacy testbed whose edge AR app reports into a list, and the
    injection time of a black hole that clears after BLACK_HOLE s."""
    if eager:
        monkeypatch.setattr(App, "_park", lambda self: False)
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
        """Navigation shares the edge AR app's UDP client and stays
        eager (its failures schedule retries): its outcomes interleave
        with the parked app's in the shared history."""
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
        assert app.udp._parked is None
        testbed.sim.run(until=injected + 1.0)
        assert app.udp._parked is not None
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
        assert parked_app.udp._parked is None
        assert "app:edge_ar" not in parked_tb.sim.pending_labels()
        assert parked_app.exchanges == parked_at_stop[0]


class TestWakes:
    def _pair(self, supi_scoped=True):
        members = [CohortMember(scenario=None), CohortMember(scenario=None)]
        cohort = Cohort(members, seed=11)
        cohort.warm_up()
        sim, engine = cohort.sim, cohort.core.engine
        apps = [slot.device.launch_app("edge_ar") for slot in cohort.slots]
        sim.run(until=sim.now + 1.0)
        supis = [slot.supi for slot in cohort.slots] if supi_scoped else [""]
        failures = [engine.inject(black_hole(supi, duration=600.0)) for supi in supis]
        sim.run(until=sim.now + 1.0)
        assert all(app.udp._parked is not None for app in apps)
        return cohort, apps, failures

    def test_a_members_clear_wakes_only_that_member(self):
        cohort, apps, failures = self._pair()
        cohort.core.engine.note_session_reset(cohort.slots[0].supi)
        assert failures[0].cleared and not failures[1].cleared
        assert apps[0].udp._parked is None
        assert apps[1].udp._parked is not None

    def test_a_members_session_change_wakes_only_that_member(self):
        cohort, apps, _failures = self._pair()
        upf = cohort.core.upf
        ctx = upf.remove_session(cohort.slots[1].supi, 1)
        assert apps[1].udp._parked is None
        assert apps[0].udp._parked is not None
        apps[1].udp.wake()  # idempotent
        cohort.sim.run(until=cohort.sim.now + 1.0)  # no route: stays eager
        assert apps[1].udp._parked is None
        upf.add_session(ctx)
        cohort.sim.run(until=cohort.sim.now + 1.0)  # dropped again: parks
        assert apps[1].udp._parked is not None

    def test_an_address_change_wakes(self):
        cohort, apps, _failures = self._pair()
        udp = apps[0].udp
        udp.device_ip = udp.device_ip
        assert udp._parked is not None
        udp.device_ip = "10.255.0.9"
        assert udp._parked is None and apps[1].udp._parked is not None

    def test_an_unscoped_clear_wakes_every_member(self):
        cohort, apps, failures = self._pair(supi_scoped=False)
        cohort.core.engine.clear_all()
        assert failures[0].cleared
        assert all(app.udp._parked is None for app in apps)


class TestEventCount:
    @pytest.mark.parametrize("eager,events", [(False, 1_261), (True, 10_213)])
    def test_gateway_stale_legacy_run(self, monkeypatch, eager, events):
        """Stock timers, seed 777: the app sits ~450 s in the hole."""
        monkeypatch.delenv("REPRO_FULL_HORIZON", raising=False)
        if eager:
            monkeypatch.setattr(App, "_park", lambda self: False)
        result, testbed = run_one(scenario_by_name("dd_gateway_stale"),
                                  HandlingMode.LEGACY, seed=777)
        assert result.recovered and result.duration == pytest.approx(450.15, abs=0.01)
        assert testbed.sim.fired_events == events
