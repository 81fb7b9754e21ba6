"""The experiment harness: one UE per simulator.

A :class:`Testbed` is one device + one core, optionally with SEED
deployed (user mode or root mode), brought to steady state, then hit
by a scenario whose disruption the connectivity oracle measures. It is
a facade over :class:`Cohort`, the one UE host, which holds exactly
one member; a run ends when that UE has settled (quiescence) or its
horizon has elapsed. ``run_suite`` replays a scenario mix (drawn with
the trace-study weights) across many independent runs, mirroring the
paper's §7.1.1 methodology of reproducing dataset failures on the
testbed.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass, field

from repro.core.deploy import SeedDeployment, deploy_seed
from repro.core.reset import ResetAction
from repro.device.android import AndroidTimers
from repro.device.device import Device
from repro.device.modem import ModemLatencies
from repro.infra.core_network import CoreNetwork
from repro.infra.failures import ActiveFailure, FailureClass, FailureSpec
from repro.nas.timers import DEFAULT_TIMERS, StandardTimers
from repro.sim_card.profile import SimProfile
from repro.simkernel.simulator import Simulator
from repro.testbed.measurement import DisruptionMeter, Measurement
from repro.testbed.scenarios import Scenario, ScenarioInstance, mix_for


class HandlingMode(enum.Enum):
    """Who handles failures in a run (Table 4 columns)."""

    LEGACY = "legacy"
    SEED_U = "seed_u"
    SEED_R = "seed_r"

    @property
    def uses_seed(self) -> bool:
        return self is not HandlingMode.LEGACY

    @property
    def rooted(self) -> bool:
        return self is HandlingMode.SEED_R


# Measurement horizons per failure class (beyond the legacy tails).
HORIZONS = {
    FailureClass.CONTROL_PLANE: 2400.0,
    FailureClass.DATA_PLANE: 4500.0,
    FailureClass.DATA_DELIVERY: 3200.0,
}

WARMUP = 12.0

SUBSCRIBER_K = bytes.fromhex("465b5ce8b199b49faa5f0a2ee238a6bc")
SUBSCRIBER_OPC = bytes.fromhex("cd63cb71954a9f4e48a5994e37a02baf")


@dataclass
class RunResult:
    """Outcome of one scenario run."""

    scenario: str
    handling: HandlingMode
    measurement: Measurement
    horizon: float
    timed: bool
    notified_user: bool = False
    meta: dict = field(default_factory=dict)

    @property
    def recovered(self) -> bool:
        return self.measurement.recovered

    @property
    def duration(self) -> float:
        return self.measurement.duration(self.measurement.onset + self.horizon)


class Testbed:
    """One device + one core, under a chosen handling mode.

    A facade over a :class:`Cohort` (``self.cohort``) whose simulator
    draws from ``RngStreams(seed)``. Everything per-UE — state (``sim``,
    ``core``, ``device``, ``deployment``, ``meter``) and actions
    (``applet``, ``inject``, the triggers, ``learning_records``) — is
    the member's :class:`UeSlot`, reached through attribute delegation.
    """

    def __init__(
        self,
        seed: int = 0,
        handling: HandlingMode = HandlingMode.LEGACY,
        android_timers: AndroidTimers | None = None,
        timers: StandardTimers = DEFAULT_TIMERS,
        modem_latencies: ModemLatencies | None = None,
        custom_actions: dict[int, ResetAction] | None = None,
        learning_rate: float = 0.05,
    ) -> None:
        member = CohortMember(scenario=None, handling=handling,
                              android_timers=android_timers)
        self.cohort = Cohort([member], seed=seed, timers=timers,
                             modem_latencies=modem_latencies,
                             custom_actions=custom_actions,
                             learning_rate=learning_rate)
        self._slot = self.cohort.slots[0]

    def __getattr__(self, name: str):
        if name == "_slot":  # a bare instance, as copy and pickle build
            raise AttributeError(name)
        return getattr(self._slot, name)

    # ------------------------------------------------------------------
    def warm_up(self) -> None:
        """Boot the device to steady state (registered, session up)."""
        self.cohort.warm_up()

    def run_scenario(self, scenario: Scenario, horizon: float | None = None) -> RunResult:
        """Warm up, inject, trigger, and measure one scenario."""
        self.warm_up()
        member = self._slot.member
        member.scenario, member.horizon = scenario, horizon
        return self.cohort._run_member()


def pick_scenario(failure_class: FailureClass, seed: int) -> Scenario:
    """The suite's weighted scenario draw for one run seed.

    Kept as a standalone function so that ``run_suite`` and the fleet
    planner (which expands the same suite into shards ahead of time)
    agree on the draw for every ``(failure_class, seed)`` pair.
    """
    mix = mix_for(failure_class)
    weights = [s.weight for s in mix]
    picker = Simulator(seed=seed).rng
    return picker.weighted_choice("suite.pick", list(mix), weights)


def run_one(
    scenario: Scenario,
    handling: HandlingMode,
    seed: int,
    android_timers: AndroidTimers | None = None,
    learning_rate: float = 0.05,
    horizon: float | None = None,
) -> tuple[RunResult, Testbed]:
    """Run one scenario on a fresh testbed; returns result + testbed."""
    testbed = Testbed(seed=seed, handling=handling,
                      android_timers=android_timers, learning_rate=learning_rate)
    result = testbed.run_scenario(scenario, horizon=horizon)
    return result, testbed


def run_suite(
    failure_class: FailureClass,
    handling: HandlingMode,
    runs: int = 40,
    seed: int = 1000,
    android_timers: AndroidTimers | None = None,
) -> list[RunResult]:
    """Replay the class's scenario mix over ``runs`` independent runs."""
    results = []
    for index in range(runs):
        scenario = pick_scenario(failure_class, seed + index)
        testbed = Testbed(seed=seed + index, handling=handling,
                          android_timers=android_timers)
        results.append(testbed.run_scenario(scenario))
    return results


def timed_durations(results: list[RunResult]) -> list[float]:
    """Durations of the timed (device-recoverable) runs."""
    return [r.duration for r in results if r.timed]


def coverage(results: list[RunResult]) -> float:
    """Fraction of runs handled without user action (§7.1.1)."""
    if not results:
        return 0.0
    handled = sum(1 for r in results if r.timed and r.recovered)
    return handled / len(results)


# ---------------------------------------------------------------------------
# The UE host
# ---------------------------------------------------------------------------
@dataclass
class CohortMember:
    """Spec for the UE a :class:`Cohort` hosts. A :class:`Testbed`'s
    member names its ``scenario`` at run time."""

    scenario: Scenario | None
    handling: HandlingMode = HandlingMode.LEGACY
    android_timers: AndroidTimers | None = None
    horizon: float | None = None


class UeSlot:
    """The host's UE, and the code that acts on it.

    Owns the member's device + UICC profile, its seed's
    :class:`RngStreams`, its disruption meter, and a scoped view of the
    core that redirects the config-store and NMS mutations scenario
    builders make to per-UE state. Scenario builders receive the slot
    as their ``testbed``.
    """

    def __init__(self, cohort: "Cohort", member: CohortMember) -> None:
        self.cohort = cohort
        self.member = member
        self.handling = member.handling
        self.sim = cohort.sim
        self.core = core = cohort.core
        # The SUPI value never reaches any record or draw.
        profile = SimProfile(imsi="001010000000001",
                             k=SUBSCRIBER_K, opc=SUBSCRIBER_OPC)
        self.supi = f"imsi-{profile.imsi}"
        core.provision_subscriber(
            self.supi, SUBSCRIBER_K, SUBSCRIBER_OPC,
            subscribed_dnns=("internet", "internet.v2", "ims.carrier", "DIAG"),
        )
        android_timers = member.android_timers
        if android_timers is None:
            android_timers = AndroidTimers.stock()
        self.device = Device(
            self.sim, core.gnb, core.upf, profile,
            timers=cohort.timers, android_timers=android_timers,
            modem_latencies=cohort.modem_latencies, rooted=member.handling.rooted,
        )
        self.meter: DisruptionMeter | None = None
        self.horizon: float | None = None
        self.end: float | None = None

    @property
    def deployment(self) -> SeedDeployment | None:
        return self.cohort.deployment

    @property
    def applet(self):
        return self.deployment.applet_for(self.device) if self.deployment else None

    @property
    def carrier_app(self):
        if self.deployment and self.deployment.carrier_apps:
            return self.deployment.carrier_app_for(self.device)
        return None

    def inject(self, spec: FailureSpec) -> ActiveFailure:
        return self.core.engine.inject(spec)

    def learning_records(self) -> dict[str, dict[str, int]]:
        """Wire-form §5.3 learning state accumulated during this run.

        Combines the plugin's learner (its crowdsourced ``NetRecord``)
        with the applet's record-book entries still awaiting OTA upload, so
        a fleet aggregator merging per-shard states loses nothing to
        upload timing. Empty for legacy runs (no SEED).
        """
        from repro.core.online_learning import merge_records, serialize_records

        wire: dict[str, dict[str, int]] = {}
        deployment = self.deployment
        if deployment is None:
            return wire
        merge_records(wire, deployment.plugin.learner.export_records())
        applet = deployment.applets.get(self.supi)
        if applet is not None:
            merge_records(wire, serialize_records(applet.recorder.records))
        return wire

    # ------------------------------------------------------------------
    # Failure triggers (how a latent failure manifests, §7.1.1)
    # ------------------------------------------------------------------
    def trigger_mobility(self) -> None:
        """Tracking-area move: the control plane must re-register, and
        the latent control-plane failure bites (§3.1's common case)."""
        modem = self.device.modem
        modem.tracking_area += 1
        self.core.amf.force_deregister(self.device.supi)
        self.core.purge_sessions(self.device.supi)
        modem._abort_all_procedures()
        modem.start_registration()

    def trigger_session_recycle(self) -> None:
        """The network reprovisions the subscriber's data service
        (reactivation requested): existing contexts are torn down and
        the device re-registers; the fresh session establishment then
        hits the latent data-plane failure."""
        modem = self.device.modem
        self.core.amf.force_deregister(self.device.supi)
        self.core.purge_sessions(self.device.supi)
        modem._abort_all_procedures()
        modem.start_registration()

    # ------------------------------------------------------------------
    def _launch(self) -> None:
        """Materialize the member's scenario on this UE and start measuring.

        Builds the instance, arms the meter, fires the trigger, and
        schedules any user action. No simulation time passes in here.
        """
        scenario = self.member.scenario
        instance = scenario.build(self)
        self.horizon = self.member.horizon
        if self.horizon is None:
            self.horizon = HORIZONS[scenario.failure_class]
        self.end = self.sim.now + self.horizon
        self.meter = DisruptionMeter(self.sim, self.core, self.device,
                                     instance.target, deployment=self.deployment)

        if scenario.failure_class is FailureClass.CONTROL_PLANE:
            self.trigger_mobility()
        elif scenario.failure_class is FailureClass.DATA_PLANE:
            self.trigger_session_recycle()
        else:
            self._start_data_delivery_workload(instance)

        self.meter.start()

        if instance.user_action_at is not None:
            self.sim.schedule(
                instance.user_action_at, self._user_action, label="scenario:user-action"
            )

    def _start_data_delivery_workload(self, instance: ScenarioInstance) -> None:
        """Data-delivery runs need app traffic: a web browser for the
        Android detectors, plus a disruption-sensitive app that calls
        the SEED failure-report API (the paper's background daemon)."""
        report_api = self.carrier_app.report_failure if self.carrier_app else None
        if "web" not in self.device.apps:
            self.device.launch_app("web")
        reporter = "edge_ar" if instance.report_failure_type in ("udp",) else "live_stream"
        if instance.report_failure_type == "dns":
            reporter = "web"
        if reporter not in self.device.apps:
            self.device.launch_app(reporter, report_api=report_api)
        elif report_api is not None:
            self.device.apps[reporter].report_api = report_api

    def _user_action(self) -> None:
        """The subscriber reactivates the plan / re-authenticates."""
        supi = self.device.supi
        self.core.subscriber_db.reactivate_subscription(supi)
        self.core.engine.note_user_action(supi)
        self.device.modem.start_registration()


class Cohort:
    """The UE host: one simulator, one core and exactly one member UE.

    :meth:`run` warms the member up, launches its scenario
    (:meth:`UeSlot._launch`) and runs to quiescence or its horizon.
    ``slots`` holds the member's :class:`UeSlot`.
    """

    def __init__(
        self,
        members: list[CohortMember],
        seed: int = 0,
        timers: StandardTimers = DEFAULT_TIMERS,
        modem_latencies: ModemLatencies | None = None,
        custom_actions: dict[int, ResetAction] | None = None,
        learning_rate: float = 0.05,
    ) -> None:
        if len(members) != 1:
            raise ValueError(f"a cohort hosts exactly one member, got {len(members)}")
        self.timers = timers
        self.modem_latencies = modem_latencies
        self.sim = Simulator(seed=seed)
        self.core = CoreNetwork(self.sim)
        self.deployment: SeedDeployment | None = None
        slot = UeSlot(self, members[0])
        self.slots = [slot]
        if slot.handling.uses_seed:
            self.deployment = deploy_seed(
                self.core, [slot.device], stage="full",
                custom_actions=custom_actions, learning_rate=learning_rate,
            )
            # SEED consumes the OS stall notification and drives its own
            # recovery; Android's ladder stands down (§6).
            slot.device.android.auto_recover = False

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Warm up, launch the member, and run to quiescence."""
        self.warm_up()
        return self._run_member()

    def warm_up(self) -> None:
        """Boot the member to steady state (registered, session up)."""
        device = self.slots[0].device
        device.power_on()
        self.sim.run(until=self.sim.now + WARMUP)
        if not device.data_session_active():
            raise RuntimeError("the UE failed to reach steady state")

    def _run_member(self) -> RunResult:
        """Launch the member, run to quiescence or its horizon, and
        snapshot its result.

        Quiescence-aware termination: stop as soon as the heap holds
        only maintenance churn and the member's meter confirms its
        model is settled. The kernel advances the clock to the horizon
        either way, and the engine records the ambient clears the stop
        discarded, so every post-run read (censored durations, open
        disruptions, failure state, battery integration) sees identical
        state. REPRO_FULL_HORIZON=1 forces the burn-the-horizon behavior
        (the parity tests' reference). ``meta["elided_events"]`` counts
        the heap entries the stop discarded.
        """
        sim = self.sim
        slot = self.slots[0]
        slot._launch()
        end = slot.end
        stopped = sim.quiesced_at
        if os.environ.get("REPRO_FULL_HORIZON") == "1":
            sim.run(until=end)
            elided = 0
        else:
            elided = sim.run_quiescent(end, slot.meter.settled)
        # Parked cadences read as the eager chain left them: at the
        # quiescent stop, or with every event up to the horizon fired.
        at = sim.quiesced_at
        if at is None or at == stopped:
            at = math.nextafter(end, math.inf)
        slot.device.freeze_parks(at)
        self.core.engine.settle(end)
        for app in slot.device.apps.values():
            app.close_open_disruption(end)
        slot.meter.disarm()
        scenario = slot.member.scenario
        return RunResult(
            scenario=scenario.name,
            handling=slot.handling,
            measurement=slot.meter.measurement,
            horizon=slot.horizon,
            timed=scenario.timed,
            notified_user=bool(slot.device.ui_notifications),
            meta={"elided_events": elided},
        )
