"""The experiment harness: single-UE testbeds and multi-UE cohorts.

A :class:`Testbed` assembles simulator + core + device, optionally
deploys SEED (user mode or root mode), lets the device reach steady
state, then injects a scenario and measures the disruption with the
connectivity oracle. ``run_suite`` replays a scenario mix (drawn with
the trace-study weights) across many independent runs, mirroring the
paper's §7.1.1 methodology of reproducing dataset failures on the
testbed.

A :class:`Cohort` hosts N heterogeneous UEs on **one** simulator and
one core: per-UE device + UICC + applet state, per-UE derived RNG
streams (``derive_seed(cohort_seed, ue_index)``), shared
AMF/SMF/UPF/failure-engine instances, and one :class:`DisruptionMeter`
per UE. With cross-UE interference disabled (the default) every member
is fully isolated — private RNG streams, config overlay, NMS gauges,
learner, address block — and its per-UE result is byte-identical to a
single-UE run at the same derived seed. The run ends when all UEs have
settled (quiescence) or every UE's horizon has elapsed.
"""

from __future__ import annotations

import enum
import math
import os
import time
from dataclasses import dataclass, field

from repro.core.deploy import SeedDeployment, deploy_seed
from repro.core.reset import ResetAction
from repro.device.android import AndroidTimers
from repro.device.device import Device
from repro.device.modem import ModemLatencies
from repro.infra.core_network import CoreNetwork, ScopedCoreNetwork
from repro.infra.failures import ActiveFailure, FailureClass, FailureSpec
from repro.nas.timers import DEFAULT_TIMERS, StandardTimers
from repro.sim_card.profile import SimProfile
from repro.simkernel.rng import RngStreams, derive_seed
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


class _UeActions:
    """Per-UE behavior shared by :class:`Testbed` and :class:`UeSlot`.

    Everything here operates on one UE's slice of the world through
    attributes the host provides: ``sim``, ``core`` (the real core for
    a single-UE testbed, a :class:`ScopedCoreNetwork` for a cohort
    member), ``device``, ``deployment``, and ``rng`` (the stream set
    scenario builders draw from). The byte-parity invariant between a
    cohort member and its dedicated-testbed twin rests on both running
    this exact code.
    """

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
    def _launch_scenario(
        self, scenario: Scenario, horizon: float | None = None
    ) -> tuple[ScenarioInstance, float]:
        """Materialize the scenario on this UE and start measuring.

        Builds the instance, arms the meter, fires the trigger, and
        schedules any user action. No simulation time passes in here,
        so a cohort launching its members back-to-back leaves each in
        exactly the state a dedicated testbed would.
        """
        instance = scenario.build(self)
        if horizon is None:
            horizon = HORIZONS[scenario.failure_class]
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
        return instance, horizon

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


class Testbed(_UeActions):
    """One device + one core, under a chosen handling mode."""

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
        self.handling = handling
        self.sim = Simulator(seed=seed)
        self.core = CoreNetwork(self.sim)
        profile = SimProfile(
            imsi="001010000000001", k=SUBSCRIBER_K, opc=SUBSCRIBER_OPC
        )
        self.core.provision_subscriber(
            f"imsi-{profile.imsi}", SUBSCRIBER_K, SUBSCRIBER_OPC,
            subscribed_dnns=("internet", "internet.v2", "ims.carrier", "DIAG"),
        )
        if android_timers is None:
            android_timers = AndroidTimers.stock()
        self.device = Device(
            self.sim, self.core.gnb, self.core.upf, profile,
            timers=timers, android_timers=android_timers,
            modem_latencies=modem_latencies, rooted=handling.rooted,
        )
        self.deployment: SeedDeployment | None = None
        if handling.uses_seed:
            self.deployment = deploy_seed(
                self.core, [self.device], stage="full",
                custom_actions=custom_actions, learning_rate=learning_rate,
            )
            # SEED consumes the OS stall notification and drives its own
            # recovery; Android's sequential ladder stands down (§6).
            self.device.android.auto_recover = False
        self.meter: DisruptionMeter | None = None

    @property
    def rng(self):
        """Stream set scenario draws come from. A single-UE testbed
        draws from the simulator's streams; a cohort member overrides
        this with its private, seed-derived streams."""
        return self.sim.rng

    # ------------------------------------------------------------------
    def warm_up(self, duration: float = WARMUP) -> None:
        """Boot the device to steady state (registered, session up)."""
        self.device.power_on()
        self.sim.run(until=self.sim.now + duration)
        if not self.device.data_session_active():
            raise RuntimeError("testbed failed to reach steady state")

    # ------------------------------------------------------------------
    def run_scenario(self, scenario: Scenario, horizon: float | None = None) -> RunResult:
        """Warm up, inject, trigger, and measure one scenario."""
        self.warm_up()
        _instance, horizon = self._launch_scenario(scenario, horizon)

        # Quiescence-aware termination: stop as soon as the heap holds
        # only maintenance churn and the meter confirms the model is
        # settled. The kernel advances the clock to the horizon either
        # way, and the engine records the ambient clears the stop
        # discarded, so every post-run read (censored durations, open
        # disruptions, failure state, battery integration) sees
        # identical state. REPRO_FULL_HORIZON=1 forces the old
        # burn-the-horizon behavior (used by the parity tests as the
        # reference).
        end = self.sim.now + horizon
        if os.environ.get("REPRO_FULL_HORIZON") == "1":
            self.sim.run(until=end)
            elided = 0
        else:
            elided = self.sim.run_quiescent(end, self.meter.settled)
        self.core.engine.settle(end)
        for app in self.device.apps.values():
            app.close_open_disruption()
        return RunResult(
            scenario=scenario.name,
            handling=self.handling,
            measurement=self.meter.measurement,
            horizon=horizon,
            timed=scenario.timed,
            notified_user=bool(self.device.ui_notifications),
            meta={"elided_events": elided},
        )

    # ------------------------------------------------------------------
    def device_handles_without_user(self, result: RunResult) -> bool:
        """Did handling succeed without user intervention (coverage)?"""
        return result.timed and result.recovered

    def learning_records(self) -> dict[str, dict[str, int]]:
        """Wire-form §5.3 learning state accumulated during this run.

        Combines the core plugin's crowdsourced ``NetRecord`` with any
        SIM record-book entries still awaiting OTA upload, so a fleet
        aggregator merging per-shard states loses nothing to upload
        timing. Empty for legacy runs (no SEED deployed).
        """
        from repro.core.online_learning import merge_records, serialize_records

        wire: dict[str, dict[str, int]] = {}
        if self.deployment is None:
            return wire
        merge_records(wire, self.deployment.plugin.learner.export_records())
        for applet in self.deployment.applets.values():
            merge_records(wire, serialize_records(applet.recorder.records))
        return wire


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
# Cohorts: N UEs per simulator instance
# ---------------------------------------------------------------------------
@dataclass
class CohortMember:
    """Spec for one UE in a cohort (members are heterogeneous).

    ``seed=None`` derives the member's seed from the cohort seed and
    its index (``derive_seed(cohort_seed, index)``); pass an explicit
    seed to twin a member with a specific single-UE run.
    """

    scenario: Scenario
    handling: HandlingMode = HandlingMode.LEGACY
    seed: int | None = None
    android_timers: AndroidTimers | None = None
    horizon: float | None = None


@dataclass
class CohortResult:
    """Outcome of one cohort run.

    ``per_ue_wall_s`` is the headline metric: the wall-clock cost per
    UE of this run — the quantity that must *fall* as cohort size grows
    for cohorts to beat dedicated testbeds.
    """

    results: list[RunResult]
    elided_events: int
    wall_s: float
    per_ue_wall_s: float
    meta: dict = field(default_factory=dict)

    @property
    def cohort_size(self) -> int:
        return len(self.results)

    def coverage(self) -> float:
        """Fraction of members handled without user action."""
        return coverage(self.results)


class UeSlot(_UeActions):
    """One UE's slice of a cohort.

    Owns the member's device + UICC profile, its private seed-derived
    :class:`RngStreams` (same stream names, hence same draw sequences,
    as a single-UE run at the same seed), its disruption meter, and a
    scoped view of the shared core that redirects the config-store and
    NMS mutations scenario builders make to per-UE state.
    """

    def __init__(self, cohort: "Cohort", index: int, member: CohortMember) -> None:
        self.cohort = cohort
        self.index = index
        self.member = member
        self.handling = member.handling
        self.seed = (member.seed if member.seed is not None
                     else derive_seed(cohort.seed, index))
        self.rng = RngStreams(self.seed)
        self.sim = cohort.sim
        # UE 0's IMSI is the single-testbed subscriber; later members
        # count up through the same MCC/MNC block. The SUPI value never
        # reaches any record or draw, so it cannot perturb parity.
        profile = SimProfile(
            imsi=f"00101{str(index + 1).zfill(10)}",
            k=SUBSCRIBER_K, opc=SUBSCRIBER_OPC,
        )
        self.supi = f"imsi-{profile.imsi}"
        core = cohort.core
        core.provision_subscriber(
            self.supi, SUBSCRIBER_K, SUBSCRIBER_OPC,
            subscribed_dnns=("internet", "internet.v2", "ims.carrier", "DIAG"),
        )
        core.isolate_ue(self.supi, self.rng, interference=cohort.interference)
        android_timers = member.android_timers
        if android_timers is None:
            android_timers = AndroidTimers.stock()
        self.device = Device(
            self.sim, core.gnb, core.upf, profile,
            timers=cohort.timers, android_timers=android_timers,
            modem_latencies=cohort.modem_latencies, rooted=member.handling.rooted,
        )
        self.core = core if cohort.interference else ScopedCoreNetwork(core, self.supi)
        self.meter: DisruptionMeter | None = None
        self.horizon: float | None = None
        self.end: float | None = None
        self.result: RunResult | None = None

    @property
    def deployment(self) -> SeedDeployment | None:
        return self.cohort.deployment if self.handling.uses_seed else None


class Cohort:
    """N heterogeneous UEs sharing one simulator and one core.

    All members warm up together, then each launches its scenario
    through the same per-UE code path a dedicated :class:`Testbed`
    uses (:meth:`_UeActions._launch_scenario`). With ``interference``
    disabled (the default) members are fully isolated — private RNG
    streams, config overlay, NMS gauges, learner, address block — and
    each member's :class:`RunResult` is byte-identical to a single-UE
    run at the same seed. ``interference=True`` drops the isolation of
    NMS gauges and network config so members genuinely couple through
    the shared infrastructure (and parity no longer holds).

    The run ends when every member has either passed its horizon or
    settled (quiescence); a member that reaches its own horizon while
    others still run is frozen — result snapshotted, then silenced so
    its post-horizon churn can neither perturb anything nor hold off
    cohort quiescence.
    """

    def __init__(
        self,
        members: list[CohortMember],
        seed: int = 0,
        interference: bool = False,
        timers: StandardTimers = DEFAULT_TIMERS,
        modem_latencies: ModemLatencies | None = None,
        custom_actions: dict[int, ResetAction] | None = None,
        learning_rate: float = 0.05,
    ) -> None:
        if not members:
            raise ValueError("a cohort needs at least one member")
        self.seed = seed
        self.interference = interference
        self.timers = timers
        self.modem_latencies = modem_latencies
        self.sim = Simulator(seed=seed)
        self.core = CoreNetwork(self.sim)
        self.deployment: SeedDeployment | None = None
        #: Quiescence-scan cursor: the slot that vetoed settling last.
        self._scan_from = 0
        self.slots = [UeSlot(self, i, m) for i, m in enumerate(members)]
        seed_devices = [s.device for s in self.slots if s.handling.uses_seed]
        if seed_devices:
            self.deployment = deploy_seed(
                self.core, seed_devices, stage="full",
                custom_actions=custom_actions, learning_rate=learning_rate,
            )
            for slot in self.slots:
                if slot.handling.uses_seed:
                    # SEED consumes the OS stall notification (§6).
                    slot.device.android.auto_recover = False

    # ------------------------------------------------------------------
    def run(self) -> CohortResult:
        """Warm up, launch every member, and run to quiescence."""
        wall0 = time.perf_counter()
        for slot in self.slots:
            slot.device.power_on()
        self.sim.run(until=self.sim.now + WARMUP)
        for slot in self.slots:
            if not slot.device.data_session_active():
                raise RuntimeError(
                    f"cohort UE {slot.index} failed to reach steady state"
                )
        # Launch loop: no simulation time passes inside it, so each
        # member's launch-time state matches its dedicated-run twin
        # regardless of launch order.
        for slot in self.slots:
            _instance, horizon = slot._launch_scenario(
                slot.member.scenario, slot.member.horizon
            )
            slot.horizon = horizon
            slot.end = self.sim.now + horizon
            # Freeze just past this member's horizon: every event at
            # exactly `end` fires first (matching the inclusive stop of
            # run(until=end) on a dedicated testbed), then the result
            # is snapshotted and the UE silenced. Maintenance, so a
            # pending freeze never blocks cohort quiescence.
            self.sim.schedule_at(
                math.nextafter(slot.end, math.inf), self._freeze, slot,
                maintenance=True, label="cohort:freeze",
            )
        cohort_end = max(slot.end for slot in self.slots)
        elided_before = self.sim.elided_events
        if os.environ.get("REPRO_FULL_HORIZON") == "1":
            self.sim.run(until=cohort_end)
        else:
            self.sim.run(until=cohort_end, quiesce_when=self._all_settled)
        self.core.engine.settle(cohort_end)
        elided = self.sim.elided_events - elided_before
        # Members whose freeze did not fire: the longest-horizon UE
        # (its freeze lands past cohort_end) and, after a quiescent
        # stop, everyone still pending (the heap was discarded). The
        # clock is at cohort_end ≥ every horizon, so snapshotting now
        # is what a dedicated run would have read; no need to silence.
        for slot in self.slots:
            self._freeze(slot, silence=False)
        wall = time.perf_counter() - wall0
        return CohortResult(
            results=[slot.result for slot in self.slots],
            elided_events=elided,
            wall_s=wall,
            per_ue_wall_s=wall / len(self.slots),
            meta={
                "cohort_size": len(self.slots),
                "seed": self.seed,
                "interference": self.interference,
                "quiesced_at": self.sim.quiesced_at,
            },
        )

    # ------------------------------------------------------------------
    def _all_settled(self) -> bool:
        """Cohort quiescence: every member frozen or settled.

        The kernel evaluates this once per event while the heap is
        maintenance-only, so the scan resumes at the slot that blocked
        quiescence last time: while a straggler is still unsettled the
        common case is one ``settled()`` check per event (O(1)), not a
        full cohort sweep (O(N) checks per event, O(N²) per run — the
        dominant cost at cohort sizes in the hundreds). The predicate's
        value is unchanged: True still requires a full pass over every
        slot at this instant.
        """
        slots = self.slots
        count = len(slots)
        start = self._scan_from
        for step in range(count):
            index = start + step
            if index >= count:
                index -= count
            slot = slots[index]
            if slot.result is None and not slot.meter.settled():
                self._scan_from = index
                return False
        return True

    def _freeze(self, slot: UeSlot, silence: bool = True) -> None:
        """Snapshot a member's result at its horizon (idempotent).

        Open app disruptions close at the member's own ``end``, as its
        dedicated twin's do: the freeze event fires just past ``end``,
        and a snapshot after a quiescent stop runs at ``cohort_end``.
        """
        if slot.result is not None:
            return
        for app in slot.device.apps.values():
            app.close_open_disruption(slot.end)
        slot.meter.disarm()
        slot.result = RunResult(
            scenario=slot.member.scenario.name,
            handling=slot.handling,
            measurement=slot.meter.measurement,
            horizon=slot.horizon,
            timed=slot.member.scenario.timed,
            notified_user=bool(slot.device.ui_notifications),
            meta={"ue_index": slot.index, "seed": slot.seed, "supi": slot.supi},
        )
        if silence:
            self._silence(slot)

    def _silence(self, slot: UeSlot) -> None:
        """Shut a finished member down. Its result is already
        snapshotted; what remains would only generate events — legacy
        retry ladders in particular churn substantively forever and
        would hold off quiescence for the whole cohort."""
        for app in slot.device.apps.values():
            app.stop()
        android = slot.device.android
        android.auto_recover = False
        if android._ladder_event is not None:
            android._ladder_event.cancel()
            android._ladder_event = None
        modem = slot.device.modem
        modem.auto_recover = False
        modem._abort_all_procedures()

    # ------------------------------------------------------------------
    def learning_records_for(self, slot: UeSlot) -> dict[str, dict[str, int]]:
        """Wire-form §5.3 learning state for one member.

        The cohort analogue of :meth:`Testbed.learning_records`: the
        member's private learner (isolated mode) plus its applet's
        pending record book. Under ``interference=True`` the learner is
        shared, so per-member attribution is approximate.
        """
        from repro.core.online_learning import merge_records, serialize_records

        wire: dict[str, dict[str, int]] = {}
        deployment = slot.deployment
        if deployment is None:
            return wire
        merge_records(wire, deployment.plugin.learner_for(slot.supi).export_records())
        applet = deployment.applets.get(slot.supi)
        if applet is not None:
            merge_records(wire, serialize_records(applet.recorder.records))
        return wire


def run_cohort(
    members: list[CohortMember],
    seed: int = 0,
    interference: bool = False,
) -> CohortResult:
    """Build and run one cohort (convenience wrapper)."""
    return Cohort(members, seed=seed, interference=interference).run()
