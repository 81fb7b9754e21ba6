"""The experiment harness: one UE host for single runs and cohorts.

A :class:`Cohort` hosts N heterogeneous UEs on **one** simulator and
one core: per-UE device + UICC + applet state, per-UE RNG streams
(``derive_seed(cohort_seed, ue_index)`` unless the member names its
seed), shared AMF/SMF/UPF/failure-engine instances, and one
:class:`DisruptionMeter` per UE. Every member is fully isolated —
private RNG streams, config overlay, NMS gauges, learner, address
block — so its result depends only on its own seed, scenario and
handling mode. The run ends when all UEs have settled (quiescence) or
every UE's horizon has elapsed.

A :class:`Testbed` is a one-member cohort whose member draws from the
testbed seed's own streams: one device + one core, optionally with
SEED deployed (user mode or root mode), brought to steady state, then
hit by a scenario whose disruption the connectivity oracle measures.
``run_suite`` replays a scenario mix (drawn with the trace-study
weights) across many independent runs, mirroring the paper's §7.1.1
methodology of reproducing dataset failures on the testbed.
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


class Testbed:
    """One device + one core, under a chosen handling mode.

    A facade over a one-member :class:`Cohort` (``self.cohort``) whose
    member draws from ``RngStreams(seed)``. Everything per-UE — state
    (``sim``, ``core``, ``device``, ``deployment``, ``rng``, ``meter``)
    and actions (``applet``, ``inject``, the triggers) — is the
    member's :class:`UeSlot`, reached through attribute delegation.
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
        member = CohortMember(scenario=None, handling=handling, seed=seed,
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
        elided = self.cohort._run_members()
        result = self._slot.result
        result.meta["elided_events"] = elided
        return result

    def learning_records(self) -> dict[str, dict[str, int]]:
        """Wire-form §5.3 learning state accumulated during this run
        (see :meth:`Cohort.learning_records_for`)."""
        return self.cohort.learning_records_for(self._slot)


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
    seed to twin a member with a specific single-UE run. A
    :class:`Testbed`'s member names its ``scenario`` at run time.
    """

    scenario: Scenario | None
    handling: HandlingMode = HandlingMode.LEGACY
    seed: int | None = None
    android_timers: AndroidTimers | None = None
    horizon: float | None = None


@dataclass
class CohortResult:
    """Outcome of one cohort run: every member's result, in member
    order, and the events quiescence elided."""

    results: list[RunResult]
    elided_events: int

    @property
    def cohort_size(self) -> int:
        return len(self.results)


class UeSlot:
    """One UE's slice of a cohort, and the code that acts on it.

    Owns the member's device + UICC profile, its private seed-derived
    :class:`RngStreams` (same stream names, hence same draw sequences,
    as any other UE at the same seed), its disruption meter, and a
    scoped view of the shared core that redirects the config-store and
    NMS mutations scenario builders make to per-UE state. Scenario
    builders receive the slot as their ``testbed``.
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
        # UE 0's IMSI is the testbed subscriber; later members count up
        # through the same MCC/MNC block. The SUPI value never reaches
        # any record or draw.
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
        core.isolate_ue(self.supi, self.rng)
        android_timers = member.android_timers
        if android_timers is None:
            android_timers = AndroidTimers.stock()
        self.device = Device(
            self.sim, core.gnb, core.upf, profile,
            timers=cohort.timers, android_timers=android_timers,
            modem_latencies=cohort.modem_latencies, rooted=member.handling.rooted,
        )
        self.core = ScopedCoreNetwork(core, self.supi)
        self.meter: DisruptionMeter | None = None
        self.horizon: float | None = None
        self.end: float | None = None
        self.result: RunResult | None = None

    @property
    def deployment(self) -> SeedDeployment | None:
        return self.cohort.deployment if self.handling.uses_seed else None

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
    def _launch(self) -> None:
        """Materialize the member's scenario on this UE and start measuring.

        Builds the instance, arms the meter, fires the trigger, and
        schedules any user action. No simulation time passes in here,
        so members launched back-to-back each start from exactly the
        state they would reach alone.
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
    """N heterogeneous UEs sharing one simulator and one core.

    All members warm up together, then each launches its scenario
    (:meth:`UeSlot._launch`). Members are fully isolated — private RNG
    streams, config overlay, NMS gauges, learner, address block — so
    each member's :class:`RunResult` is byte-identical to a one-member
    cohort's (a :class:`Testbed`'s) at the same seed.

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
        timers: StandardTimers = DEFAULT_TIMERS,
        modem_latencies: ModemLatencies | None = None,
        custom_actions: dict[int, ResetAction] | None = None,
        learning_rate: float = 0.05,
    ) -> None:
        if not members:
            raise ValueError("a cohort needs at least one member")
        self.seed = seed
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
                    # SEED consumes the OS stall notification and drives
                    # its own recovery; Android's ladder stands down (§6).
                    slot.device.android.auto_recover = False

    # ------------------------------------------------------------------
    def run(self) -> CohortResult:
        """Warm up, launch every member, and run to quiescence."""
        self.warm_up()
        elided = self._run_members()
        return CohortResult(results=[slot.result for slot in self.slots],
                            elided_events=elided)

    def warm_up(self) -> None:
        """Boot every member to steady state (registered, session up)."""
        for slot in self.slots:
            slot.device.power_on()
        self.sim.run(until=self.sim.now + WARMUP)
        for slot in self.slots:
            if not slot.device.data_session_active():
                raise RuntimeError(f"UE {slot.index} failed to reach steady state")

    def _run_members(self) -> int:
        """Launch every member, run to quiescence or the last horizon,
        and snapshot each member's result; returns the events elided.

        Quiescence-aware termination: stop as soon as the heap holds
        only maintenance churn and every unfrozen member's meter
        confirms its model is settled. The kernel advances the clock to
        the last horizon either way, and the engine records the ambient
        clears the stop discarded, so every post-run read (censored
        durations, open disruptions, failure state, battery
        integration) sees identical state. REPRO_FULL_HORIZON=1 forces
        the burn-the-horizon behavior (the parity tests' reference).
        """
        sim = self.sim
        # Launch loop: no simulation time passes inside it, so each
        # member's launch-time state is independent of launch order.
        for slot in self.slots:
            slot._launch()
        cohort_end = max(slot.end for slot in self.slots)
        for slot in self.slots:
            if slot.end < cohort_end:
                # Freeze just past this member's horizon: every event at
                # exactly `end` fires first (matching the inclusive stop
                # of run(until=end) for a member that ends last), then
                # the result is snapshotted and the UE silenced.
                # Maintenance, so a pending freeze never blocks cohort
                # quiescence.
                sim.schedule_at(
                    math.nextafter(slot.end, math.inf), self._freeze, slot,
                    maintenance=True, label="cohort:freeze",
                )
        stopped = sim.quiesced_at
        if os.environ.get("REPRO_FULL_HORIZON") == "1":
            sim.run(until=cohort_end)
            elided = 0
        else:
            elided = sim.run_quiescent(cohort_end, self._all_settled)
        # Parked cadences read as the eager chain left them: at the
        # quiescent stop, or with every event up to the horizon fired.
        at = sim.quiesced_at
        if at is None or at == stopped:
            at = math.nextafter(cohort_end, math.inf)
        for slot in self.slots:
            slot.device.freeze_parks(at)
        self.core.engine.settle(cohort_end)
        # Members whose freeze did not fire: those ending last (none
        # scheduled) and, after a quiescent stop, everyone still pending
        # (the heap was discarded). The clock is at cohort_end ≥ every
        # horizon, so snapshotting now reads what a run ending at the
        # member's own horizon would have; no need to silence.
        for slot in self.slots:
            self._freeze(slot, silence=False)
        return elided

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

        Open app disruptions close at the member's own ``end``: the
        freeze event fires just past ``end``, and the final snapshot
        runs at ``cohort_end``.
        """
        if slot.result is not None:
            return
        for app in slot.device.apps.values():
            app.close_open_disruption(slot.end)
        slot.meter.disarm()
        scenario = slot.member.scenario
        slot.result = RunResult(
            scenario=scenario.name,
            handling=slot.handling,
            measurement=slot.meter.measurement,
            horizon=slot.horizon,
            timed=scenario.timed,
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

        Combines the member's learner (its crowdsourced ``NetRecord``)
        with its applet's record-book entries still awaiting OTA
        upload, so a fleet aggregator merging per-shard states loses
        nothing to upload timing. Empty for legacy members (no SEED).
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
