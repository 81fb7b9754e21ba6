"""§7.2.4: online-learning validation.

Reproduces the paper's experiment: several devices connect to the
testbed; four control-plane and four data-plane functions are failed
repeatedly with operator-customized (unstandardized) cause codes; the
network runs Algorithm 1. Success criteria, as in the paper:

* every customized cause ends up classified on the correct plane —
  i.e. the crowdsourced best action is a control/hardware-tier reset
  for control-plane causes and a data-plane-tier reset for data-plane
  causes;
* later devices receive suggestions and recover faster than the early
  ladder-probing devices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.tables import format_table
from repro.core.online_learning import InfraLearner
from repro.infra.failures import ClearTrigger, FailureClass, FailureMode, FailureSpec
from repro.testbed.harness import HandlingMode, Testbed

# Four failed CP functions and four DP functions → customized codes.
CP_CAUSES = (200, 201, 202, 203)
DP_CAUSES = (204, 205, 206, 207)


@dataclass
class OnlineLearningResult:
    learner: InfraLearner
    recovery_times: dict[int, list[float]] = field(default_factory=dict)
    correct_plane: dict[int, bool] = field(default_factory=dict)

    def all_correct(self) -> bool:
        return all(self.correct_plane.get(c, False) for c in CP_CAUSES + DP_CAUSES)

    def mean_recovery(self, cause: int, first_n: int | None = None) -> float:
        times = self.recovery_times.get(cause, [])
        if first_n is not None:
            times = times[:first_n]
        return sum(times) / len(times) if times else float("nan")


def _inject_custom(tb: Testbed, cause: int) -> None:
    supi = tb.device.supi
    if cause in CP_CAUSES:
        # A failed control-plane function (e.g. a stale policy bound to
        # the device's registration context) that only a fresh-identity
        # attach flushes: blind GUTI retries repeat the failure, so the
        # SIM's sequential trials reach B1/A1 before it clears.
        tb.inject(FailureSpec(
            failure_class=FailureClass.CONTROL_PLANE, mode=FailureMode.REJECT,
            cause=cause, supi=supi, customized=True,
            clear_triggers=frozenset({ClearTrigger.ON_FRESH_IDENTITY,
                                      ClearTrigger.AFTER_DURATION}),
            duration=900.0, label=f"custom_cp_{cause}",
        ))
        tb.trigger_mobility()
    else:
        # A failed data-plane function recoverable by a clean session
        # re-setup: the first re-attempt after the failing one succeeds,
        # which the B3 fast reset reaches within a second.
        tb.inject(FailureSpec(
            failure_class=FailureClass.DATA_PLANE, mode=FailureMode.REJECT,
            cause=cause, supi=supi, customized=True,
            clear_triggers=frozenset({ClearTrigger.ON_RETRY,
                                      ClearTrigger.AFTER_DURATION}),
            duration=900.0, label=f"custom_dp_{cause}",
        ))
        tb.trigger_session_recycle()


def run(failures_per_cause: int = 50, devices: int = 6, seed: int = 900,
        learning_rate: float = 0.05) -> OnlineLearningResult:
    shared = InfraLearner(learning_rate=learning_rate)
    result = OnlineLearningResult(learner=shared)
    run_index = 0
    for cause in CP_CAUSES + DP_CAUSES:
        result.recovery_times[cause] = []
        for event in range(failures_per_cause):
            # Paper: 6 phones of different models; we rotate device seeds.
            tb = Testbed(seed=seed + run_index + (event % devices),
                         handling=HandlingMode.SEED_R, learning_rate=learning_rate)
            run_index += 1
            # The learner persists across devices/events (it lives in
            # the operator's core, not the testbed instance).
            tb.deployment.plugin.learner = shared
            shared._rand = lambda: tb.sim.rng.random("seed.learning")
            tb.warm_up()
            onset = tb.sim.now
            _inject_custom(tb, cause)
            tb.sim.run(until=onset + 120.0)
            if tb.device.data_session_active():
                result.recovery_times[cause].append(_recovery_time(tb, onset))
    for cause in CP_CAUSES + DP_CAUSES:
        best = shared.best_action(cause)
        if best is None:
            result.correct_plane[cause] = False
        elif cause in CP_CAUSES:
            result.correct_plane[cause] = best.tier in ("control_plane", "hardware")
        else:
            result.correct_plane[cause] = best.tier == "data_plane"
    return result


def _recovery_time(tb: Testbed, onset: float) -> float:
    session = tb.device.default_session()
    # established_at of the current UPF context is the recovery instant.
    ctx = tb.core.upf.sessions.get(tb.device.supi, {}).get(1)
    if ctx is not None:
        return max(0.0, ctx.established_at - onset)
    del session
    return float("nan")


def run_small(failures_per_cause: int = 4, seed: int = 900) -> OnlineLearningResult:
    """Reduced-size variant for tests."""
    return run(failures_per_cause=failures_per_cause, devices=2, seed=seed)


def render(result: OnlineLearningResult) -> str:
    rows = []
    for cause in CP_CAUSES + DP_CAUSES:
        best = result.learner.best_action(cause)
        rows.append([
            f"#{cause}",
            "control" if cause in CP_CAUSES else "data",
            best.name if best else "-",
            "yes" if result.correct_plane.get(cause) else "NO",
            f"{result.mean_recovery(cause, first_n=5):.1f}",
            f"{result.mean_recovery(cause):.1f}",
            f"{result.learner.confidence(cause):.2f}",
        ])
    table = format_table(
        ["Cause", "Plane", "Learned action", "Correct plane",
         "Mean recovery first-5 (s)", "Mean recovery all (s)", "Confidence"],
        rows, title="§7.2.4 — online learning validation",
    )
    verdict = "ALL CORRECT" if result.all_correct() else "MISCLASSIFICATIONS PRESENT"
    return f"{table}\n\nClassification: {verdict} (paper: all 8 correct)"
