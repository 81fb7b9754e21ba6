"""Experiment testbed: scenario catalog, measurement, harness.

Reproduces the paper's evaluation setup (§7): failure scenarios drawn
from the trace study's failure mix are injected into a full
device+infra simulation under one of three handling schemes — legacy
(modem/Android), SEED-U (no root), SEED-R (root) — and service
disruption is measured from failure onset to verified recovery.
"""

from repro.testbed.harness import (
    Cohort,
    CohortMember,
    HandlingMode,
    RunResult,
    Testbed,
    run_suite,
)
from repro.testbed.measurement import ConnectivityOracle, DisruptionMeter
from repro.testbed.scenarios import (
    CONTROL_PLANE_MIX,
    DATA_DELIVERY_MIX,
    DATA_PLANE_MIX,
    Scenario,
    ScenarioInstance,
    scenario_by_name,
)


def preload() -> None:
    """Pre-import the full scenario stack into this process.

    Every fleet pool worker runs it at start, through the one
    :class:`repro.fleet.pool.WorkerPool` initializer
    (:func:`repro.fleet.worker.preload_plan`), so workers pay the
    testbed import chain (core, device, infra, nas, sim_card,
    transport, crypto) and the hot-path table builds (AES T-tables,
    precompiled NAS encoders) once at pool creation instead of on
    their first shard. Warming only populates caches that are
    byte-exact by construction, so a preloaded worker and a cold
    worker produce identical shard results.
    """
    import repro.fleet.worker  # noqa: F401  (pulls the whole run_shard chain)

    # Touch the hot crypto caches with the testbed's fixed subscriber
    # credentials so the first authentication of the first shard hits
    # a warm key schedule.
    from repro.crypto.aes import AES128
    from repro.testbed.harness import SUBSCRIBER_K

    AES128(SUBSCRIBER_K).encrypt_block(bytes(16))


__all__ = [
    "CONTROL_PLANE_MIX",
    "Cohort",
    "CohortMember",
    "ConnectivityOracle",
    "DATA_DELIVERY_MIX",
    "DATA_PLANE_MIX",
    "DisruptionMeter",
    "HandlingMode",
    "RunResult",
    "Scenario",
    "ScenarioInstance",
    "Testbed",
    "preload",
    "run_suite",
    "scenario_by_name",
]
