"""Failure scenario catalog, calibrated to the paper's trace study.

Each :class:`Scenario` builds one or more :class:`FailureSpec` s (plus
any state mutations, e.g. dropping the GUTI mapping) when instantiated
against a running testbed. Scenario *mixes* reproduce the §3.1 failure
composition: the control-plane and data-plane mixes follow Table 1's
cause frequencies; the data-delivery mix covers the TCP/UDP/DNS stall
classes.

Ambient-recovery durations (the only legacy path for config-class
failures) are drawn from lognormal distributions whose medians/tails
were set from the paper's legacy measurements (Fig. 2, Table 4):
control-plane desyncs resolve on the order of minutes (yielding the
T3502-quantized tail ≥ 770 s), data-plane config failures around 6–8
minutes with a tail past 40 minutes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, TYPE_CHECKING

from repro.infra.failures import ClearTrigger, FailureClass, FailureMode, FailureSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.testbed.harness import UeSlot


@dataclass
class ConnectivityTarget:
    """What "recovered" means for a scenario."""

    needs_tcp: bool = True
    needs_udp: bool = False
    needs_dns: bool = True
    port: int = 443


@dataclass
class ScenarioInstance:
    """A scenario materialized on a testbed."""

    scenario: "Scenario"
    specs: list = field(default_factory=list)
    target: ConnectivityTarget = field(default_factory=ConnectivityTarget)
    user_action_at: float | None = None   # delay until user intervenes
    report_failure_type: str = "tcp"      # what apps should report


@dataclass
class Scenario:
    """A named, weighted failure scenario."""

    name: str
    failure_class: FailureClass
    weight: float
    build: Callable[["UeSlot"], ScenarioInstance]
    timed: bool = True   # include in disruption distributions
    description: str = ""


def _lognormal(testbed: "UeSlot", stream: str, median: float, sigma: float,
               lo: float, hi: float) -> float:
    # Drawn from the run's named stream (``testbed.sim.rng``), so a
    # draw depends only on the run's seed and the stream's name.
    value = testbed.sim.rng.lognormal(stream, math.log(median), sigma)
    return min(hi, max(lo, value))


# ---------------------------------------------------------------------------
# Control-plane scenarios (Table 1 top half)
# ---------------------------------------------------------------------------
def _cp_timeout_transient(tb: "UeSlot") -> ScenarioInstance:
    """Brief core unresponsiveness; lower layers recover it quickly."""
    duration = _lognormal(tb, "scn.cp_fast", 0.7, 0.6, 0.2, 1.9)
    spec = FailureSpec(
        failure_class=FailureClass.CONTROL_PLANE,
        mode=FailureMode.TIMEOUT,
        supi=tb.device.supi,
        clear_triggers=frozenset({ClearTrigger.AFTER_DURATION}),
        duration=duration,
        label="cp_timeout_transient",
    )
    return ScenarioInstance(scenario=SCN_CP_TIMEOUT_TRANSIENT, specs=[tb.inject(spec)])


def _cp_timeout_long(tb: "UeSlot") -> ScenarioInstance:
    """Core overload: unresponsive for tens of seconds to minutes."""
    duration = _lognormal(tb, "scn.cp_long", 55.0, 0.8, 15.0, 290.0)
    spec = FailureSpec(
        failure_class=FailureClass.CONTROL_PLANE,
        mode=FailureMode.TIMEOUT,
        supi=tb.device.supi,
        clear_triggers=frozenset({ClearTrigger.AFTER_DURATION}),
        duration=duration,
        congestion=True,
        label="cp_timeout_long",
    )
    return ScenarioInstance(scenario=SCN_CP_TIMEOUT_LONG, specs=[tb.inject(spec)])


def _cp_state_desync(tb: "UeSlot") -> ScenarioInstance:
    """'Message type not compatible with the protocol state' (#98):
    transient state mismatch that one more attempt resolves."""
    spec = FailureSpec(
        failure_class=FailureClass.CONTROL_PLANE,
        mode=FailureMode.REJECT,
        cause=98,
        supi=tb.device.supi,
        clear_triggers=frozenset({ClearTrigger.ON_RETRY, ClearTrigger.AFTER_DURATION}),
        duration=90.0,
        label="cp_state_desync",
    )
    return ScenarioInstance(scenario=SCN_CP_STATE_DESYNC, specs=[tb.inject(spec)])


def _cp_no_suitable_cell(tb: "UeSlot") -> ScenarioInstance:
    """'No suitable cells in tracking area' (#15): clears on the next
    attempt once cell reselection lands (or ambient recovery)."""
    spec = FailureSpec(
        failure_class=FailureClass.CONTROL_PLANE,
        mode=FailureMode.REJECT,
        cause=15,
        supi=tb.device.supi,
        clear_triggers=frozenset({ClearTrigger.ON_RETRY, ClearTrigger.AFTER_DURATION}),
        duration=120.0,
        label="cp_no_suitable_cell",
    )
    return ScenarioInstance(scenario=SCN_CP_NO_SUITABLE_CELL, specs=[tb.inject(spec)])


def _cp_identity_desync(tb: "UeSlot") -> ScenarioInstance:
    """'UE identity cannot be derived' (#9): the network lost the GUTI
    mapping after a tracking-area move. Blind retries with the stale
    GUTI repeat the failure; a fresh-identity attach clears it."""
    tb.core.subscriber_db.drop_guti_mapping(tb.device.supi)
    ambient = _lognormal(tb, "scn.cp_identity", 420.0, 0.9, 60.0, 2400.0)
    spec = FailureSpec(
        failure_class=FailureClass.CONTROL_PLANE,
        mode=FailureMode.REJECT,
        cause=9,
        supi=tb.device.supi,
        clear_triggers=frozenset(
            {ClearTrigger.ON_FRESH_IDENTITY, ClearTrigger.AFTER_DURATION}
        ),
        duration=ambient,
        label="cp_identity_desync",
    )
    return ScenarioInstance(scenario=SCN_CP_IDENTITY_DESYNC, specs=[tb.inject(spec)])


def _cp_plmn_config(tb: "UeSlot") -> ScenarioInstance:
    """'PLMN not allowed' (#11): the device camps on an outdated PLMN
    priority; the network pushes the correct PLMN with the cause."""
    new_plmn = "00102"
    tb.core.config_store.config.plmn = new_plmn
    ambient = _lognormal(tb, "scn.cp_plmn", 420.0, 0.9, 60.0, 2400.0)
    spec = FailureSpec(
        failure_class=FailureClass.CONTROL_PLANE,
        mode=FailureMode.REJECT,
        cause=11,
        supi=tb.device.supi,
        config_field="plmn",
        required_value=new_plmn,
        clear_triggers=frozenset(
            {ClearTrigger.ON_CONFIG_MATCH, ClearTrigger.AFTER_DURATION}
        ),
        duration=ambient,
        label="cp_plmn_config",
    )
    return ScenarioInstance(scenario=SCN_CP_PLMN_CONFIG, specs=[tb.inject(spec)])


def _cp_slice_config(tb: "UeSlot") -> ScenarioInstance:
    """'No network slices available' (#62): S-NSSAI must be updated."""
    new_sst = 2
    tb.core.config_store.config.allowed_sst = (new_sst,)
    ambient = _lognormal(tb, "scn.cp_slice", 360.0, 0.9, 60.0, 2000.0)
    spec = FailureSpec(
        failure_class=FailureClass.CONTROL_PLANE,
        mode=FailureMode.REJECT,
        cause=62,
        supi=tb.device.supi,
        config_field="sst",
        required_value=new_sst,
        clear_triggers=frozenset(
            {ClearTrigger.ON_CONFIG_MATCH, ClearTrigger.AFTER_DURATION}
        ),
        duration=ambient,
        label="cp_slice_config",
    )
    return ScenarioInstance(scenario=SCN_CP_SLICE_CONFIG, specs=[tb.inject(spec)])


def _cp_subscription_expired(tb: "UeSlot") -> ScenarioInstance:
    """'5GS services not allowed' (#7): expired plan; only the user can
    recover (SEED shows a notification; legacy goes dormant)."""
    tb.core.subscriber_db.expire_subscription(tb.device.supi)
    spec = FailureSpec(
        failure_class=FailureClass.CONTROL_PLANE,
        mode=FailureMode.REJECT,
        cause=7,
        supi=tb.device.supi,
        clear_triggers=frozenset({ClearTrigger.ON_USER_ACTION}),
        label="cp_subscription_expired",
    )
    return ScenarioInstance(
        scenario=SCN_CP_SUBSCRIPTION, specs=[tb.inject(spec)], user_action_at=90.0
    )


# ---------------------------------------------------------------------------
# Data-plane scenarios (Table 1 bottom half)
# ---------------------------------------------------------------------------
def _dp_outdated_dnn(tb: "UeSlot") -> ScenarioInstance:
    """'Missing or unknown DNN' (#27): the classic outdated-APN failure
    (§3.2's running example). The network now requires a new DNN."""
    new_dnn = "internet.v2"
    tb.core.config_store.set_required_dnn(new_dnn)
    ambient = _lognormal(tb, "scn.dp_dnn", 430.0, 1.0, 40.0, 3600.0)
    spec = FailureSpec(
        failure_class=FailureClass.DATA_PLANE,
        mode=FailureMode.REJECT,
        cause=27,
        supi=tb.device.supi,
        config_field="dnn",
        required_value=new_dnn,
        clear_triggers=frozenset(
            {ClearTrigger.ON_CONFIG_MATCH, ClearTrigger.AFTER_DURATION}
        ),
        duration=ambient,
        label="dp_outdated_dnn",
    )
    return ScenarioInstance(scenario=SCN_DP_OUTDATED_DNN, specs=[tb.inject(spec)])


def _dp_not_subscribed(tb: "UeSlot") -> ScenarioInstance:
    """'Requested service option not subscribed' (#33) with a suggested
    DNN from the infrastructure (Appendix A)."""
    new_dnn = "ims.carrier"
    tb.core.config_store.set_required_dnn(new_dnn)
    ambient = _lognormal(tb, "scn.dp_sub", 480.0, 1.0, 40.0, 3600.0)
    spec = FailureSpec(
        failure_class=FailureClass.DATA_PLANE,
        mode=FailureMode.REJECT,
        cause=33,
        supi=tb.device.supi,
        config_field="dnn",
        required_value=new_dnn,
        clear_triggers=frozenset(
            {ClearTrigger.ON_CONFIG_MATCH, ClearTrigger.AFTER_DURATION}
        ),
        duration=ambient,
        label="dp_not_subscribed",
    )
    return ScenarioInstance(scenario=SCN_DP_NOT_SUBSCRIBED, specs=[tb.inject(spec)])


def _dp_invalid_mandatory(tb: "UeSlot") -> ScenarioInstance:
    """'Invalid mandatory information' (#96): a malformed/mismatched
    session parameter; the infra pushes the corrected values."""
    new_type = "IPv4v6"
    tb.core.config_store.config.pdu_session_types = (new_type,)
    ambient = _lognormal(tb, "scn.dp_invalid", 380.0, 1.0, 40.0, 3200.0)
    spec = FailureSpec(
        failure_class=FailureClass.DATA_PLANE,
        mode=FailureMode.REJECT,
        cause=96,
        supi=tb.device.supi,
        config_field="pdu_session_type",
        required_value=new_type,
        clear_triggers=frozenset(
            {ClearTrigger.ON_CONFIG_MATCH, ClearTrigger.AFTER_DURATION}
        ),
        duration=ambient,
        label="dp_invalid_mandatory",
    )
    return ScenarioInstance(scenario=SCN_DP_INVALID_MANDATORY, specs=[tb.inject(spec)])


def _dp_transient(tb: "UeSlot") -> ScenarioInstance:
    """Transient SMF glitch; a repeated attempt succeeds."""
    duration = _lognormal(tb, "scn.dp_transient", 1.0, 0.7, 0.3, 8.0)
    spec = FailureSpec(
        failure_class=FailureClass.DATA_PLANE,
        mode=FailureMode.TIMEOUT,
        supi=tb.device.supi,
        clear_triggers=frozenset({ClearTrigger.AFTER_DURATION}),
        duration=duration,
        label="dp_transient",
    )
    return ScenarioInstance(scenario=SCN_DP_TRANSIENT, specs=[tb.inject(spec)])


def _dp_insufficient_resources(tb: "UeSlot") -> ScenarioInstance:
    """'Insufficient resources' (#26): congestion; clears as load drains."""
    duration = _lognormal(tb, "scn.dp_resources", 45.0, 0.8, 10.0, 280.0)
    tb.core.nms.force_congestion("core")
    tb.sim.schedule(duration, tb.core.nms.force_congestion, None,
                    label="scenario:congestion-clear")
    spec = FailureSpec(
        failure_class=FailureClass.DATA_PLANE,
        mode=FailureMode.REJECT,
        cause=26,
        supi=tb.device.supi,
        clear_triggers=frozenset({ClearTrigger.AFTER_DURATION}),
        duration=duration,
        congestion=True,
        label="dp_insufficient_resources",
    )
    return ScenarioInstance(scenario=SCN_DP_RESOURCES, specs=[tb.inject(spec)])


def _dp_user_auth_failed(tb: "UeSlot") -> ScenarioInstance:
    """'User authentication or authorization failed' (#29): needs the
    subscriber to reactivate the plan (§7.1.1's unhandled 4.5%)."""
    spec = FailureSpec(
        failure_class=FailureClass.DATA_PLANE,
        mode=FailureMode.REJECT,
        cause=29,
        supi=tb.device.supi,
        clear_triggers=frozenset({ClearTrigger.ON_USER_ACTION}),
        label="dp_user_auth_failed",
    )
    return ScenarioInstance(
        scenario=SCN_DP_USER_AUTH, specs=[tb.inject(spec)], user_action_at=90.0
    )


# ---------------------------------------------------------------------------
# Data-delivery scenarios (§3.1: TCP / UDP / DNS stalls)
# ---------------------------------------------------------------------------
def _dd_gateway_stale(tb: "UeSlot") -> ScenarioInstance:
    """Outdated gateway state after mobility: all flows black-hole until
    the PDU session is re-established (reconnection-recoverable)."""
    ambient = _lognormal(tb, "scn.dd_gateway", 600.0, 0.8, 120.0, 3000.0)
    spec = FailureSpec(
        failure_class=FailureClass.DATA_DELIVERY,
        mode=FailureMode.BLOCK,
        supi=tb.device.supi,
        block_protocol="",  # all protocols
        clear_triggers=frozenset(
            {ClearTrigger.ON_SESSION_RESET, ClearTrigger.AFTER_DURATION}
        ),
        duration=ambient,
        label="dd_gateway_stale",
    )
    return ScenarioInstance(
        scenario=SCN_DD_GATEWAY, specs=[tb.inject(spec)], report_failure_type="udp"
    )


def _dd_tcp_policy_block(tb: "UeSlot") -> ScenarioInstance:
    """Network-side policy misconfiguration blocks TCP (§7.1.1: naive
    retries cannot recover; SEED's report triggers the policy fix)."""
    tb.core.config_store.policy_for(tb.device.supi).blocked.add(("tcp", "both", None))
    spec = FailureSpec(
        failure_class=FailureClass.DATA_DELIVERY,
        mode=FailureMode.BLOCK,
        supi=tb.device.supi,
        block_protocol="tcp",
        clear_triggers=frozenset({ClearTrigger.ON_POLICY_FIX, ClearTrigger.AFTER_DURATION}),
        duration=2400.0,
        label="dd_tcp_policy_block",
    )
    return ScenarioInstance(
        scenario=SCN_DD_TCP_BLOCK, specs=[tb.inject(spec)], report_failure_type="tcp"
    )


def _dd_udp_block(tb: "UeSlot") -> ScenarioInstance:
    """UDP port blocking (widely reported under 5G, §3.1). App ports
    only — invisible to Android's detectors."""
    tb.core.config_store.policy_for(tb.device.supi).blocked.add(("udp", "both", None))
    spec = FailureSpec(
        failure_class=FailureClass.DATA_DELIVERY,
        mode=FailureMode.BLOCK,
        supi=tb.device.supi,
        block_protocol="udp",
        clear_triggers=frozenset({ClearTrigger.ON_POLICY_FIX, ClearTrigger.AFTER_DURATION}),
        duration=2400.0,
        label="dd_udp_block",
    )
    return ScenarioInstance(
        scenario=SCN_DD_UDP_BLOCK,
        specs=[tb.inject(spec)],
        target=ConnectivityTarget(needs_tcp=False, needs_udp=True, needs_dns=False, port=9000),
        report_failure_type="udp",
    )


def _dd_dns_outage(tb: "UeSlot") -> ScenarioInstance:
    """Carrier LDNS outage (§3.1): the configured resolver stops
    answering; no OS fallback exists. SEED-R fails over via session
    modification after the SIM's report."""
    current_dns = tb.core.config_store.config.active_dns
    spec = FailureSpec(
        failure_class=FailureClass.DATA_DELIVERY,
        mode=FailureMode.DNS_OUTAGE,
        supi=tb.device.supi,
        block_protocol="dns",
        dns_server=current_dns,
        clear_triggers=frozenset({ClearTrigger.AFTER_DURATION}),
        duration=2400.0,
        label="dd_dns_outage",
    )
    return ScenarioInstance(
        scenario=SCN_DD_DNS_OUTAGE,
        specs=[tb.inject(spec)],
        target=ConnectivityTarget(needs_tcp=False, needs_udp=False, needs_dns=True),
        report_failure_type="dns",
    )


# ---------------------------------------------------------------------------
# Catalog and mixes
# ---------------------------------------------------------------------------
SCN_CP_TIMEOUT_TRANSIENT = Scenario(
    "cp_timeout_transient", FailureClass.CONTROL_PLANE, 0.19, _cp_timeout_transient,
    description="brief core unresponsiveness, lower-layer recovery")
SCN_CP_TIMEOUT_LONG = Scenario(
    "cp_timeout_long", FailureClass.CONTROL_PLANE, 0.11, _cp_timeout_long,
    description="core overload, unresponsive for minutes")
SCN_CP_STATE_DESYNC = Scenario(
    "cp_state_desync", FailureClass.CONTROL_PLANE, 0.12, _cp_state_desync,
    description="cause #98 message/state mismatch")
SCN_CP_NO_SUITABLE_CELL = Scenario(
    "cp_no_suitable_cell", FailureClass.CONTROL_PLANE, 0.20, _cp_no_suitable_cell,
    description="cause #15 no suitable cells")
SCN_CP_IDENTITY_DESYNC = Scenario(
    "cp_identity_desync", FailureClass.CONTROL_PLANE, 0.15, _cp_identity_desync,
    description="cause #9 identity underivable (stale GUTI)")
SCN_CP_PLMN_CONFIG = Scenario(
    "cp_plmn_config", FailureClass.CONTROL_PLANE, 0.10, _cp_plmn_config,
    description="cause #11 PLMN not allowed (outdated PLMN config)")
SCN_CP_SLICE_CONFIG = Scenario(
    "cp_slice_config", FailureClass.CONTROL_PLANE, 0.03, _cp_slice_config,
    description="cause #62 no slices for the requested S-NSSAI")
SCN_CP_SUBSCRIPTION = Scenario(
    "cp_subscription_expired", FailureClass.CONTROL_PLANE, 0.10, _cp_subscription_expired,
    timed=False, description="cause #7 expired plan (user action)")

SCN_DP_OUTDATED_DNN = Scenario(
    "dp_outdated_dnn", FailureClass.DATA_PLANE, 0.38, _dp_outdated_dnn,
    description="cause #27 outdated APN/DNN")
SCN_DP_NOT_SUBSCRIBED = Scenario(
    "dp_not_subscribed", FailureClass.DATA_PLANE, 0.25, _dp_not_subscribed,
    description="cause #33 service option not subscribed")
SCN_DP_INVALID_MANDATORY = Scenario(
    "dp_invalid_mandatory", FailureClass.DATA_PLANE, 0.18, _dp_invalid_mandatory,
    description="cause #96 invalid mandatory information")
SCN_DP_TRANSIENT = Scenario(
    "dp_transient", FailureClass.DATA_PLANE, 0.09, _dp_transient,
    description="transient SMF unresponsiveness")
SCN_DP_RESOURCES = Scenario(
    "dp_insufficient_resources", FailureClass.DATA_PLANE, 0.06, _dp_insufficient_resources,
    description="cause #26 congestion")
SCN_DP_USER_AUTH = Scenario(
    "dp_user_auth_failed", FailureClass.DATA_PLANE, 0.04, _dp_user_auth_failed,
    timed=False, description="cause #29 user auth failed (user action)")

SCN_DD_GATEWAY = Scenario(
    "dd_gateway_stale", FailureClass.DATA_DELIVERY, 0.55, _dd_gateway_stale,
    description="stale gateway state; reconnection-recoverable")
SCN_DD_TCP_BLOCK = Scenario(
    "dd_tcp_policy_block", FailureClass.DATA_DELIVERY, 0.20, _dd_tcp_policy_block,
    description="network policy blocks TCP")
SCN_DD_UDP_BLOCK = Scenario(
    "dd_udp_block", FailureClass.DATA_DELIVERY, 0.15, _dd_udp_block,
    description="UDP port blocking")
SCN_DD_DNS_OUTAGE = Scenario(
    "dd_dns_outage", FailureClass.DATA_DELIVERY, 0.10, _dd_dns_outage,
    description="carrier LDNS outage")

CONTROL_PLANE_MIX: tuple[Scenario, ...] = (
    SCN_CP_TIMEOUT_TRANSIENT, SCN_CP_TIMEOUT_LONG, SCN_CP_STATE_DESYNC,
    SCN_CP_NO_SUITABLE_CELL, SCN_CP_IDENTITY_DESYNC, SCN_CP_PLMN_CONFIG,
    SCN_CP_SLICE_CONFIG, SCN_CP_SUBSCRIPTION,
)
DATA_PLANE_MIX: tuple[Scenario, ...] = (
    SCN_DP_OUTDATED_DNN, SCN_DP_NOT_SUBSCRIBED, SCN_DP_INVALID_MANDATORY,
    SCN_DP_TRANSIENT, SCN_DP_RESOURCES, SCN_DP_USER_AUTH,
)
DATA_DELIVERY_MIX: tuple[Scenario, ...] = (
    SCN_DD_GATEWAY, SCN_DD_TCP_BLOCK, SCN_DD_UDP_BLOCK, SCN_DD_DNS_OUTAGE,
)

ALL_SCENARIOS: tuple[Scenario, ...] = (
    CONTROL_PLANE_MIX + DATA_PLANE_MIX + DATA_DELIVERY_MIX
)


def scenario_by_name(name: str) -> Scenario:
    for scenario in ALL_SCENARIOS:
        if scenario.name == name:
            return scenario
    raise KeyError(f"unknown scenario {name!r}")


def mix_for(failure_class: FailureClass) -> tuple[Scenario, ...]:
    return {
        FailureClass.CONTROL_PLANE: CONTROL_PLANE_MIX,
        FailureClass.DATA_PLANE: DATA_PLANE_MIX,
        FailureClass.DATA_DELIVERY: DATA_DELIVERY_MIX,
    }[failure_class]
