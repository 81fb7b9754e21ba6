"""Authoritative network-side configuration (orchestrator-backed).

The paper's diagnosis assistance "acquires the latest configurations
from the orchestrator API" (§6). This store is that source of truth:
what PLMN/DNN/session parameters the network currently requires, per
subscriber overrides, user traffic policies, and the DNS server pool.
Outdated-configuration failures are exactly a mismatch between a
device's cached values and this store.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class NetworkConfig:
    """Global (non-per-subscriber) required configuration values."""

    plmn: str = "00101"
    supported_rats: tuple[str, ...] = ("5G", "LTE")
    allowed_dnns: tuple[str, ...] = ("internet",)
    default_dnn: str = "internet"
    pdu_session_types: tuple[str, ...] = ("IPv4", "IPv4v6")
    allowed_sst: tuple[int, ...] = (1,)
    allowed_5qi: tuple[int, ...] = (5, 7, 9)
    dns_servers: tuple[str, ...] = ("10.10.0.53", "10.10.1.53")
    active_dns_index: int = 0

    @property
    def active_dns(self) -> str:
        return self.dns_servers[self.active_dns_index]


@dataclass
class UserPolicy:
    """Per-subscriber traffic policy enforced in the UPF via TFTs.

    ``blocked`` holds (protocol, direction, port) patterns; a port of
    ``None`` matches all ports. SEED's uplink failure report is checked
    against these ("the infrastructure checks if the failure type,
    direction, and address conflict with user policies", §4.4.2).
    """

    blocked: set[tuple[str, str, int | None]] = field(default_factory=set)

    def blocks(self, protocol: str, direction: str, port: int) -> bool:
        for proto, direct, blocked_port in self.blocked:
            if proto != protocol:
                continue
            if direct not in (direction, "both"):
                continue
            if blocked_port is None or blocked_port == port:
                return True
        return False


class ConfigStore:
    """Holds the current network configuration plus per-user policies.

    One store per core: scenario builders and SEED's recovery actions
    mutate :attr:`config` in place, and the SMF and the SEED plugin
    read it when they act.
    """

    def __init__(self, config: NetworkConfig | None = None) -> None:
        self.config = config or NetworkConfig()
        self.user_policies: dict[str, UserPolicy] = {}

    def policy_for(self, supi: str) -> UserPolicy:
        policy = self.user_policies.get(supi)
        if policy is None:
            policy = UserPolicy()
            self.user_policies[supi] = policy
        return policy

    # -- mutation (operations staff / SEED recovery actions) -----------
    def set_required_dnn(self, dnn: str) -> None:
        """Roll the allowed DNN set (the classic outdated-APN scenario)."""
        self.config.allowed_dnns = (dnn,)
        self.config.default_dnn = dnn

    def rotate_dns(self) -> str:
        """Fail over to the next DNS server in the pool."""
        config = self.config
        config.active_dns_index = (
            config.active_dns_index + 1
        ) % len(config.dns_servers)
        return config.active_dns

    def clear_block(self, supi: str, protocol: str) -> bool:
        """Remove blocking policy entries for a protocol; True if any."""
        policy = self.policy_for(supi)
        before = len(policy.blocked)
        policy.blocked = {entry for entry in policy.blocked if entry[0] != protocol}
        return len(policy.blocked) != before

    # -- suggested-config lookup for SEED (paper Appendix A) -----------
    def suggestion_for(self, config_kind: str) -> dict:
        """Return the up-to-date value for a config kind name."""
        c = self.config
        table = {
            "supported_rat": {"supported_rats": list(c.supported_rats)},
            "plmn_list": {"plmn": c.plmn},
            "suggested_dnn": {"dnn": c.default_dnn},
            "suggested_s_nssai": {"sst": c.allowed_sst[0]},
            "suggested_session_type": {"pdu_session_type": c.pdu_session_types[0]},
            "suggested_5qi": {"qos_5qi": c.allowed_5qi[-1]},
            "suggested_tft": {"tft": []},
            "suggested_packet_filter": {"tft": []},
            "activated_pdu_session": {"pdu_session_id": 1},
            "invalid_or_missed_config": {
                "dnn": c.default_dnn,
                "pdu_session_type": c.pdu_session_types[0],
            },
        }
        return table.get(config_kind, {})

