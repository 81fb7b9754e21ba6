"""The SEED failure-report API (paper §4.3.2).

Applications needing fast failure handling call
``report(failure_type, traffic_direction, address)``. The three
parameters are exactly the paper's: the failure type covers the three
most common data-delivery failures (DNS, TCP, UDP), the direction is
uplink/downlink/both, and the address carries IP:port for TCP/UDP or
the domain name for DNS — the fields the 5G Traffic Flow Template uses
to regulate traffic.

Reports have a compact binary wire form because they travel to the SIM
as APDU payloads and onward to the network inside the 100-byte DNN
field (§4.5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class FailureType(enum.Enum):
    DNS = 1
    TCP = 2
    UDP = 3


class TrafficDirection(enum.Enum):
    UPLINK = 1
    DOWNLINK = 2
    BOTH = 3


class ReportError(ValueError):
    """Malformed failure report."""


@dataclass(frozen=True)
class FailureReport:
    """One app/OS data-delivery failure report."""

    failure_type: FailureType
    direction: TrafficDirection
    address: str  # "ip:port" for TCP/UDP, domain name for DNS

    MAX_ADDRESS = 60  # keeps the sealed report inside one DNN field

    def __post_init__(self) -> None:
        if not self.address:
            raise ReportError("report address must be non-empty")
        if len(self.address.encode("utf-8")) > self.MAX_ADDRESS:
            raise ReportError(f"address exceeds {self.MAX_ADDRESS} bytes")
        if self.failure_type in (FailureType.TCP, FailureType.UDP):
            if ":" not in self.address:
                raise ReportError("TCP/UDP report address must be ip:port")
            port_text = self.address.rsplit(":", 1)[1]
            if not port_text.isdigit() or not 0 < int(port_text) < 65536:
                raise ReportError(f"invalid port in address {self.address!r}")

    @property
    def ip(self) -> str | None:
        if self.failure_type is FailureType.DNS:
            return None
        return self.address.rsplit(":", 1)[0]

    @property
    def port(self) -> int | None:
        if self.failure_type is FailureType.DNS:
            return None
        return int(self.address.rsplit(":", 1)[1])

    @property
    def domain(self) -> str | None:
        return self.address if self.failure_type is FailureType.DNS else None

    # -- wire form -------------------------------------------------------
    def encode(self) -> bytes:
        raw_address = self.address.encode("utf-8")
        return bytes([self.failure_type.value, self.direction.value, len(raw_address)]) + raw_address

    @classmethod
    def decode(cls, raw: bytes) -> "FailureReport":
        if len(raw) < 3:
            raise ReportError("report too short")
        try:
            failure_type = FailureType(raw[0])
            direction = TrafficDirection(raw[1])
        except ValueError as exc:
            raise ReportError(str(exc)) from exc
        length = raw[2]
        if len(raw) < 3 + length:
            raise ReportError("report address truncated")
        try:
            address = raw[3 : 3 + length].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ReportError(f"report address is not UTF-8: {exc}") from exc
        return cls(failure_type, direction, address)

    @classmethod
    def from_strings(cls, failure_type: str, direction: str, address: str) -> "FailureReport":
        """Build from the string triple apps pass to the public API."""
        return cls(
            FailureType[failure_type.upper()],
            TrafficDirection[direction.upper()],
            address,
        )
