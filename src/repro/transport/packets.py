"""Packet and flow primitives shared by the transport models."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field


class Protocol(enum.Enum):
    TCP = "tcp"
    UDP = "udp"
    DNS = "dns"  # DNS over UDP port 53, kept distinct for rule matching


class Direction(enum.Enum):
    UPLINK = "uplink"
    DOWNLINK = "downlink"


class Verdict(enum.Enum):
    """Fate assigned by the user plane."""

    DELIVERED = "delivered"
    DROPPED = "dropped"       # blocking rule / misconfiguration
    NO_ROUTE = "no_route"     # no active PDU session / bearer down


_packet_ids = itertools.count(1)


@dataclass(slots=True)
class Packet:
    """One simulated datagram/segment."""

    protocol: Protocol
    direction: Direction
    src_ip: str = ""
    dst_ip: str = ""
    src_port: int = 0
    dst_port: int = 0
    size_bytes: int = 100
    payload: dict = field(default_factory=dict)
    packet_id: int = field(default_factory=_packet_ids.__next__)

    def reply(self, **payload) -> "Packet":
        """Build the reverse-direction response packet."""
        direction = (
            Direction.DOWNLINK if self.direction is Direction.UPLINK else Direction.UPLINK
        )
        # ``payload`` is a fresh kwargs dict owned by this call — handing
        # it to the Packet directly avoids one dict copy per reply.
        return Packet(
            protocol=self.protocol,
            direction=direction,
            src_ip=self.dst_ip,
            dst_ip=self.src_ip,
            src_port=self.dst_port,
            dst_port=self.src_port,
            size_bytes=self.size_bytes,
            payload=payload,
        )
