"""Real-time SIM↔network collaboration codecs (paper §4.5, Figure 7).

Downlink (network → SIM): the plugin seals a :class:`DiagnosisInfo`
payload and fragments it into 16-byte AUTN frames; each frame travels
in an Authentication Request whose RAND is the reserved all-FF DFlag.
The SIM ACKs each frame with a synchronisation-failure message, and the
network sends the next fragment.

Uplink (SIM → network): the SIM seals a :class:`FailureReport` (plus a
nonce-free counter from the secure channel) and packs it into the DNN
field of a PDU Session Establishment Request as opaque labels, prefixed
with the ``SD`` magic. The network answers with a reject-as-ACK.

Both directions are protected with 128-EEA2/EIA2 under a per-subscriber
key derived from the in-SIM key K (the derivation stands in for the
operator's OTA key-provisioning; only the operator and the SIM know K).
"""

from __future__ import annotations

import enum
import functools
import json
from dataclasses import dataclass, field

from repro.crypto.aes import AES128
from repro.crypto.secure_channel import SecureChannel
from repro.nas import ies
from repro.nas.causes import Plane
from repro.core.report import FailureReport
from repro.core.reset import ResetAction

AUTN_FRAME_SIZE = 16
FRAGMENT_PAYLOAD = AUTN_FRAME_SIZE - 1  # 1-byte fragment header
LAST_FRAGMENT_FLAG = 0x80
REPORT_MAGIC = b"SD"


class CollaborationError(ValueError):
    """Malformed collaboration payload."""


@functools.lru_cache(maxsize=64)
def derive_channel_key(k: bytes) -> bytes:
    """Derive the SEED diagnosis channel key from the in-SIM key K.

    Memoized: every endpoint of a subscriber's channel derives the same
    key, and a fleet builds one SEED deployment per task.
    """
    return AES128(k).encrypt_block(b"SEED-DIAG-CHNKEY")


class DiagnosisKind(enum.Enum):
    """Assistance information types (§5.2 lists exactly four, plus the
    hardware-reset request for unresponsive devices in Figure 8)."""

    CAUSE = 1                 # standardized cause code
    CAUSE_WITH_CONFIG = 2     # cause + up-to-date configuration
    SUGGESTED_ACTION = 3      # customized failure with a known handling
    CONGESTION_WARNING = 4    # back off; timer embedded
    HARDWARE_RESET_REQUEST = 5


@dataclass
class DiagnosisInfo:
    """One downlink assistance payload."""

    kind: DiagnosisKind
    plane: Plane = Plane.CONTROL
    cause: int = 0
    customized: bool = False
    config: dict = field(default_factory=dict)
    suggested_action: ResetAction | None = None
    backoff_seconds: float = 0.0

    def encode(self) -> bytes:
        header = bytes(
            [
                self.kind.value,
                0 if self.plane is Plane.CONTROL else 1,
                self.cause & 0xFF,
                0x01 if self.customized else 0x00,
                self.suggested_action.value if self.suggested_action else 0x00,
                min(255, int(self.backoff_seconds * 10)),
            ]
        )
        config_blob = (
            json.dumps(self.config, separators=(",", ":"), sort_keys=True).encode()
            if self.config else b""
        )
        if len(config_blob) > 255:
            raise CollaborationError("config payload too large for assistance info")
        return header + bytes([len(config_blob)]) + config_blob

    @classmethod
    def decode(cls, raw: bytes) -> "DiagnosisInfo":
        if len(raw) < 7:
            raise CollaborationError("diagnosis info too short")
        plane = Plane.CONTROL if raw[1] == 0 else Plane.DATA
        cause = raw[2]
        customized = bool(raw[3] & 0x01)
        backoff = raw[5] / 10.0
        config_len = raw[6]
        if len(raw) < 7 + config_len:
            raise CollaborationError("diagnosis config truncated")
        try:
            kind = DiagnosisKind(raw[0])
            action = ResetAction(raw[4]) if raw[4] else None
            config = json.loads(raw[7 : 7 + config_len]) if config_len else {}
        except ValueError as exc:  # an unknown enum byte, bad UTF-8 or JSON
            raise CollaborationError(str(exc)) from exc
        if not isinstance(config, dict):
            raise CollaborationError(f"diagnosis config is not an object: {config!r}")
        return cls(
            kind=kind,
            plane=plane,
            cause=cause,
            customized=customized,
            config=config,
            suggested_action=action,
            backoff_seconds=backoff,
        )


# ---------------------------------------------------------------------------
# Downlink: fragmentation into AUTN frames
# ---------------------------------------------------------------------------
def fragment_payload(sealed: bytes) -> list[bytes]:
    """Split a sealed blob into 16-byte AUTN frames.

    Frame layout: 1 header byte (bit7 = last fragment, bits 0–6 =
    fragment index) + up to 15 payload bytes, zero-padded. The padding
    is unambiguous because the sealed blob's length is recovered from
    the fragment count and the header of the *sealed* format itself
    (counter ‖ ciphertext ‖ MAC) — we additionally prefix the blob with
    its 2-byte length so reassembly is exact.
    """
    blob = len(sealed).to_bytes(2, "big") + sealed
    chunks = [blob[i : i + FRAGMENT_PAYLOAD] for i in range(0, len(blob), FRAGMENT_PAYLOAD)]
    if len(chunks) > 0x7F:
        raise CollaborationError("payload needs too many fragments")
    frames = []
    for index, chunk in enumerate(chunks):
        header = index | (LAST_FRAGMENT_FLAG if index == len(chunks) - 1 else 0)
        frames.append(bytes([header]) + chunk.ljust(FRAGMENT_PAYLOAD, b"\x00"))
    return frames


class FragmentReassembler:
    """SIM-side reassembly of downlink AUTN frames."""

    def __init__(self) -> None:
        self._chunks: dict[int, bytes] = {}

    def feed(self, frame: bytes) -> bytes | None:
        """Add one frame; returns the sealed blob when complete."""
        if len(frame) != AUTN_FRAME_SIZE:
            raise CollaborationError("AUTN frame must be 16 bytes")
        header, chunk = frame[0], frame[1:]
        index = header & 0x7F
        last = bool(header & LAST_FRAGMENT_FLAG)
        self._chunks[index] = chunk
        if not last:
            return None
        expected = index + 1
        if set(self._chunks) != set(range(expected)):
            # Missing fragments: reset and wait for retransmission.
            self._chunks.clear()
            return None
        blob = b"".join(self._chunks[i] for i in range(expected))
        self._chunks.clear()
        length = int.from_bytes(blob[:2], "big")
        if length > len(blob) - 2:
            raise CollaborationError("fragment length header corrupt")
        return blob[2 : 2 + length]


# ---------------------------------------------------------------------------
# Channel endpoints
# ---------------------------------------------------------------------------
class DownlinkSender:
    """Network-side downlink endpoint: seal + fragment."""

    def __init__(self, k: bytes) -> None:
        self.channel = SecureChannel(derive_channel_key(k), direction=1)

    def prepare(self, info: DiagnosisInfo) -> list[bytes]:
        return fragment_payload(self.channel.seal(info.encode()))


class DownlinkReceiver:
    """SIM-side downlink endpoint: reassemble + open."""

    def __init__(self, k: bytes) -> None:
        self.channel = SecureChannel(derive_channel_key(k), direction=1)
        self.reassembler = FragmentReassembler()

    def feed_frame(self, frame: bytes) -> DiagnosisInfo | None:
        sealed = self.reassembler.feed(frame)
        if sealed is None:
            return None
        return DiagnosisInfo.decode(self.channel.open(sealed))


class UplinkSender:
    """SIM-side uplink endpoint: seal a failure report into DNN bytes."""

    def __init__(self, k: bytes) -> None:
        self.channel = SecureChannel(derive_channel_key(k), direction=0)

    def prepare(self, report: FailureReport) -> bytes:
        sealed = self.channel.seal(report.encode())
        return ies.encode_dnn_opaque(REPORT_MAGIC + sealed)


class UplinkReceiver:
    """Network-side uplink endpoint: unpack DNN bytes into a report."""

    def __init__(self, k: bytes) -> None:
        self.channel = SecureChannel(derive_channel_key(k), direction=0)

    def try_parse(self, dnn_wire: bytes) -> FailureReport | None:
        """Parse a DNN field; None when it is not a diagnosis report."""
        try:
            payload = ies.decode_dnn_opaque(dnn_wire)
        except ies.IeError:
            return None
        if not payload.startswith(REPORT_MAGIC):
            return None
        plaintext = self.channel.open(payload[len(REPORT_MAGIC):])
        return FailureReport.decode(plaintext)
