"""Hostile input to the wire decoders ends as their own typed error.

Each decoder has one error type for damaged input: the NAS codec raises
:class:`CodecError`, the §4.5 downlink payload :class:`CollaborationError`
and the uplink failure report :class:`ReportError`. A damaged message
either decodes or raises that type, never a bare ``UnicodeDecodeError``,
``IndexError``, ``struct.error`` or enum ``ValueError``.
"""

import struct

import pytest

from repro.core.collaboration import CollaborationError, DiagnosisInfo, DiagnosisKind
from repro.core.report import FailureReport, ReportError
from repro.nas import codec, messages
from repro.nas.codec import CodecError
from repro.nas.messages import MessageType

#: One message of every decodable type, each IE kind present.
CORPUS = (
    messages.RegistrationRequest(supi="imsi-001010000000001", guti="5g-guti-42",
                                 requested_plmn="00101", tracking_area=17,
                                 capabilities=("5G", "LTE"), requested_sst=1),
    messages.RegistrationAccept(guti="5g-guti-7", tracking_area_list=(1, 2, 3),
                                t3512_seconds=3240.0),
    messages.RegistrationReject(cause=9, t3502_seconds=720.0),
    messages.DeregistrationRequest(supi="imsi-1", switch_off=True),
    messages.ServiceRequest(guti="5g-guti-7"),
    messages.ServiceReject(cause=9),
    messages.AuthenticationRequest(rand=b"\xab" * 16, autn=b"\xcd" * 16, ngksi=5),
    messages.AuthenticationResponse(res=b"\x01" * 8),
    messages.AuthenticationFailure(cause=21, auts=b"\x02" * 14),
    messages.PduSessionEstablishmentRequest(pdu_session_id=3, dnn="internet.v2",
                                            pdu_session_type="IPv4v6", s_nssai_sst=2),
    messages.PduSessionEstablishmentAccept(pdu_session_id=1, ip_address="10.45.0.9",
                                           dns_server="10.10.0.53", qos_5qi=9),
    messages.PduSessionEstablishmentReject(pdu_session_id=2, cause=27, is_ack=True),
    messages.PduSessionModificationRequest(requested_tft=("allow-tcp",)),
    messages.PduSessionModificationReject(pdu_session_id=1, cause=54),
    messages.PduSessionModificationCommand(new_tft=("a", "b"),
                                           new_dns_server="10.10.1.53"),
    messages.PduSessionReleaseRequest(pdu_session_id=1),
    messages.PduSessionReleaseCommand(pdu_session_id=1, cause=36),
)


def _damaged(wire: bytes):
    """Every truncation of ``wire`` and every single-bit flip of it."""
    for end in range(len(wire)):
        yield wire[:end]
    for index in range(len(wire)):
        for bit in range(8):
            flipped = bytearray(wire)
            flipped[index] ^= 1 << bit
            yield bytes(flipped)


def _wire(epd: int, message_type: int, *tlvs: tuple[int, bytes]) -> bytes:
    """A plain-header NAS message built IE by IE."""
    body = b"".join(struct.pack(">BH", tag, len(value)) + value for tag, value in tlvs)
    return bytes([epd, 0x00, message_type]) + body


def _accept(ip: bytes = b"10.45.0.9", psi: bytes = b"\x01") -> bytes:
    return _wire(codec.EPD_5GSM, MessageType.PDU_SESSION_ESTABLISHMENT_ACCEPT,
                 (codec.T_PSI, psi), (codec.T_IP, ip),
                 (codec.T_DNS, b"10.10.0.53"), (codec.T_5QI, b"\x09"))


class TestNasCodec:
    def test_every_truncation_and_bit_flip_decodes_or_raises_codec_error(self):
        for message in CORPUS:
            for data in _damaged(codec.encode(message)):
                try:
                    codec.decode(data)
                except CodecError:
                    pass

    @pytest.mark.parametrize("data", [
        _accept(ip=b"10.45.0.\xff"),     # a string IE that is not UTF-8
        _accept(psi=b""),                 # an empty one-byte IE
        _wire(codec.EPD_5GMM, MessageType.REGISTRATION_REQUEST,
              (codec.T_SUPI, b"imsi-1"), (codec.T_PLMN, b"00101"),
              (codec.T_TA, b"\x00\x11")),  # a four-byte IE given two
        _wire(codec.EPD_5GMM, MessageType.AUTHENTICATION_REQUEST,
              (codec.T_RAND, b"\xab" * 15), (codec.T_AUTN, b"\xcd" * 16),
              (codec.T_NGKSI, b"\x05")),  # a RAND its IE rejects
        _wire(codec.EPD_5GSM, MessageType.PDU_SESSION_MODIFICATION_REQUEST,
              (codec.T_PSI, b"\x01"),
              (codec.T_TFT, b"\x00\x0ballow-tcp")),  # a string cut short
    ], ids=["utf8", "empty", "short-field", "rand-length", "short-string"])
    def test_damaged_ie_raises_codec_error(self, data):
        with pytest.raises(CodecError):
            codec.decode(data)

    def test_the_undamaged_hand_built_accept_decodes(self):
        assert codec.decode(_accept()).ip_address == "10.45.0.9"


class TestDiagnosisInfo:
    def test_unknown_action_byte_raises_collaboration_error(self):
        raw = bytes([DiagnosisKind.SUGGESTED_ACTION.value, 1, 201, 1, 0xEE, 0, 0])
        with pytest.raises(CollaborationError):
            DiagnosisInfo.decode(raw)

    def test_config_that_is_not_utf8_raises_collaboration_error(self):
        raw = bytes([DiagnosisKind.CAUSE_WITH_CONFIG.value, 1, 27, 0, 0, 0, 2]) + b"\xff\xfe"
        with pytest.raises(CollaborationError):
            DiagnosisInfo.decode(raw)

    @pytest.mark.parametrize("config", [b"1", b"null", b'["dnn"]', b"{"])
    def test_config_that_is_not_a_json_object_raises_collaboration_error(self, config):
        raw = bytes([DiagnosisKind.CAUSE_WITH_CONFIG.value, 1, 27, 0, 0, 0,
                     len(config)]) + config
        with pytest.raises(CollaborationError):
            DiagnosisInfo.decode(raw)

    def test_every_truncation_and_bit_flip_decodes_or_raises(self):
        info = DiagnosisInfo(kind=DiagnosisKind.CAUSE_WITH_CONFIG, cause=27,
                             config={"dnn": "internet.v2"})
        for data in _damaged(info.encode()):
            try:
                decoded = DiagnosisInfo.decode(data)
            except CollaborationError:
                continue
            assert isinstance(decoded.config, dict)


class TestFailureReport:
    def test_address_that_is_not_utf8_raises_report_error(self):
        with pytest.raises(ReportError):
            FailureReport.decode(bytes([1, 1, 1, 0xFF]))
