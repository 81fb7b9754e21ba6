"""Byte-level NAS message codec.

Messages are framed with a real NAS-style header — extended protocol
discriminator (0x7E for 5GMM, 0x2E for 5GSM), a plain security header,
and the TS 24.501 message-type octet — followed by the message fields
as tag-length-value elements. The codec round-trips every message in
:mod:`repro.nas.messages`; the tests fuzz it with hypothesis.

SEED cares about the wire format in two places: the Authentication
Request (RAND/AUTN fields reused as the downlink diagnosis channel)
and the PDU Session Establishment Request (DNN field reused as the
uplink channel). Both are encoded at true field widths here.

Encoders are precompiled at registration time: each message class maps
(in ``_ENCODERS``) to its prebuilt 3-byte wire header plus a dedicated
body function using precompiled :class:`struct.Struct` packers — no
per-call ``isinstance`` dispatch chain or header rebuild. Immutable IEs
that repeat across a scenario (cause codes, DNN labels) are memoized in
:mod:`repro.nas.ies`.
"""

from __future__ import annotations

import struct

from repro.nas import ies
from repro.nas.messages import (
    AuthenticationFailure,
    AuthenticationRequest,
    AuthenticationResponse,
    DeregistrationRequest,
    MessageType,
    NasMessage,
    PduSessionEstablishmentAccept,
    PduSessionEstablishmentReject,
    PduSessionEstablishmentRequest,
    PduSessionModificationCommand,
    PduSessionModificationReject,
    PduSessionModificationRequest,
    PduSessionReleaseCommand,
    PduSessionReleaseRequest,
    RegistrationAccept,
    RegistrationReject,
    RegistrationRequest,
    ServiceReject,
    ServiceRequest,
)

EPD_5GMM = 0x7E
EPD_5GSM = 0x2E


class CodecError(ValueError):
    """Raised on malformed wire bytes."""


# ---------------------------------------------------------------------------
# TLV plumbing (precompiled struct packers)
# ---------------------------------------------------------------------------
_TLV_HEADER = struct.Struct(">BH")
_U32_STRUCT = struct.Struct(">I")
_F64_STRUCT = struct.Struct(">d")
_LEN16_STRUCT = struct.Struct(">H")


def _tlv(tag: int, value: bytes) -> bytes:
    if len(value) > 0xFFFF:
        raise CodecError("IE too long")
    return _TLV_HEADER.pack(tag, len(value)) + value


def _parse_tlvs(data: bytes) -> dict[int, bytes]:
    out: dict[int, bytes] = {}
    unpack_header = _TLV_HEADER.unpack_from
    index = 0
    end = len(data)
    while index < end:
        if index + 3 > end:
            raise CodecError("truncated TLV header")
        tag, length = unpack_header(data, index)
        index += 3
        if index + length > end:
            raise CodecError("truncated TLV value")
        out[tag] = data[index : index + length]
        index += length
    return out


def _str(value: str) -> bytes:
    return value.encode("utf-8")


def _u32(value: int) -> bytes:
    return _U32_STRUCT.pack(value)


def _f64(value: float) -> bytes:
    return _F64_STRUCT.pack(value)


def _str_tuple(values: tuple[str, ...]) -> bytes:
    out = bytearray()
    pack_len = _LEN16_STRUCT.pack
    for v in values:
        raw = v.encode("utf-8")
        out.extend(pack_len(len(raw)))
        out.extend(raw)
    return bytes(out)


def _parse_str_tuple(data: bytes) -> tuple[str, ...]:
    values = []
    unpack_len = _LEN16_STRUCT.unpack_from
    index = 0
    while index < len(data):
        (length,) = unpack_len(data, index)
        index += 2
        if index + length > len(data):
            raise CodecError("truncated string in string list")
        values.append(data[index : index + length].decode("utf-8"))
        index += length
    return tuple(values)


# Field tags (shared across messages; unique within each message).
T_SUPI, T_GUTI, T_PLMN, T_TA, T_CAPS = 0x01, 0x02, 0x03, 0x04, 0x05
T_TALIST, T_TIMER, T_CAUSE, T_SWITCH_OFF = 0x06, 0x07, 0x08, 0x09
T_RAND, T_AUTN, T_NGKSI, T_RES, T_AUTS = 0x10, 0x11, 0x12, 0x13, 0x14
T_PSI, T_DNN, T_PDU_TYPE, T_SST, T_IP, T_DNS, T_5QI = 0x20, 0x21, 0x22, 0x23, 0x24, 0x25, 0x26
T_TFT, T_ACK_FLAG, T_NEW_DNS = 0x27, 0x28, 0x29


# ---------------------------------------------------------------------------
# Encode — precompiled per-message encoders
# ---------------------------------------------------------------------------
def _wire_header(message_type: int) -> bytes:
    """Prebuilt EPD | security-header | message-type header bytes."""
    epd = EPD_5GSM if message_type >= 0xC0 else EPD_5GMM
    security_header = 0x00  # plain NAS message
    return bytes([epd, security_header, message_type])


def encode(msg: NasMessage) -> bytes:
    """Serialise a NAS message to wire bytes."""
    entry = _ENCODERS.get(type(msg))
    if entry is None:
        raise CodecError(f"no encoder for {type(msg).__name__}")
    header, encode_body = entry
    return header + encode_body(msg)


def _encode_body(msg: NasMessage) -> bytes:
    """Body bytes only (compatibility seam for tests/tools)."""
    entry = _ENCODERS.get(type(msg))
    if entry is None:
        raise CodecError(f"no encoder for {type(msg).__name__}")
    return entry[1](msg)


def _encode_registration_request(msg: RegistrationRequest) -> bytes:
    parts = [_tlv(T_SUPI, _str(msg.supi)), _tlv(T_PLMN, _str(msg.requested_plmn)),
             _tlv(T_TA, _u32(msg.tracking_area)), _tlv(T_CAPS, _str_tuple(msg.capabilities)),
             _tlv(T_SST, bytes([msg.requested_sst & 0xFF]))]
    if msg.guti is not None:
        parts.append(_tlv(T_GUTI, _str(msg.guti)))
    return b"".join(parts)


def _encode_registration_accept(msg: RegistrationAccept) -> bytes:
    return b"".join([
        _tlv(T_GUTI, _str(msg.guti)),
        _tlv(T_TALIST, b"".join(_u32(t) for t in msg.tracking_area_list)),
        _tlv(T_TIMER, _f64(msg.t3512_seconds)),
    ])


def _encode_registration_reject(msg: RegistrationReject) -> bytes:
    parts = [_tlv(T_CAUSE, ies.encode_cause(msg.cause))]
    if msg.t3502_seconds is not None:
        parts.append(_tlv(T_TIMER, _f64(msg.t3502_seconds)))
    return b"".join(parts)


def _encode_deregistration_request(msg: DeregistrationRequest) -> bytes:
    return b"".join([
        _tlv(T_SUPI, _str(msg.supi)),
        _tlv(T_SWITCH_OFF, bytes([1 if msg.switch_off else 0])),
    ])


def _encode_service_request(msg: ServiceRequest) -> bytes:
    return _tlv(T_GUTI, _str(msg.guti))


def _encode_service_reject(msg: ServiceReject) -> bytes:
    return _tlv(T_CAUSE, ies.encode_cause(msg.cause))


def _encode_auth_request(msg: AuthenticationRequest) -> bytes:
    return b"".join([
        _tlv(T_RAND, ies.validate_rand(msg.rand)),
        _tlv(T_AUTN, ies.validate_autn(msg.autn)),
        _tlv(T_NGKSI, bytes([msg.ngksi & 0x0F])),
    ])


def _encode_auth_response(msg: AuthenticationResponse) -> bytes:
    return _tlv(T_RES, msg.res)


def _encode_auth_failure(msg: AuthenticationFailure) -> bytes:
    return b"".join([_tlv(T_CAUSE, ies.encode_cause(msg.cause)), _tlv(T_AUTS, msg.auts)])


def _encode_pdu_est_request(msg: PduSessionEstablishmentRequest) -> bytes:
    dnn_wire = msg.dnn_raw if msg.dnn_raw is not None else ies.encode_dnn(msg.dnn)
    if len(dnn_wire) > ies.MAX_DNN_LENGTH:
        raise CodecError("DNN field over 100-octet budget")
    return b"".join([
        _tlv(T_PSI, bytes([msg.pdu_session_id])),
        _tlv(T_DNN, dnn_wire),
        _tlv(T_PDU_TYPE, _str(msg.pdu_session_type)),
        _tlv(T_SST, bytes([msg.s_nssai_sst])),
    ])


def _encode_pdu_est_accept(msg: PduSessionEstablishmentAccept) -> bytes:
    return b"".join([
        _tlv(T_PSI, bytes([msg.pdu_session_id])),
        _tlv(T_IP, _str(msg.ip_address)),
        _tlv(T_DNS, _str(msg.dns_server)),
        _tlv(T_5QI, bytes([msg.qos_5qi])),
    ])


def _encode_pdu_est_reject(msg: PduSessionEstablishmentReject) -> bytes:
    return b"".join([
        _tlv(T_PSI, bytes([msg.pdu_session_id])),
        _tlv(T_CAUSE, ies.encode_cause(msg.cause)),
        _tlv(T_ACK_FLAG, bytes([1 if msg.is_ack else 0])),
    ])


def _encode_pdu_mod_request(msg: PduSessionModificationRequest) -> bytes:
    return b"".join([
        _tlv(T_PSI, bytes([msg.pdu_session_id])),
        _tlv(T_TFT, _str_tuple(msg.requested_tft)),
    ])


def _encode_pdu_mod_reject(msg: PduSessionModificationReject) -> bytes:
    return b"".join([
        _tlv(T_PSI, bytes([msg.pdu_session_id])),
        _tlv(T_CAUSE, ies.encode_cause(msg.cause)),
    ])


def _encode_pdu_mod_command(msg: PduSessionModificationCommand) -> bytes:
    parts = [_tlv(T_PSI, bytes([msg.pdu_session_id])), _tlv(T_TFT, _str_tuple(msg.new_tft))]
    if msg.new_dns_server is not None:
        parts.append(_tlv(T_NEW_DNS, _str(msg.new_dns_server)))
    return b"".join(parts)


def _encode_pdu_rel_request(msg: PduSessionReleaseRequest) -> bytes:
    return _tlv(T_PSI, bytes([msg.pdu_session_id]))


def _encode_pdu_rel_command(msg: PduSessionReleaseCommand) -> bytes:
    return b"".join([
        _tlv(T_PSI, bytes([msg.pdu_session_id])),
        _tlv(T_CAUSE, ies.encode_cause(msg.cause)),
    ])


#: Registration table: message class -> (prebuilt wire header, body encoder).
#: Built once at import; ``encode`` is a dict lookup, not a dispatch chain.
_ENCODERS: dict[type, tuple[bytes, object]] = {
    RegistrationRequest: (_wire_header(MessageType.REGISTRATION_REQUEST), _encode_registration_request),
    RegistrationAccept: (_wire_header(MessageType.REGISTRATION_ACCEPT), _encode_registration_accept),
    RegistrationReject: (_wire_header(MessageType.REGISTRATION_REJECT), _encode_registration_reject),
    DeregistrationRequest: (_wire_header(MessageType.DEREGISTRATION_REQUEST), _encode_deregistration_request),
    ServiceRequest: (_wire_header(MessageType.SERVICE_REQUEST), _encode_service_request),
    ServiceReject: (_wire_header(MessageType.SERVICE_REJECT), _encode_service_reject),
    AuthenticationRequest: (_wire_header(MessageType.AUTHENTICATION_REQUEST), _encode_auth_request),
    AuthenticationResponse: (_wire_header(MessageType.AUTHENTICATION_RESPONSE), _encode_auth_response),
    AuthenticationFailure: (_wire_header(MessageType.AUTHENTICATION_FAILURE), _encode_auth_failure),
    PduSessionEstablishmentRequest: (_wire_header(MessageType.PDU_SESSION_ESTABLISHMENT_REQUEST), _encode_pdu_est_request),
    PduSessionEstablishmentAccept: (_wire_header(MessageType.PDU_SESSION_ESTABLISHMENT_ACCEPT), _encode_pdu_est_accept),
    PduSessionEstablishmentReject: (_wire_header(MessageType.PDU_SESSION_ESTABLISHMENT_REJECT), _encode_pdu_est_reject),
    PduSessionModificationRequest: (_wire_header(MessageType.PDU_SESSION_MODIFICATION_REQUEST), _encode_pdu_mod_request),
    PduSessionModificationReject: (_wire_header(MessageType.PDU_SESSION_MODIFICATION_REJECT), _encode_pdu_mod_reject),
    PduSessionModificationCommand: (_wire_header(MessageType.PDU_SESSION_MODIFICATION_COMMAND), _encode_pdu_mod_command),
    PduSessionReleaseRequest: (_wire_header(MessageType.PDU_SESSION_RELEASE_REQUEST), _encode_pdu_rel_request),
    PduSessionReleaseCommand: (_wire_header(MessageType.PDU_SESSION_RELEASE_COMMAND), _encode_pdu_rel_command),
}


# ---------------------------------------------------------------------------
# Decode
# ---------------------------------------------------------------------------
def decode(data: bytes) -> NasMessage:
    """Parse wire bytes back into a NAS message object."""
    if len(data) < 3:
        raise CodecError("NAS message shorter than header")
    epd, security_header, message_type = data[0], data[1], data[2]
    if epd not in (EPD_5GMM, EPD_5GSM):
        raise CodecError(f"unknown extended protocol discriminator 0x{epd:02x}")
    if security_header != 0x00:
        raise CodecError("only plain security header supported")
    fields = _parse_tlvs(data[3:])
    decoder = _DECODERS.get(message_type)
    if decoder is None:
        raise CodecError(f"unknown message type 0x{message_type:02x}")
    try:
        return decoder(fields)
    except CodecError:
        raise
    except (ValueError, IndexError, struct.error) as exc:
        # A damaged IE value: bad UTF-8, an empty or wrong-length
        # field, or a value its IE rejects.
        raise CodecError(
            f"malformed IE in message type 0x{message_type:02x}: {exc}") from exc


def _req(fields: dict[int, bytes], tag: int) -> bytes:
    if tag not in fields:
        raise CodecError(f"missing mandatory IE 0x{tag:02x}")
    return fields[tag]


def _decode_registration_request(f: dict[int, bytes]) -> RegistrationRequest:
    return RegistrationRequest(
        supi=_req(f, T_SUPI).decode("utf-8"),
        guti=f[T_GUTI].decode("utf-8") if T_GUTI in f else None,
        requested_plmn=_req(f, T_PLMN).decode("utf-8"),
        tracking_area=struct.unpack(">I", _req(f, T_TA))[0],
        capabilities=_parse_str_tuple(_req(f, T_CAPS)),
        requested_sst=f[T_SST][0] if T_SST in f else 1,
    )


def _decode_registration_accept(f: dict[int, bytes]) -> RegistrationAccept:
    raw = _req(f, T_TALIST)
    tas = tuple(struct.unpack_from(">I", raw, i)[0] for i in range(0, len(raw), 4))
    return RegistrationAccept(
        guti=_req(f, T_GUTI).decode("utf-8"),
        tracking_area_list=tas,
        t3512_seconds=struct.unpack(">d", _req(f, T_TIMER))[0],
    )


def _decode_registration_reject(f: dict[int, bytes]) -> RegistrationReject:
    return RegistrationReject(
        cause=ies.decode_cause(_req(f, T_CAUSE)),
        t3502_seconds=struct.unpack(">d", f[T_TIMER])[0] if T_TIMER in f else None,
    )


def _decode_deregistration_request(f: dict[int, bytes]) -> DeregistrationRequest:
    return DeregistrationRequest(
        supi=_req(f, T_SUPI).decode("utf-8"),
        switch_off=bool(_req(f, T_SWITCH_OFF)[0]),
    )


def _decode_service_request(f: dict[int, bytes]) -> ServiceRequest:
    return ServiceRequest(guti=_req(f, T_GUTI).decode("utf-8"))


def _decode_service_reject(f: dict[int, bytes]) -> ServiceReject:
    return ServiceReject(cause=ies.decode_cause(_req(f, T_CAUSE)))


def _decode_auth_request(f: dict[int, bytes]) -> AuthenticationRequest:
    return AuthenticationRequest(
        rand=ies.validate_rand(_req(f, T_RAND)),
        autn=ies.validate_autn(_req(f, T_AUTN)),
        ngksi=_req(f, T_NGKSI)[0],
    )


def _decode_auth_response(f: dict[int, bytes]) -> AuthenticationResponse:
    return AuthenticationResponse(res=_req(f, T_RES))


def _decode_auth_failure(f: dict[int, bytes]) -> AuthenticationFailure:
    return AuthenticationFailure(cause=ies.decode_cause(_req(f, T_CAUSE)), auts=_req(f, T_AUTS))


def _decode_pdu_est_request(f: dict[int, bytes]) -> PduSessionEstablishmentRequest:
    dnn_wire = _req(f, T_DNN)
    try:
        dnn = ies.decode_dnn(dnn_wire)
    except (IesDecodeError, UnicodeDecodeError):
        # Opaque (diagnosis) payload: labels are binary ciphertext.
        dnn = "DIAG"
    # The raw field bytes are always preserved: the SEED core plugin
    # inspects them directly (diagnosis payloads are not ASCII labels).
    return PduSessionEstablishmentRequest(
        pdu_session_id=_req(f, T_PSI)[0],
        dnn=dnn,
        dnn_raw=dnn_wire,
        pdu_session_type=_req(f, T_PDU_TYPE).decode("utf-8"),
        s_nssai_sst=_req(f, T_SST)[0],
    )


def _decode_pdu_est_accept(f: dict[int, bytes]) -> PduSessionEstablishmentAccept:
    return PduSessionEstablishmentAccept(
        pdu_session_id=_req(f, T_PSI)[0],
        ip_address=_req(f, T_IP).decode("utf-8"),
        dns_server=_req(f, T_DNS).decode("utf-8"),
        qos_5qi=_req(f, T_5QI)[0],
    )


def _decode_pdu_est_reject(f: dict[int, bytes]) -> PduSessionEstablishmentReject:
    return PduSessionEstablishmentReject(
        pdu_session_id=_req(f, T_PSI)[0],
        cause=ies.decode_cause(_req(f, T_CAUSE)),
        is_ack=bool(_req(f, T_ACK_FLAG)[0]),
    )


def _decode_pdu_mod_request(f: dict[int, bytes]) -> PduSessionModificationRequest:
    return PduSessionModificationRequest(
        pdu_session_id=_req(f, T_PSI)[0],
        requested_tft=_parse_str_tuple(_req(f, T_TFT)),
    )


def _decode_pdu_mod_reject(f: dict[int, bytes]) -> PduSessionModificationReject:
    return PduSessionModificationReject(
        pdu_session_id=_req(f, T_PSI)[0],
        cause=ies.decode_cause(_req(f, T_CAUSE)),
    )


def _decode_pdu_mod_command(f: dict[int, bytes]) -> PduSessionModificationCommand:
    return PduSessionModificationCommand(
        pdu_session_id=_req(f, T_PSI)[0],
        new_tft=_parse_str_tuple(_req(f, T_TFT)),
        new_dns_server=f[T_NEW_DNS].decode("utf-8") if T_NEW_DNS in f else None,
    )


def _decode_pdu_rel_request(f: dict[int, bytes]) -> PduSessionReleaseRequest:
    return PduSessionReleaseRequest(pdu_session_id=_req(f, T_PSI)[0])


def _decode_pdu_rel_command(f: dict[int, bytes]) -> PduSessionReleaseCommand:
    return PduSessionReleaseCommand(
        pdu_session_id=_req(f, T_PSI)[0],
        cause=ies.decode_cause(_req(f, T_CAUSE)),
    )


IesDecodeError = ies.IeError

_DECODERS = {
    MessageType.REGISTRATION_REQUEST: _decode_registration_request,
    MessageType.REGISTRATION_ACCEPT: _decode_registration_accept,
    MessageType.REGISTRATION_REJECT: _decode_registration_reject,
    MessageType.DEREGISTRATION_REQUEST: _decode_deregistration_request,
    MessageType.SERVICE_REQUEST: _decode_service_request,
    MessageType.SERVICE_REJECT: _decode_service_reject,
    MessageType.AUTHENTICATION_REQUEST: _decode_auth_request,
    MessageType.AUTHENTICATION_RESPONSE: _decode_auth_response,
    MessageType.AUTHENTICATION_FAILURE: _decode_auth_failure,
    MessageType.PDU_SESSION_ESTABLISHMENT_REQUEST: _decode_pdu_est_request,
    MessageType.PDU_SESSION_ESTABLISHMENT_ACCEPT: _decode_pdu_est_accept,
    MessageType.PDU_SESSION_ESTABLISHMENT_REJECT: _decode_pdu_est_reject,
    MessageType.PDU_SESSION_MODIFICATION_REQUEST: _decode_pdu_mod_request,
    MessageType.PDU_SESSION_MODIFICATION_REJECT: _decode_pdu_mod_reject,
    MessageType.PDU_SESSION_MODIFICATION_COMMAND: _decode_pdu_mod_command,
    MessageType.PDU_SESSION_RELEASE_REQUEST: _decode_pdu_rel_request,
    MessageType.PDU_SESSION_RELEASE_COMMAND: _decode_pdu_rel_command,
}
