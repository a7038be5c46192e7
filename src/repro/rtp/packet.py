"""RTP packet model and wire-format codec (RFC 3550 subset).

The data plane of Scallop parses real RTP packets, so this module provides a
byte-accurate encoder/decoder for the RTP fixed header, the contributing-source
list, and the header-extension block.  Extension *elements* (one-byte and
two-byte profiles) are handled by :mod:`repro.rtp.extensions`.

The object model is intentionally small and immutable-ish: a packet is a
:class:`RtpPacket` dataclass plus raw payload bytes.  Mutating helpers used by
the SFU (sequence-number rewrite, SSRC rewrite) return new objects so that a
replicated packet never aliases state with its siblings.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

RTP_VERSION = 2
RTP_HEADER_LEN = 12

#: RTP payload types used throughout the reproduction.  The concrete numbers
#: follow common WebRTC dynamic-payload-type assignments.
PT_AUDIO_OPUS = 111
PT_VIDEO_AV1 = 45
PT_VIDEO_RTX = 46

#: One-byte extension profile marker (RFC 8285).
EXTENSION_PROFILE_ONE_BYTE = 0xBEDE
#: Two-byte extension profile marker (RFC 8285, appbits zero).
EXTENSION_PROFILE_TWO_BYTE = 0x1000

SEQ_MOD = 1 << 16
TS_MOD = 1 << 32


class RtpParseError(ValueError):
    """Raised when a buffer cannot be parsed as an RTP packet."""


def seq_delta(newer: int, older: int) -> int:
    """Return the signed wrap-aware distance ``newer - older`` for 16-bit
    sequence numbers.

    The result lies in ``[-32768, 32767]``; a positive value means ``newer``
    is ahead of ``older`` in stream order.
    """
    return ((newer - older + (SEQ_MOD // 2)) % SEQ_MOD) - (SEQ_MOD // 2)


def seq_add(seq: int, delta: int) -> int:
    """Add ``delta`` to a 16-bit sequence number with wrap-around."""
    return (seq + delta) % SEQ_MOD


@dataclass(frozen=True)
class RtpHeaderExtension:
    """The raw RTP header-extension block (profile id + payload words)."""

    profile: int
    data: bytes

    def __post_init__(self) -> None:
        if len(self.data) % 4 != 0:
            raise ValueError("extension data must be a multiple of 4 bytes")


@dataclass(frozen=True)
class RtpPacket:
    """A parsed RTP packet.

    Attributes mirror RFC 3550 header fields.  ``payload`` carries the media
    bytes (possibly already SRTP-encrypted; the SFU never inspects it).
    """

    payload_type: int
    sequence_number: int
    timestamp: int
    ssrc: int
    marker: bool = False
    padding: bool = False
    csrcs: Tuple[int, ...] = ()
    extension: Optional[RtpHeaderExtension] = None
    payload: bytes = b""
    #: Total serialized size in bytes, derived once by ``__post_init__``
    #: (which every copy made by ``replace`` / :meth:`with_sequence_number` /
    #: :meth:`with_ssrc` runs again).
    size: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.payload_type < 128:
            raise ValueError(f"payload type out of range: {self.payload_type}")
        if not 0 <= self.sequence_number < SEQ_MOD:
            raise ValueError(f"sequence number out of range: {self.sequence_number}")
        if not 0 <= self.timestamp < TS_MOD:
            raise ValueError(f"timestamp out of range: {self.timestamp}")
        if not 0 <= self.ssrc < TS_MOD:
            raise ValueError(f"ssrc out of range: {self.ssrc}")
        if len(self.csrcs) > 15:
            raise ValueError("at most 15 CSRCs are allowed")
        object.__setattr__(self, "size", self.header_length + len(self.payload))

    # -- helpers used by SFUs -------------------------------------------------

    def with_sequence_number(self, seq: int) -> "RtpPacket":
        """Return a copy with a rewritten sequence number."""
        return replace(self, sequence_number=seq % SEQ_MOD)

    def with_ssrc(self, ssrc: int) -> "RtpPacket":
        """Return a copy with a rewritten synchronization source."""
        return replace(self, ssrc=ssrc)

    @property
    def header_length(self) -> int:
        """Length in bytes of the serialized header (incl. CSRCs/extension)."""
        length = RTP_HEADER_LEN + 4 * len(self.csrcs)
        if self.extension is not None:
            length += 4 + len(self.extension.data)
        return length

    def is_audio(self) -> bool:
        return self.payload_type == PT_AUDIO_OPUS

    def is_video(self) -> bool:
        return self.payload_type in (PT_VIDEO_AV1, PT_VIDEO_RTX)

    # -- wire format ----------------------------------------------------------

    def serialize(self) -> bytes:
        """Encode to RFC 3550 wire format."""
        first = (RTP_VERSION << 6) | (int(self.padding) << 5) | len(self.csrcs)
        if self.extension is not None:
            first |= 1 << 4
        second = (int(self.marker) << 7) | self.payload_type
        out = bytearray(
            struct.pack(
                "!BBHII",
                first,
                second,
                self.sequence_number,
                self.timestamp,
                self.ssrc,
            )
        )
        for csrc in self.csrcs:
            out += struct.pack("!I", csrc)
        if self.extension is not None:
            out += struct.pack("!HH", self.extension.profile, len(self.extension.data) // 4)
            out += self.extension.data
        out += self.payload
        return bytes(out)

    @classmethod
    def parse(cls, data: bytes) -> "RtpPacket":
        """Decode from RFC 3550 wire format.

        Raises :class:`RtpParseError` on malformed input.
        """
        if len(data) < RTP_HEADER_LEN:
            raise RtpParseError("buffer shorter than RTP fixed header")
        first, second, seq, ts, ssrc = struct.unpack("!BBHII", data[:RTP_HEADER_LEN])
        version = first >> 6
        if version != RTP_VERSION:
            raise RtpParseError(f"unsupported RTP version {version}")
        padding = bool(first & 0x20)
        has_extension = bool(first & 0x10)
        csrc_count = first & 0x0F
        marker = bool(second & 0x80)
        payload_type = second & 0x7F

        offset = RTP_HEADER_LEN
        csrcs: List[int] = []
        if len(data) < offset + 4 * csrc_count:
            raise RtpParseError("truncated CSRC list")
        for _ in range(csrc_count):
            csrcs.append(struct.unpack_from("!I", data, offset)[0])
            offset += 4

        extension: Optional[RtpHeaderExtension] = None
        if has_extension:
            if len(data) < offset + 4:
                raise RtpParseError("truncated extension header")
            profile, ext_words = struct.unpack_from("!HH", data, offset)
            offset += 4
            ext_len = 4 * ext_words
            if len(data) < offset + ext_len:
                raise RtpParseError("truncated extension data")
            extension = RtpHeaderExtension(profile=profile, data=data[offset : offset + ext_len])
            offset += ext_len

        payload = data[offset:]
        if padding and payload:
            pad_len = payload[-1]
            if pad_len == 0 or pad_len > len(payload):
                raise RtpParseError("invalid padding length")
            payload = payload[: len(payload) - pad_len]

        return cls(
            payload_type=payload_type,
            sequence_number=seq,
            timestamp=ts,
            ssrc=ssrc,
            marker=marker,
            padding=False,
            csrcs=tuple(csrcs),
            extension=extension,
            payload=payload,
        )


def looks_like_rtp(data: bytes) -> bool:
    """Cheap classification mirroring the data plane's 4-bit lookahead.

    The Tofino program looks at the first bits of the UDP payload to decide
    whether a packet resembles RTP/RTCP (version == 2) as opposed to STUN
    (which always starts with two zero bits).
    """
    if len(data) < 2:
        return False
    return (data[0] >> 6) == RTP_VERSION


def is_rtcp(data: bytes) -> bool:
    """Distinguish RTCP from RTP by payload-type range (RFC 5761 demux)."""
    if len(data) < 2 or (data[0] >> 6) != RTP_VERSION:
        return False
    pt = data[1] & 0x7F
    # RTCP packet types 200..207 map to 72..79 in the RTP PT field space.
    return 72 <= pt <= 79
