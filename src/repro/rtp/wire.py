"""Wire-native RTP packet views: packed buffers with struct-offset accessors.

Scallop's premise is that an SFU is a per-packet *header transformation*: the
switch never looks at media payload bytes, it reads a handful of header fields
and rewrites two of them (sequence number, SSRC) in place.  The object model in
:mod:`repro.rtp.packet` materializes a full :class:`~repro.rtp.packet.RtpPacket`
dataclass per packet, which is convenient for protocol logic but is pure
overhead on the forwarding fast path — per replica, per packet.

:class:`PacketView` is the wire-native alternative: a thin view over one
contiguous ``bytes``/``bytearray`` buffer holding the packet exactly as it
would appear on the wire (RFC 3550 layout).  Header fields are decoded lazily
via fixed struct offsets and nothing else is parsed unless asked for:

======================  =======================================================
offset (bytes)          field
======================  =======================================================
0                       ``V(2) P(1) X(1) CC(4)`` — version/padding/ext/CSRCs
1                       ``M(1) PT(7)`` — marker / payload type
2..3                    sequence number (big-endian u16)
4..7                    timestamp (big-endian u32)
8..11                   SSRC (big-endian u32)
12..12+4*CC             CSRC list
then (if X)             ``profile(u16) length(u16)`` + ``4*length`` ext bytes
then                    payload (opaque to the SFU)
======================  =======================================================

Mutators (:meth:`PacketView.set_sequence_number`, :meth:`~PacketView.set_ssrc`,
:meth:`~PacketView.set_timestamp`, :meth:`~PacketView.set_frame_number`) patch
the buffer **in place** — they require a mutable ``bytearray`` buffer and are
what the egress pipeline uses instead of ``dataclasses.replace`` copies.

``PacketView`` round-trips with the object codec
(:meth:`PacketView.to_packet` / :meth:`PacketView.from_packet`) and is
property-tested byte-identical against it.  One deliberate asymmetry carried
over from :meth:`RtpPacket.parse`: a view reports the raw on-wire ``size``
including any padding bytes, while ``to_packet`` strips padding (the object
codec's canonical form).  The simulated endpoints never emit padded packets,
so the two representations agree everywhere they meet.
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple, Union

from .packet import (
    RTP_HEADER_LEN,
    RTP_VERSION,
    SEQ_MOD,
    RtpHeaderExtension,
    RtpPacket,
    RtpParseError,
)

_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_EXT_HEADER = struct.Struct("!HH")
#: The entire 12-byte fixed header in one precompiled struct:
#: ``first_byte, second_byte, sequence_number, timestamp, ssrc``.
_FIXED_HEADER = struct.Struct("!BBHII")

Buffer = Union[bytes, bytearray]


class PacketView:
    """A lazily-parsed view over one RTP packet's wire bytes.

    The buffer is shared, never copied: replicas that need no rewrite reuse
    the same view, and rewritten replicas copy the buffer once and patch it
    in place (:meth:`with_sequence_number`).
    """

    __slots__ = ("buf", "_header_len")

    def __init__(self, buf: Buffer) -> None:
        if len(buf) < RTP_HEADER_LEN:
            raise RtpParseError("buffer shorter than RTP fixed header")
        if buf[0] >> 6 != RTP_VERSION:
            raise RtpParseError(f"unsupported RTP version {buf[0] >> 6}")
        self.buf = buf
        self._header_len: Optional[int] = None

    # -- header accessors (fixed struct offsets, no allocation) ----------------

    @property
    def padding(self) -> bool:
        return bool(self.buf[0] & 0x20)

    @property
    def has_extension(self) -> bool:
        return bool(self.buf[0] & 0x10)

    @property
    def csrc_count(self) -> int:
        return self.buf[0] & 0x0F

    @property
    def marker(self) -> bool:
        return bool(self.buf[1] & 0x80)

    @property
    def payload_type(self) -> int:
        return self.buf[1] & 0x7F

    @property
    def sequence_number(self) -> int:
        return _U16.unpack_from(self.buf, 2)[0]

    @property
    def timestamp(self) -> int:
        return _U32.unpack_from(self.buf, 4)[0]

    @property
    def ssrc(self) -> int:
        return _U32.unpack_from(self.buf, 8)[0]

    @property
    def csrcs(self) -> Tuple[int, ...]:
        return tuple(
            _U32.unpack_from(self.buf, RTP_HEADER_LEN + 4 * index)[0]
            for index in range(self.csrc_count)
        )

    # -- derived layout ---------------------------------------------------------

    @property
    def header_length(self) -> int:
        """Bytes of fixed header + CSRC list + extension block (lazy, cached)."""
        length = self._header_len
        if length is None:
            length = RTP_HEADER_LEN + 4 * self.csrc_count
            if self.has_extension:
                if len(self.buf) < length + 4:
                    raise RtpParseError("truncated extension header")
                _profile, ext_words = _EXT_HEADER.unpack_from(self.buf, length)
                length += 4 + 4 * ext_words
                if len(self.buf) < length:
                    raise RtpParseError("truncated extension data")
            self._header_len = length
        return length

    @property
    def extension_profile(self) -> Optional[int]:
        if not self.has_extension:
            return None
        return _U16.unpack_from(self.buf, RTP_HEADER_LEN + 4 * self.csrc_count)[0]

    def extension_bytes(self) -> bytes:
        """The raw extension element bytes (empty when no extension).

        Always returns ``bytes`` (never ``bytearray``) so the result is
        hashable and can key the parser's memoized-parse cache directly.
        """
        if not self.has_extension:
            return b""
        start = RTP_HEADER_LEN + 4 * self.csrc_count + 4
        return bytes(self.buf[start : self.header_length])

    @property
    def extension(self) -> Optional[RtpHeaderExtension]:
        """The extension block as the object codec's type (built on demand)."""
        profile = self.extension_profile
        if profile is None:
            return None
        return RtpHeaderExtension(profile=profile, data=self.extension_bytes())

    def parse_key(self) -> tuple:
        """The memoized-parse cache key, built in one pass over the buffer.

        Exactly the tuple :func:`~repro.dataplane.parser.rtp_parse_key`
        builds from an object packet's fields — ``(ssrc, payload_type[,
        profile, extension bytes])`` — but assembled with direct offset reads
        instead of chained properties (``PipelineDatapath._process_media``
        inlines the same reads).  Bounds-checked and never raises: when the
        extension header or its declared words run past the buffer, the
        extension bytes are ``None`` (the profile too if the header itself is
        cut short), which the parser punts as damaged.
        """
        buf = self.buf
        first, second, _seq, _ts, ssrc = _FIXED_HEADER.unpack_from(buf, 0)
        payload_type = second & 0x7F
        if not first & 0x10:
            return (ssrc, payload_type)
        base = RTP_HEADER_LEN + 4 * (first & 0x0F)
        if base + 4 > len(buf):
            return (ssrc, payload_type, None, None)
        profile, ext_words = _EXT_HEADER.unpack_from(buf, base)
        start = base + 4
        stop = start + 4 * ext_words
        if stop > len(buf):
            return (ssrc, payload_type, profile, None)
        return (ssrc, payload_type, profile, bytes(buf[start:stop]))

    @property
    def payload(self) -> bytes:
        """Raw payload bytes (padding not stripped)."""
        return bytes(self.buf[self.header_length :])

    @property
    def size(self) -> int:
        """On-wire size in bytes of the underlying buffer."""
        return len(self.buf)

    # -- in-place rewriting ------------------------------------------------------

    def set_sequence_number(self, seq: int) -> None:
        """Rewrite the sequence number in place (mutable buffers only)."""
        _U16.pack_into(self.buf, 2, seq % SEQ_MOD)

    def set_timestamp(self, timestamp: int) -> None:
        _U32.pack_into(self.buf, 4, timestamp & 0xFFFFFFFF)

    def set_ssrc(self, ssrc: int) -> None:
        _U32.pack_into(self.buf, 8, ssrc & 0xFFFFFFFF)

    def set_frame_number(self, frame_number: int, dd_ext_id: int) -> None:
        """Rewrite the AV1 dependency descriptor's frame number in place.

        The DD's mandatory prefix is ``flags(u8) frame_number(u16)``, so the
        frame number sits 1 byte into the element carrying ``dd_ext_id``.
        Raises :class:`~repro.rtp.packet.RtpParseError` when the packet has no
        such element.
        """
        offset = self._element_offset(dd_ext_id)
        if offset is None:
            raise RtpParseError("no dependency descriptor element to rewrite")
        _U16.pack_into(self.buf, offset + 1, frame_number % SEQ_MOD)

    def _element_offset(self, ext_id: int) -> Optional[int]:
        """Byte offset of the element ``ext_id``'s data inside the buffer,
        walking the RFC 8285 one-/two-byte layouts without materializing
        element objects."""
        profile = self.extension_profile
        if profile is None:
            return None
        start = RTP_HEADER_LEN + 4 * self.csrc_count + 4
        end = self.header_length
        buf = self.buf
        offset = start
        if profile == 0xBEDE:  # one-byte profile
            while offset < end:
                byte = buf[offset]
                if byte == 0:
                    offset += 1
                    continue
                eid = byte >> 4
                if eid == 15:
                    return None
                length = (byte & 0x0F) + 1
                if eid == ext_id:
                    return offset + 1
                offset += 1 + length
            return None
        if (profile & 0xFFF0) == 0x1000:  # two-byte profile
            while offset < end:
                if buf[offset] == 0:
                    offset += 1
                    continue
                if offset + 2 > end:
                    return None
                eid = buf[offset]
                length = buf[offset + 1]
                if eid == ext_id:
                    return offset + 2
                offset += 2 + length
            return None
        return None

    # -- copy-on-rewrite helpers -------------------------------------------------

    def mutable_copy(self) -> "PacketView":
        """A view over a fresh ``bytearray`` copy of this buffer."""
        return PacketView(bytearray(self.buf))

    def with_sequence_number(self, seq: int) -> "PacketView":
        """Copy the buffer once and patch the sequence number in place —
        the wire path's replacement for ``RtpPacket.with_sequence_number``.

        The copy skips ``__init__`` (the source view already validated the
        buffer, and patching two bytes at a fixed offset cannot invalidate
        it) and inherits the cached header length, so per-replica rewriting
        costs one buffer copy and one ``pack_into``.
        """
        buf = bytearray(self.buf)
        _U16.pack_into(buf, 2, seq % SEQ_MOD)
        copy = PacketView.__new__(PacketView)
        copy.buf = buf
        copy._header_len = self._header_len
        return copy

    # -- interop with the object codec --------------------------------------------

    def to_packet(self) -> RtpPacket:
        """Decode once into the object representation (reference codec)."""
        return RtpPacket.parse(bytes(self.buf))

    @classmethod
    def from_packet(cls, packet: RtpPacket) -> "PacketView":
        """Encode an object packet once into a wire-native view."""
        return cls(packet.serialize())

    # -- protocol plumbing ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.buf)

    def __bytes__(self) -> bytes:
        return bytes(self.buf)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PacketView):
            return bytes(self.buf) == bytes(other.buf)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(bytes(self.buf))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PacketView(pt={self.payload_type}, seq={self.sequence_number}, "
            f"ssrc={self.ssrc:#x}, len={len(self.buf)})"
        )

