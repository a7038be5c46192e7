"""The data-plane parser model (paper Appendix E).

The Tofino parser walks a largely static parse graph with limited lookahead
and bounded depth.  Scallop's program classifies UDP payloads into RTP media,
RTCP, and STUN by looking at the first bits, then — for RTP video — walks the
header-extension elements up to a bounded depth to find the AV1 dependency
descriptor and extract its template id.  Anything beyond those capabilities
(extended descriptors carrying a template structure, STUN's TLV attributes,
RTCP compound payloads) must be punted to the switch CPU.

This module reproduces exactly that capability envelope, operating on the same
byte layouts as the real protocols.  Like the hardware, the RTP parse reads
header bytes at offsets: it walks the extension elements in place and builds
no extension, element or descriptor object (the object-model walk it
replaced, :func:`repro.rtp.extensions.decode_extensions` plus
:meth:`DependencyDescriptor.parse_prefix`, is the test suite's reference).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from ..netsim.datagram import Datagram, PayloadKind
from ..rtp.extensions import EXT_ID_AV1_DEPENDENCY_DESCRIPTOR
from ..rtp.packet import (
    EXTENSION_PROFILE_ONE_BYTE,
    EXTENSION_PROFILE_TWO_BYTE,
    PT_AUDIO_OPUS,
    RtpPacket,
)
from ..rtp.wire import PacketView
from ..rtp.rtcp import (
    Nack,
    PictureLossIndication,
    ReceiverReport,
    Remb,
    RtcpPacket,
    SenderReport,
    SourceDescription,
)
from ..stun.message import StunMessage

#: Maximum number of header-extension elements the parse graph can traverse
#: before running out of parser states (the depth-aware tree of Appendix E).
MAX_EXTENSION_ELEMENTS = 4
#: Maximum dependency-descriptor bytes the parser can pull into PHV; the
#: mandatory DD prefix fits, an extended descriptor with a template structure
#: does not.
MAX_DD_BYTES_PARSEABLE = 4


class PacketClass(str, Enum):
    """The classification the ingress parser produces for every packet."""

    RTP_VIDEO = "rtp_video"
    RTP_AUDIO = "rtp_audio"
    RTCP_SENDER = "rtcp_sender"       # SR / SDES: originates at a media sender
    RTCP_FEEDBACK = "rtcp_feedback"   # RR / REMB / NACK / PLI: from a receiver
    STUN = "stun"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class ParseResult:
    """What the ingress parser extracted from one packet."""

    packet_class: PacketClass
    ssrc: Optional[int] = None
    template_id: Optional[int] = None
    frame_number: Optional[int] = None
    start_of_frame: bool = False
    end_of_frame: bool = False
    has_extended_descriptor: bool = False
    needs_cpu: bool = False
    parse_depth: int = 0
    #: ``packet_class.value`` precomputed at construction: the batch paths
    #: key per-packet accounting tallies on it, and reading it through the
    #: enum's ``DynamicClassAttribute`` descriptor costs a call per packet.
    #: Derived, so it never disagrees with ``packet_class``.
    class_value: str = ""
    #: ``packet_class is RTP_VIDEO``, precomputed for the same reason.
    is_video: bool = False
    #: Whether the pipeline must copy this packet to the switch CPU
    #: (``needs_cpu and has_extended_descriptor``), precomputed likewise.
    cpu_copy: bool = False

    def __post_init__(self) -> None:
        if not self.class_value:
            object.__setattr__(self, "class_value", self.packet_class.value)
        object.__setattr__(self, "is_video", self.packet_class is PacketClass.RTP_VIDEO)
        object.__setattr__(self, "cpu_copy", self.needs_cpu and self.has_extended_descriptor)


def rtp_parse_key(packet: "RtpPacket | PacketView") -> tuple:
    """The memoized-parse key: ``(ssrc, payload_type[, profile, extension
    bytes])``, exactly the fields the parse outcome depends on.  A wire
    packet whose extension runs past its buffer keys with ``None`` bytes
    (see :meth:`PacketView.parse_key`)."""
    if isinstance(packet, PacketView):
        return packet.parse_key()
    extension = packet.extension
    if extension is None:
        return (packet.ssrc, packet.payload_type)
    # flatten to (profile, bytes): bytes cache their hash, the frozen
    # dataclass recomputes it on every lookup
    return (packet.ssrc, packet.payload_type, extension.profile, extension.data)


class IngressParser:
    """The bounded-capability parser at the front of the ingress pipeline."""

    #: Bound on the memoized-parse cache used by the media path.
    PARSE_CACHE_LIMIT = 8192

    def __init__(
        self,
        max_extension_elements: int = MAX_EXTENSION_ELEMENTS,
        max_dd_bytes: int = MAX_DD_BYTES_PARSEABLE,
    ) -> None:
        self.max_extension_elements = max_extension_elements
        self.max_dd_bytes = max_dd_bytes
        self.packets_parsed = 0
        self.cpu_punts = 0
        self._rtp_parse_cache: dict = {}
        #: ``ssrc -> (frame number, memo keys)`` of each video stream's newest
        #: memoized frame.  A video key embeds its frame number (DD bytes)
        #: and dies with the frame, so the memo retains one frame per stream
        #: instead of filling to its limit with dead entries.
        self._live_frame_keys: Dict[int, Tuple[int, List[tuple]]] = {}
        self.parse_cache_hits = 0

    def parse(self, datagram: Datagram) -> ParseResult:
        """Classify a datagram and extract the fields the pipeline matches on."""
        self.packets_parsed += 1
        if datagram.kind == PayloadKind.STUN:
            self.cpu_punts += 1
            return ParseResult(packet_class=PacketClass.STUN, needs_cpu=True)
        if datagram.kind == PayloadKind.RTCP:
            return self._parse_rtcp(datagram)
        if datagram.kind == PayloadKind.RTP and isinstance(
            datagram.payload, (RtpPacket, PacketView)
        ):
            return self._parse_rtp(*rtp_parse_key(datagram.payload))
        return ParseResult(packet_class=PacketClass.UNKNOWN, needs_cpu=True)

    def parse_rtp_cached(self, packet: "RtpPacket | PacketView") -> ParseResult:
        """Memoized RTP parse of an object packet or a wire view.

        The parse outcome is fully determined by the payload type, the SSRC,
        and the raw header-extension bytes, so packets of the same stream
        whose extension block repeats (every non-boundary packet of a frame,
        and RTX copies) reuse the frozen :class:`ParseResult` instead of
        reading the block's bytes again.  Both representations key the memo
        with :func:`rtp_parse_key`, so mixed wire/object traffic of the same
        stream hits one entry.  Punt/parse counters advance exactly as on
        the uncached path so the accounting stays identical (the pipeline's
        media path inlines the probe and the hit accounting and calls
        :meth:`_parse_and_memoize` on a miss).
        """
        key = rtp_parse_key(packet)
        cached = self._rtp_parse_cache.get(key)
        if cached is None:
            return self._parse_and_memoize(key)
        self.packets_parsed += 1
        if cached.needs_cpu:
            self.cpu_punts += 1
        self.parse_cache_hits += 1
        return cached

    def _parse_and_memoize(self, key: tuple) -> ParseResult:
        """The memo's miss path: parses from the key's own fields, so the
        packet is not read again.  A damaged packet's punt is never memoized,
        so junk cannot fill the memo."""
        result = self._parse_rtp(*key)
        self.packets_parsed += 1
        if result.packet_class is PacketClass.UNKNOWN:
            return result
        cache = self._rtp_parse_cache
        if len(cache) >= self.PARSE_CACHE_LIMIT:
            cache.clear()
            self._live_frame_keys.clear()
        frame_number = result.frame_number
        if frame_number is not None:
            live = self._live_frame_keys.get(key[0])
            if live is None or live[0] != frame_number:
                for stale in live[1] if live is not None else ():
                    cache.pop(stale, None)
                live = self._live_frame_keys[key[0]] = (frame_number, [])
            live[1].append(key)
        cache[key] = result
        return result

    # -- RTP -----------------------------------------------------------------------

    def _parse_rtp(
        self,
        ssrc: int,
        payload_type: int,
        profile: Optional[int] = None,
        block: Optional[bytes] = b"",
    ) -> ParseResult:
        """The byte-level RTP parse: ``(ssrc, payload type, extension
        profile, extension block) -> ParseResult``.

        Walks the RFC 8285 one-byte or two-byte elements in place, as the
        Tofino parse graph does, and reads the AV1 dependency descriptor's
        flags and frame number at fixed offsets of its element.  A block the
        element walk cannot decode (an element running past the block, a
        one-byte element with id 0) or an extension that runs past the packet
        (``block is None``, see :meth:`PacketView.parse_key`) is a damaged
        packet: counted as an ``UNKNOWN`` CPU punt, never forwarded.
        """
        if block is None:
            return self._damaged(ssrc)
        if payload_type == PT_AUDIO_OPUS:
            return ParseResult(packet_class=PacketClass.RTP_AUDIO, ssrc=ssrc, parse_depth=12)

        template_id: Optional[int] = None
        frame_number: Optional[int] = None
        start = end = False
        extended = False
        needs_cpu = False
        depth = 12

        one_byte = profile == EXTENSION_PROFILE_ONE_BYTE
        if one_byte or (profile is not None and profile & 0xFFF0 == EXTENSION_PROFILE_TWO_BYTE):
            size = len(block)
        else:
            size = 0  # no extension, or a profile the parse graph cannot enter
        # every element is decoded (a damaged one anywhere punts the packet),
        # but the descriptor is looked for only until the walk lands
        landed = False
        index = 0
        offset = 0
        while offset < size:
            byte = block[offset]
            if byte == 0:  # padding
                offset += 1
                continue
            if one_byte:
                ext_id = byte >> 4
                if ext_id == 15:  # reserved id: terminates the block
                    break
                if ext_id == 0:
                    return self._damaged(ssrc)
                length = (byte & 0x0F) + 1
                offset += 1
            else:
                if offset + 2 > size:
                    return self._damaged(ssrc)
                ext_id = byte
                length = block[offset + 1]
                offset += 2
            stop = offset + length
            if stop > size:
                return self._damaged(ssrc)
            if not landed:
                depth += 2 + length
                if index >= self.max_extension_elements:
                    # the parse graph ran out of landing states; give up on the DD
                    landed = True
                elif ext_id == EXT_ID_AV1_DEPENDENCY_DESCRIPTOR:
                    landed = True
                    if length < 3:
                        needs_cpu = True  # shorter than the mandatory prefix
                    else:
                        flags = block[offset]
                        template_id = flags & 0x1F
                        frame_number = (block[offset + 1] << 8) | block[offset + 2]
                        start = bool(flags & 0x80)
                        end = bool(flags & 0x40)
                        if length > self.max_dd_bytes:
                            # extended descriptor (template structure) - data
                            # plane cannot parse it; the packet is still
                            # forwarded, but a copy goes to the switch agent
                            # for SVC analysis.
                            extended = True
                            needs_cpu = True
                index += 1
            offset = stop

        if needs_cpu:
            self.cpu_punts += 1
        # Minted via __new__ + a prepared __dict__ (one dict build instead of
        # the frozen-dataclass __init__'s object.__setattr__ per field): the
        # descriptor's frame number makes video extension bytes distinct per
        # frame, so this runs on most video packets.  The dict carries every
        # field, including the derived ones __post_init__ computes, so the
        # result is field-identical to the constructor's.
        result = ParseResult.__new__(ParseResult)
        object.__setattr__(
            result,
            "__dict__",
            {
                "packet_class": PacketClass.RTP_VIDEO,
                "ssrc": ssrc,
                "template_id": template_id,
                "frame_number": frame_number,
                "start_of_frame": start,
                "end_of_frame": end,
                "has_extended_descriptor": extended,
                "needs_cpu": needs_cpu,
                "parse_depth": depth,
                "class_value": "rtp_video",
                "is_video": True,
                "cpu_copy": needs_cpu and extended,
            },
        )
        return result

    def _damaged(self, ssrc: int) -> ParseResult:
        """A packet whose header extension cannot be decoded: punted."""
        self.cpu_punts += 1
        return ParseResult(
            packet_class=PacketClass.UNKNOWN, ssrc=ssrc, needs_cpu=True, parse_depth=12
        )

    # -- RTCP ----------------------------------------------------------------------

    def _parse_rtcp(self, datagram: Datagram) -> ParseResult:
        packets: Sequence[RtcpPacket] = datagram.payload  # type: ignore[assignment]
        has_sender_info = any(isinstance(p, (SenderReport, SourceDescription)) for p in packets)
        has_feedback = any(
            isinstance(p, (ReceiverReport, Remb, Nack, PictureLossIndication)) for p in packets
        )
        ssrc = None
        for p in packets:
            if isinstance(p, (SenderReport, ReceiverReport, Remb, Nack, PictureLossIndication)):
                ssrc = p.sender_ssrc
                break
        if has_feedback:
            # feedback needs analysis by the agent (REMB filter, rate control);
            # the data plane forwards it per installed rules and copies it to CPU
            self.cpu_punts += 1
            return ParseResult(packet_class=PacketClass.RTCP_FEEDBACK, ssrc=ssrc, needs_cpu=True, parse_depth=8)
        if has_sender_info:
            return ParseResult(packet_class=PacketClass.RTCP_SENDER, ssrc=ssrc, parse_depth=8)
        self.cpu_punts += 1
        return ParseResult(packet_class=PacketClass.UNKNOWN, ssrc=ssrc, needs_cpu=True, parse_depth=8)
