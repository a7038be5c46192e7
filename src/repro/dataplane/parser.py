"""The data-plane parser model (paper Appendix E).

The Tofino parser walks a largely static parse graph with limited lookahead
and bounded depth.  Scallop's program classifies UDP payloads into RTP media,
RTCP, and STUN by looking at the first bits, then — for RTP video — walks the
header-extension elements up to a bounded depth to find the AV1 dependency
descriptor and extract its template id.  Anything beyond those capabilities
(extended descriptors carrying a template structure, STUN's TLV attributes,
RTCP compound payloads) must be punted to the switch CPU.

This module reproduces exactly that capability envelope, operating on the same
byte layouts as the real protocols (via the codecs in :mod:`repro.rtp`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from ..netsim.datagram import Datagram, PayloadKind
from ..rtp.av1 import DependencyDescriptor
from ..rtp.extensions import (
    EXT_ID_AV1_DEPENDENCY_DESCRIPTOR,
    decode_extensions,
)
from ..rtp.packet import PT_AUDIO_OPUS, RtpPacket
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


class IngressParser:
    """The bounded-capability parser at the front of the ingress pipeline."""

    #: Bound on the memoized-parse cache used by the batch fast path.
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
            # _parse_rtp reads only payload_type/ssrc/extension, which both
            # the object model and the wire-native view expose identically
            return self._parse_rtp(datagram.payload)
        return ParseResult(packet_class=PacketClass.UNKNOWN, needs_cpu=True)

    def parse_rtp_cached(self, packet: RtpPacket) -> ParseResult:
        """Memoized RTP parse used by the batch fast path.

        The parse outcome is fully determined by the payload type, the SSRC,
        and the raw header-extension bytes, so packets of the same stream
        whose extension block repeats (every non-boundary packet of a frame,
        and RTX copies) reuse the frozen :class:`ParseResult` instead of
        walking the extension elements again.  Punt/parse counters advance
        exactly as on the uncached path so the accounting stays identical.
        """
        extension = packet.extension
        if extension is None:
            key = (packet.ssrc, packet.payload_type)
        else:
            # flatten to (profile, bytes): bytes cache their hash, the frozen
            # dataclass recomputes it on every lookup
            key = (packet.ssrc, packet.payload_type, extension.profile, extension.data)
        return self._memoized_parse(key, packet)

    def parse_rtp_wire_cached(self, view: PacketView) -> ParseResult:
        """Memoized RTP parse for wire-native packets (the zero-decode path).

        Shares the memo dictionary (and key space) with
        :meth:`parse_rtp_cached`: the key is the tuple of exactly the bytes
        the parse outcome depends on, so mixed wire/object traffic of the
        same stream hits one cache.  The header fields are read straight off
        the buffer; only a cache miss walks the extension elements (through
        the same :meth:`_parse_rtp` the object path uses, so the resulting
        :class:`ParseResult` is identical field for field).
        """
        return self._memoized_parse(view.parse_key(), view)

    def _memoized_parse(self, key: tuple, packet: "RtpPacket | PacketView") -> ParseResult:
        """Shared cache lookup + punt/parse accounting for both RTP fast
        paths (object and wire build only the key differently)."""
        cached = self._rtp_parse_cache.get(key)
        if cached is not None:
            self.packets_parsed += 1
            if cached.needs_cpu:
                self.cpu_punts += 1
            self.parse_cache_hits += 1
            return cached
        result = self._parse_rtp(packet)
        self.packets_parsed += 1
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

    def _parse_rtp(self, packet: "RtpPacket | PacketView") -> ParseResult:
        if packet.payload_type == PT_AUDIO_OPUS:
            return ParseResult(packet_class=PacketClass.RTP_AUDIO, ssrc=packet.ssrc, parse_depth=12)

        template_id: Optional[int] = None
        frame_number: Optional[int] = None
        start = end = False
        extended = False
        needs_cpu = False
        depth = 12

        elements = decode_extensions(packet.extension)
        for index, element in enumerate(elements):
            depth += 2 + len(element.data)
            if index >= self.max_extension_elements:
                # the parse graph ran out of landing states; give up on the DD
                needs_cpu = False
                break
            if element.ext_id != EXT_ID_AV1_DEPENDENCY_DESCRIPTOR:
                continue
            try:
                descriptor = DependencyDescriptor.parse_prefix(element.data)
            except ValueError:
                needs_cpu = True
                break
            template_id = descriptor.template_id
            frame_number = descriptor.frame_number
            start = descriptor.start_of_frame
            end = descriptor.end_of_frame
            if len(element.data) > self.max_dd_bytes:
                # extended descriptor (template structure) - data plane cannot
                # parse it; the packet is still forwarded, but a copy goes to
                # the switch agent for SVC analysis.
                extended = True
                needs_cpu = True
            break

        if needs_cpu:
            self.cpu_punts += 1
        # Minted via __new__ + a prepared __dict__: the AV1 dependency
        # descriptor makes video extension bytes distinct per frame, so this
        # runs on every parse-cache miss and the frozen-dataclass __init__
        # (one object.__setattr__ per field) is the dominant cost.  The dict
        # carries every field, including the derived ones __post_init__
        # computes, so the result is field-identical to the constructor's.
        result = ParseResult.__new__(ParseResult)
        object.__setattr__(
            result,
            "__dict__",
            {
                "packet_class": PacketClass.RTP_VIDEO,
                "ssrc": packet.ssrc,
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
