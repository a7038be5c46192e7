"""AV1 RTP payload scalability structures (dependency descriptor, L1T3 SVC).

Scallop relies on the AV1 RTP dependency descriptor (DD) in two places:

* The **data plane** reads the *template id* of every video packet (a small
  integer in the mandatory part of the DD) and drops packets whose template id
  maps to a temporal layer above the receiver's decode target.
* The **switch agent** parses the *extended* DD carried on key frames, which
  declares the template structure (how template ids map to spatial/temporal
  layers and which decode targets each template belongs to).

This module implements the L1T3 structure used in the paper (one spatial
layer, three temporal layers at 7.5/15/30 fps), the mandatory DD fields, and a
compact extended-descriptor encoding sufficient to round-trip the template
structure.  The byte layout follows the AV1 RTP spec's field order but uses
byte alignment rather than the spec's bit-packing; the data plane model treats
it as an opaque blob except for the first bytes, just like the Tofino can only
read a fixed prefix.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import lru_cache
from enum import IntEnum
from typing import Dict, List, Optional, Sequence, Tuple

from .extensions import (
    EXT_ID_AV1_DEPENDENCY_DESCRIPTOR,
    ExtensionElement,
    find_extension,
)
from .packet import RtpHeaderExtension, RtpPacket


class DecodeTarget(IntEnum):
    """Decode targets of the L1T3 structure, ordered by quality.

    ``DT0`` plays back the 7.5 fps base layer only, ``DT1`` 15 fps, and ``DT2``
    the full 30 fps stream — matching Figure 9 in the paper.
    """

    DT0 = 0  # 7.5 fps  (base layer only)
    DT1 = 1  # 15 fps   (base + first enhancement)
    DT2 = 2  # 30 fps   (all temporal layers)

    @property
    def frame_rate(self) -> float:
        return {DecodeTarget.DT0: 7.5, DecodeTarget.DT1: 15.0, DecodeTarget.DT2: 30.0}[self]


#: Template id -> temporal layer for the L1T3 profile (paper §5.4):
#: ids 0 and 1 are the base layer, id 2 the first enhancement layer and
#: ids 3 and 4 the second enhancement layer.
L1T3_TEMPLATE_TO_TEMPORAL_LAYER: Dict[int, int] = {0: 0, 1: 0, 2: 1, 3: 2, 4: 2}

#: Temporal layer -> highest decode target that still *excludes* it is derived
#: from this: a packet of temporal layer ``l`` is needed by decode target
#: ``dt`` iff ``l <= dt``.
L1T3_NUM_TEMPLATES = 5


def temporal_layer_for_template(template_id: int) -> int:
    """Return the temporal layer of an L1T3 template id."""
    try:
        return L1T3_TEMPLATE_TO_TEMPORAL_LAYER[template_id]
    except KeyError:
        raise ValueError(f"unknown L1T3 template id: {template_id}") from None


def template_needed_by(template_id: int, decode_target: DecodeTarget) -> bool:
    """Whether a packet with ``template_id`` must be forwarded for ``decode_target``."""
    return temporal_layer_for_template(template_id) <= int(decode_target)


def frame_rate_for_decode_target(decode_target: DecodeTarget) -> float:
    """Nominal frame rate delivered by a decode target in the L1T3 structure."""
    return decode_target.frame_rate


@dataclass(frozen=True)
class TemplateStructure:
    """The SVC template structure announced on key frames.

    ``template_to_layer`` maps template ids to ``(spatial, temporal)`` layer
    pairs; ``decode_target_layers`` maps each decode target to the highest
    temporal layer it includes.
    """

    template_to_layer: Dict[int, Tuple[int, int]]
    decode_target_layers: Dict[int, int]

    @classmethod
    def l1t3(cls) -> "TemplateStructure":
        """The canonical L1T3 structure used throughout the paper."""
        return cls(
            template_to_layer={
                tid: (0, layer) for tid, layer in L1T3_TEMPLATE_TO_TEMPORAL_LAYER.items()
            },
            decode_target_layers={int(dt): int(dt) for dt in DecodeTarget},
        )

    def templates_for_decode_target(self, decode_target: int) -> List[int]:
        """Template ids that must be forwarded for a decode target."""
        max_layer = self.decode_target_layers[int(decode_target)]
        return sorted(
            tid
            for tid, (_spatial, temporal) in self.template_to_layer.items()
            if temporal <= max_layer
        )

    def serialize(self) -> bytes:
        """Compact binary encoding of the structure (used in extended DDs)."""
        out = bytearray()
        out.append(len(self.template_to_layer))
        for tid in sorted(self.template_to_layer):
            spatial, temporal = self.template_to_layer[tid]
            out += struct.pack("!BBB", tid, spatial, temporal)
        out.append(len(self.decode_target_layers))
        for dt in sorted(self.decode_target_layers):
            out += struct.pack("!BB", dt, self.decode_target_layers[dt])
        return bytes(out)

    @classmethod
    def parse(cls, data: bytes) -> "TemplateStructure":
        offset = 0
        if len(data) < 1:
            raise ValueError("empty template structure")
        count = data[offset]
        offset += 1
        template_to_layer: Dict[int, Tuple[int, int]] = {}
        for _ in range(count):
            tid, spatial, temporal = struct.unpack_from("!BBB", data, offset)
            template_to_layer[tid] = (spatial, temporal)
            offset += 3
        dt_count = data[offset]
        offset += 1
        decode_target_layers: Dict[int, int] = {}
        for _ in range(dt_count):
            dt, layer = struct.unpack_from("!BB", data, offset)
            decode_target_layers[dt] = layer
            offset += 2
        return cls(template_to_layer=template_to_layer, decode_target_layers=decode_target_layers)


@dataclass(frozen=True)
class DependencyDescriptor:
    """The AV1 RTP dependency descriptor.

    The *mandatory* part (present on every packet) carries the
    start/end-of-frame flags, the template id and the frame number.  Key
    frames additionally attach the :class:`TemplateStructure` — this is the
    "extended" descriptor that the data plane cannot parse and must hand to
    the switch agent (Table 1 counts these as control-plane packets).
    """

    start_of_frame: bool
    end_of_frame: bool
    template_id: int
    frame_number: int
    structure: Optional[TemplateStructure] = None

    @property
    def is_extended(self) -> bool:
        """Whether this descriptor carries a template structure (key frame)."""
        return self.structure is not None

    @property
    def temporal_layer(self) -> int:
        return temporal_layer_for_template(self.template_id)

    def serialize(self) -> bytes:
        flags = (
            (int(self.start_of_frame) << 7)
            | (int(self.end_of_frame) << 6)
            | (int(self.is_extended) << 5)
            | (self.template_id & 0x1F)
        )
        out = bytearray(struct.pack("!BH", flags, self.frame_number & 0xFFFF))
        if self.structure is not None:
            out += self.structure.serialize()
        return bytes(out)

    @classmethod
    def parse(cls, data: bytes) -> "DependencyDescriptor":
        if len(data) < 3:
            raise ValueError("dependency descriptor too short")
        flags, frame_number = struct.unpack_from("!BH", data, 0)
        start = bool(flags & 0x80)
        end = bool(flags & 0x40)
        extended = bool(flags & 0x20)
        template_id = flags & 0x1F
        structure = TemplateStructure.parse(data[3:]) if extended else None
        return cls(
            start_of_frame=start,
            end_of_frame=end,
            template_id=template_id,
            frame_number=frame_number & 0xFFFF,
            structure=structure,
        )

    @classmethod
    def parse_prefix(cls, data: bytes) -> "DependencyDescriptor":
        """Parse only the mandatory 3-byte prefix (what the data plane can do).

        An extended structure, if present, is *not* decoded; ``is_extended``
        can still be detected from the flag bit so the data plane knows it must
        punt the packet to the switch agent.
        """
        if len(data) < 3:
            raise ValueError("dependency descriptor too short")
        flags, frame_number = struct.unpack_from("!BH", data, 0)
        return cls(
            start_of_frame=bool(flags & 0x80),
            end_of_frame=bool(flags & 0x40),
            template_id=flags & 0x1F,
            frame_number=frame_number & 0xFFFF,
            structure=TemplateStructure.l1t3() if flags & 0x20 else None,
        )


def dependency_descriptor_element(descriptor: DependencyDescriptor) -> ExtensionElement:
    """Wrap a dependency descriptor into its RTP header-extension element."""
    return ExtensionElement(
        ext_id=EXT_ID_AV1_DEPENDENCY_DESCRIPTOR, data=descriptor.serialize()
    )


def extract_dependency_descriptor(
    extension: Optional[RtpHeaderExtension],
) -> Optional[DependencyDescriptor]:
    """Extract and parse the AV1 DD from an RTP header-extension block."""
    if extension is None:
        return None
    return _descriptor_of_block(extension.profile, extension.data)


@lru_cache(maxsize=1024)
def _descriptor_of_block(profile: int, data: bytes) -> Optional[DependencyDescriptor]:
    # Memoized on the block's bytes: every receiver of a replicated packet
    # decodes the same block.  The descriptor is immutable, so one instance
    # is shared; the bound only has to cover a replica's packets in flight.
    raw = find_extension(RtpHeaderExtension(profile, data), EXT_ID_AV1_DEPENDENCY_DESCRIPTOR)
    if raw is None:
        return None
    return DependencyDescriptor.parse(raw)


def packet_template_id(packet: RtpPacket) -> Optional[int]:
    """Convenience accessor: the template id of an RTP packet, if present."""
    descriptor = extract_dependency_descriptor(packet.extension)
    if descriptor is None:
        return None
    return descriptor.template_id
