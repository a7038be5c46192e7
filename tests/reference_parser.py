"""The object-model RTP parse: the parser equivalence suite's oracle.

``IngressParser`` reads the header-extension block at byte offsets and builds
no protocol object.  This module keeps the walk it replaced — decode every
element into :class:`~repro.rtp.extensions.ExtensionElement` objects with
:func:`~repro.rtp.extensions.decode_extensions`, then parse the AV1
dependency descriptor's mandatory prefix with
:meth:`~repro.rtp.av1.DependencyDescriptor.parse_prefix` — so the byte-level
parse is checked against an independent reading of the same bytes.  Like the
walk it preserves, it raises (``ValueError``) on a block it cannot decode;
the byte-level parse punts such a packet as damaged instead.
"""

from typing import Optional, Tuple

from repro.dataplane.parser import (
    MAX_DD_BYTES_PARSEABLE,
    MAX_EXTENSION_ELEMENTS,
    PacketClass,
    ParseResult,
)
from repro.rtp.av1 import DependencyDescriptor
from repro.rtp.extensions import EXT_ID_AV1_DEPENDENCY_DESCRIPTOR, decode_extensions
from repro.rtp.packet import PT_AUDIO_OPUS, RtpHeaderExtension


def reference_parse_rtp(
    ssrc: int,
    payload_type: int,
    extension: Optional[RtpHeaderExtension],
    max_extension_elements: int = MAX_EXTENSION_ELEMENTS,
    max_dd_bytes: int = MAX_DD_BYTES_PARSEABLE,
) -> Tuple[ParseResult, int]:
    """``(result, cpu punts)`` of one RTP packet on the object walk."""
    if payload_type == PT_AUDIO_OPUS:
        return ParseResult(packet_class=PacketClass.RTP_AUDIO, ssrc=ssrc, parse_depth=12), 0

    template_id = None
    frame_number = None
    start = end = False
    extended = False
    needs_cpu = False
    depth = 12

    elements = decode_extensions(extension)
    for index, element in enumerate(elements):
        depth += 2 + len(element.data)
        if index >= max_extension_elements:
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
        if len(element.data) > max_dd_bytes:
            extended = True
            needs_cpu = True
        break

    result = ParseResult(
        packet_class=PacketClass.RTP_VIDEO,
        ssrc=ssrc,
        template_id=template_id,
        frame_number=frame_number,
        start_of_frame=start,
        end_of_frame=end,
        has_extended_descriptor=extended,
        needs_cpu=needs_cpu,
        parse_depth=depth,
    )
    return result, int(needs_cpu)
