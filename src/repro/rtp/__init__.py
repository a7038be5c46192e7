"""RTP / RTCP / AV1-SVC protocol substrate.

This package provides byte-accurate models of the wire formats Scallop's data
plane and control plane operate on: RTP packets with header extensions
(:mod:`repro.rtp.packet`, :mod:`repro.rtp.extensions`), the AV1 dependency
descriptor and L1T3 SVC structure (:mod:`repro.rtp.av1`), and the RTCP packet
family used for feedback (:mod:`repro.rtp.rtcp`).
"""

from .packet import (
    PT_AUDIO_OPUS,
    PT_VIDEO_AV1,
    RtpHeaderExtension,
    RtpPacket,
    RtpParseError,
    is_rtcp,
    looks_like_rtp,
    seq_add,
    seq_delta,
)
from .extensions import (
    EXT_ID_AV1_DEPENDENCY_DESCRIPTOR,
    ExtensionElement,
    decode_extensions,
    encode_extensions,
    find_extension,
)
from .av1 import (
    DecodeTarget,
    DependencyDescriptor,
    TemplateStructure,
    extract_dependency_descriptor,
    frame_rate_for_decode_target,
    packet_template_id,
    template_needed_by,
    temporal_layer_for_template,
)
from .wire import PacketView
from .rtcp import (
    Nack,
    PictureLossIndication,
    ReceiverReport,
    Remb,
    ReportBlock,
    RtcpPacket,
    SenderReport,
    SourceDescription,
    classify_rtcp,
    parse_compound,
    serialize_compound,
)

__all__ = [
    "PT_AUDIO_OPUS",
    "PT_VIDEO_AV1",
    "RtpHeaderExtension",
    "RtpPacket",
    "RtpParseError",
    "is_rtcp",
    "looks_like_rtp",
    "seq_add",
    "seq_delta",
    "PacketView",
    "EXT_ID_AV1_DEPENDENCY_DESCRIPTOR",
    "ExtensionElement",
    "decode_extensions",
    "encode_extensions",
    "find_extension",
    "DecodeTarget",
    "DependencyDescriptor",
    "TemplateStructure",
    "extract_dependency_descriptor",
    "frame_rate_for_decode_target",
    "packet_template_id",
    "template_needed_by",
    "temporal_layer_for_template",
    "Nack",
    "PictureLossIndication",
    "ReceiverReport",
    "Remb",
    "ReportBlock",
    "RtcpPacket",
    "SenderReport",
    "SourceDescription",
    "classify_rtcp",
    "parse_compound",
    "serialize_compound",
]
