"""RTP header-extension elements (RFC 8285 one-byte and two-byte profiles).

Scallop's data plane needs to walk the extension block to find the AV1
dependency-descriptor element (see Appendix E of the paper).  This module
implements the element-level encoding, including padding bytes and variable
element lengths, as objects for the endpoints and the switch agent.  The
data-plane parser model in :mod:`repro.dataplane.parser` walks the very same
byte layout in place, as the hardware would, and the test suite checks it
against :func:`decode_extensions`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .packet import (
    EXTENSION_PROFILE_ONE_BYTE,
    EXTENSION_PROFILE_TWO_BYTE,
    RtpHeaderExtension,
)

#: Extension ids used throughout the reproduction (negotiated via SDP in real
#: WebRTC; we keep them fixed for clarity).
EXT_ID_AV1_DEPENDENCY_DESCRIPTOR = 12
EXT_ID_TRANSPORT_SEQUENCE_NUMBER = 3
EXT_ID_AUDIO_LEVEL = 1
EXT_ID_MID = 4


class ExtensionParseError(ValueError):
    """Raised when an extension block cannot be decoded."""


@dataclass(frozen=True)
class ExtensionElement:
    """A single (id, data) element inside the RTP header-extension block."""

    ext_id: int
    data: bytes

    def __post_init__(self) -> None:
        if not 1 <= self.ext_id <= 255:
            raise ValueError(f"extension id out of range: {self.ext_id}")


def _needs_two_byte(elements: Iterable[ExtensionElement]) -> bool:
    for element in elements:
        if element.ext_id > 14 or len(element.data) == 0 or len(element.data) > 16:
            return True
    return False


def encode_extensions(elements: List[ExtensionElement]) -> RtpHeaderExtension:
    """Encode extension elements into an RTP header-extension block.

    The one-byte profile is used when every element fits (id <= 14 and
    1..16 bytes of data); otherwise the two-byte profile is selected, exactly
    as libwebrtc does.
    """
    two_byte = _needs_two_byte(elements)
    out = bytearray()
    for element in elements:
        if two_byte:
            out += struct.pack("!BB", element.ext_id, len(element.data))
            out += element.data
        else:
            out += bytes([((element.ext_id & 0x0F) << 4) | (len(element.data) - 1)])
            out += element.data
    while len(out) % 4 != 0:
        out += b"\x00"
    profile = EXTENSION_PROFILE_TWO_BYTE if two_byte else EXTENSION_PROFILE_ONE_BYTE
    return RtpHeaderExtension(profile=profile, data=bytes(out))


def decode_extensions(extension: Optional[RtpHeaderExtension]) -> List[ExtensionElement]:
    """Decode an RTP header-extension block into its elements.

    Unknown profiles yield an empty list (the SFU simply cannot look inside),
    mirroring how hardware would skip an unparseable block.
    """
    if extension is None:
        return []
    if extension.profile == EXTENSION_PROFILE_ONE_BYTE:
        return _decode_one_byte(extension.data)
    if (extension.profile & 0xFFF0) == EXTENSION_PROFILE_TWO_BYTE:
        return _decode_two_byte(extension.data)
    return []


def _decode_one_byte(data: bytes) -> List[ExtensionElement]:
    elements: List[ExtensionElement] = []
    offset = 0
    while offset < len(data):
        byte = data[offset]
        if byte == 0:  # padding
            offset += 1
            continue
        ext_id = byte >> 4
        length = (byte & 0x0F) + 1
        offset += 1
        if ext_id == 15:
            # id 15 is reserved and terminates parsing in the one-byte profile
            break
        if offset + length > len(data):
            raise ExtensionParseError("truncated one-byte extension element")
        elements.append(ExtensionElement(ext_id=ext_id, data=data[offset : offset + length]))
        offset += length
    return elements


def _decode_two_byte(data: bytes) -> List[ExtensionElement]:
    elements: List[ExtensionElement] = []
    offset = 0
    while offset < len(data):
        if data[offset] == 0:  # padding
            offset += 1
            continue
        if offset + 2 > len(data):
            raise ExtensionParseError("truncated two-byte extension header")
        ext_id = data[offset]
        length = data[offset + 1]
        offset += 2
        if offset + length > len(data):
            raise ExtensionParseError("truncated two-byte extension element")
        elements.append(ExtensionElement(ext_id=ext_id, data=data[offset : offset + length]))
        offset += length
    return elements


def extensions_by_id(extension: Optional[RtpHeaderExtension]) -> Dict[int, bytes]:
    """Return a mapping of extension id to element payload."""
    return {element.ext_id: element.data for element in decode_extensions(extension)}


def find_extension(
    extension: Optional[RtpHeaderExtension], ext_id: int
) -> Optional[bytes]:
    """Return the payload of the element with ``ext_id``, or ``None``."""
    for element in decode_extensions(extension):
        if element.ext_id == ext_id:
            return element.data
    return None


def walk_extension_elements(
    extension: Optional[RtpHeaderExtension],
) -> List[Tuple[int, int, int]]:
    """Yield ``(depth, ext_id, length)`` for each element in parse order.

    This mirrors the depth-aware parse tree described in Appendix E: the
    hardware parser has a *landing state* per depth and uses lookahead to
    decide what element type comes next (the data-plane model gives up on
    the descriptor after ``MAX_EXTENSION_ELEMENTS`` of them).
    """
    result: List[Tuple[int, int, int]] = []
    for depth, element in enumerate(decode_extensions(extension)):
        result.append((depth, element.ext_id, len(element.data)))
    return result
