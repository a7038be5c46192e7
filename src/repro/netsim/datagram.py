"""UDP datagram and address model used by the network simulator.

A datagram carries a *parsed* payload object (RTP packet, RTCP compound, STUN
message) together with its wire size so the simulator does not need to
serialize every packet of multi-minute meetings.  ``to_bytes``/``from_bytes``
round-trip through the real codecs and are exercised by the protocol tests, so
the shortcut never diverges from the wire formats.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple, Optional, Sequence, Union

from ..rtp.packet import RtpPacket, is_rtcp, looks_like_rtp
from ..rtp.rtcp import RtcpPacket, parse_compound, serialize_compound
from ..rtp.wire import PacketView
from ..stun.message import StunMessage, looks_like_stun

#: Fixed per-packet overhead: Ethernet (14) + IPv4 (20) + UDP (8) headers.
NETWORK_OVERHEAD_BYTES = 42


class Address(NamedTuple):
    """A UDP endpoint address.

    A named tuple, so hashing and equality run in C; the hash is
    ``hash((ip, port))`` and the order is ``(ip, port)``.
    """

    ip: str
    port: int

    def __str__(self) -> str:
        return f"{self.ip}:{self.port}"


class PayloadKind(str, Enum):
    """Coarse payload classification (what the data plane's lookahead sees)."""

    RTP = "rtp"
    RTCP = "rtcp"
    STUN = "stun"
    OTHER = "other"


Payload = Union[RtpPacket, PacketView, Sequence[RtcpPacket], StunMessage, bytes]


def classify_payload(payload: Payload) -> PayloadKind:
    """Classify a parsed payload object."""
    if isinstance(payload, (RtpPacket, PacketView)):
        return PayloadKind.RTP
    if isinstance(payload, StunMessage):
        return PayloadKind.STUN
    if isinstance(payload, bytes):
        if looks_like_stun(payload):
            return PayloadKind.STUN
        if is_rtcp(payload):
            return PayloadKind.RTCP
        if looks_like_rtp(payload):
            return PayloadKind.RTP
        return PayloadKind.OTHER
    # a sequence of RTCP packets
    return PayloadKind.RTCP


def payload_size(payload: Payload) -> int:
    """UDP payload size in bytes of a parsed payload object."""
    if isinstance(payload, RtpPacket):
        return payload.size
    if isinstance(payload, PacketView):
        return payload.size
    if isinstance(payload, StunMessage):
        return len(payload.serialize())
    if isinstance(payload, bytes):
        return len(payload)
    return len(serialize_compound(list(payload)))


@dataclass(frozen=True)
class Datagram:
    """A UDP datagram in flight between two simulated endpoints."""

    src: Address
    dst: Address
    payload: Payload
    size: int = 0                      # UDP payload bytes; derived if zero
    kind: PayloadKind = PayloadKind.OTHER
    #: Schedule-preserving burst timestamp: when this datagram travels inside
    #: a coalesced burst, the time it would have arrived at (or, on the send
    #: side, departed towards) its current hop under per-packet delivery.
    #: ``None`` outside burst mode, where the simulator's per-packet events
    #: carry the timing.  Links stamp it on every burst hop; receivers use it
    #: as the packet's true arrival time so estimators (GCC) observe real
    #: pacing even though the burst rides a single simulator event.
    arrived_at: Optional[float] = None
    meta: dict = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self) -> None:
        if self.size == 0:
            object.__setattr__(self, "size", payload_size(self.payload))
        if self.kind == PayloadKind.OTHER:
            object.__setattr__(self, "kind", classify_payload(self.payload))

    @property
    def wire_size(self) -> int:
        """Bytes on the wire, including Ethernet/IP/UDP overhead."""
        return self.size + NETWORK_OVERHEAD_BYTES

    def restamped(self, arrived_at: Optional[float]) -> "Datagram":
        """Return a copy with a new ``arrived_at`` schedule stamp (what every
        burst hop does).

        Minted the way the SFU pipeline mints replicas: a bare instance whose
        ``__dict__`` is a copy of this one's, so no ``__init__`` runs and
        nothing is re-derived (a hop never changes ``size``/``kind``);
        ``payload`` and ``meta`` are shared with the source, which is left
        untouched.
        """
        fields = self.__dict__.copy()
        fields["arrived_at"] = arrived_at
        copy = Datagram.__new__(Datagram)
        object.__setattr__(copy, "__dict__", fields)
        return copy

    def redirect(self, src: Address, dst: Address) -> "Datagram":
        """Return a copy with rewritten addresses (what the SFU egress does)."""
        return replace(self, src=src, dst=dst)

    def with_payload(self, payload: Payload) -> "Datagram":
        """Return a copy with a new payload (size/kind are recomputed)."""
        return replace(self, payload=payload, size=payload_size(payload), kind=classify_payload(payload))

    def to_bytes(self) -> bytes:
        """Serialize the UDP payload through the real protocol codecs."""
        if isinstance(self.payload, RtpPacket):
            return self.payload.serialize()
        if isinstance(self.payload, PacketView):
            # wire-native payloads ARE the serialization (encoded once)
            return bytes(self.payload)
        if isinstance(self.payload, StunMessage):
            return self.payload.serialize()
        if isinstance(self.payload, bytes):
            return self.payload
        return serialize_compound(list(self.payload))

    @classmethod
    def from_bytes(cls, src: Address, dst: Address, data: bytes) -> "Datagram":
        """Parse a raw UDP payload into a datagram with a typed payload."""
        if looks_like_stun(data):
            return cls(src=src, dst=dst, payload=StunMessage.parse(data), size=len(data))
        if is_rtcp(data):
            return cls(src=src, dst=dst, payload=tuple(parse_compound(data)), size=len(data))
        if looks_like_rtp(data):
            return cls(src=src, dst=dst, payload=RtpPacket.parse(data), size=len(data))
        return cls(src=src, dst=dst, payload=data, size=len(data))

    @classmethod
    def from_wire(cls, src: Address, dst: Address, data: bytes) -> "Datagram":
        """Like :meth:`from_bytes` but keeps RTP wire-native.

        RTP media stays a zero-copy :class:`~repro.rtp.wire.PacketView` over
        ``data`` (decoded lazily, field by field, only where a consumer asks);
        STUN/RTCP — which are control traffic the CPU genuinely parses — go
        through the object codecs as before.
        """
        if looks_like_stun(data):
            return cls(src=src, dst=dst, payload=StunMessage.parse(data), size=len(data))
        if is_rtcp(data):
            return cls(src=src, dst=dst, payload=tuple(parse_compound(data)), size=len(data))
        if looks_like_rtp(data):
            return cls(src=src, dst=dst, payload=PacketView(data), size=len(data))
        return cls(src=src, dst=dst, payload=data, size=len(data))
