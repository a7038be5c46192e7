"""SVC media source models: AV1 L1T3 video encoder and Opus-like audio source.

The encoder does not produce real compressed video; it produces *frames* with
realistic sizes, timing, and scalability structure, and packetizes them into
RTP packets carrying AV1 dependency descriptors — exactly the properties the
SFU (hardware or software) observes and acts on.

Defaults are calibrated to the paper's Table 1 workload: a 720p AV1 stream at
roughly 2.2 Mbit/s produces ~235 video packets/s of ~1.1 KB average size, and
the audio source produces ~50 packets/s of ~130 bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..rtp.av1 import (
    DecodeTarget,
    DependencyDescriptor,
    TemplateStructure,
    dependency_descriptor_element,
)
from ..rtp.extensions import encode_extensions
from ..rtp.packet import PT_AUDIO_OPUS, PT_VIDEO_AV1, RtpHeaderExtension, RtpPacket, SEQ_MOD, TS_MOD

#: The repeating 4-frame temporal pattern of L1T3 (Figure 9 of the paper):
#: temporal layer of frames 0..3 within a group of pictures.
L1T3_TEMPORAL_PATTERN: Tuple[int, ...] = (0, 2, 1, 2)

#: Template ids per temporal layer.  Layer 0 uses template 0 on key frames and
#: template 1 otherwise; layer 1 uses template 2; layer 2 alternates 3 and 4.
TEMPLATE_KEY = 0
TEMPLATE_BASE = 1
TEMPLATE_MID = 2
TEMPLATES_TOP = (3, 4)

VIDEO_CLOCK_RATE = 90_000
AUDIO_CLOCK_RATE = 48_000

DEFAULT_VIDEO_BITRATE_BPS = 2_200_000.0
DEFAULT_FRAME_RATE = 30.0
DEFAULT_MAX_PACKET_PAYLOAD = 1_100
DEFAULT_KEYFRAME_INTERVAL_S = 120.0
KEYFRAME_SIZE_FACTOR = 4.0

DEFAULT_AUDIO_BITRATE_BPS = 48_000.0
AUDIO_FRAME_INTERVAL_S = 0.02


@dataclass(frozen=True)
class EncodedFrame:
    """A single encoded video frame before packetization."""

    frame_number: int
    temporal_layer: int
    template_id: int
    size_bytes: int
    is_keyframe: bool
    capture_time: float


class SvcEncoder:
    """An AV1 L1T3 scalable video encoder model.

    ``frames()`` is driven by the client once per frame interval; packetization
    happens in :class:`RtpPacketizer`.  The target bitrate can be changed at
    any time (in response to REMB feedback reaching the sender), which changes
    the sizes of subsequently produced frames.
    """

    def __init__(
        self,
        target_bitrate_bps: float = DEFAULT_VIDEO_BITRATE_BPS,
        frame_rate: float = DEFAULT_FRAME_RATE,
        keyframe_interval_s: float = DEFAULT_KEYFRAME_INTERVAL_S,
        max_bitrate_bps: Optional[float] = None,
        seed: int = 0,
    ) -> None:
        if frame_rate <= 0:
            raise ValueError("frame rate must be positive")
        self.target_bitrate_bps = float(target_bitrate_bps)
        #: Upper bound on the encoder's bitrate (the codec/resolution maximum
        #: negotiated in SDP); REMB can never push the sender above it.
        self.max_bitrate_bps = float(max_bitrate_bps if max_bitrate_bps is not None else target_bitrate_bps)
        self.frame_rate = float(frame_rate)
        self.keyframe_interval_s = float(keyframe_interval_s)
        self._rng = random.Random(seed)
        self._frame_number = 0
        self._last_keyframe_time: Optional[float] = None
        self._keyframe_requested = True  # first frame is always a key frame
        self._top_toggle = 0
        self.structure = TemplateStructure.l1t3()

    # -- control ----------------------------------------------------------------

    def set_target_bitrate(self, bitrate_bps: float) -> None:
        """Adjust the encoder's target bitrate (sender-side rate adaptation).

        The value is clamped to ``[50 kbit/s, max_bitrate_bps]``.
        """
        self.target_bitrate_bps = min(self.max_bitrate_bps, max(50_000.0, float(bitrate_bps)))

    def request_keyframe(self) -> None:
        """Force the next frame to be a key frame (reaction to a PLI)."""
        self._keyframe_requested = True

    @property
    def frame_interval(self) -> float:
        return 1.0 / self.frame_rate

    # -- frame production --------------------------------------------------------

    def next_frame(self, now: float) -> EncodedFrame:
        """Produce the next frame in capture order at simulation time ``now``."""
        position = self._frame_number % len(L1T3_TEMPORAL_PATTERN)
        temporal_layer = L1T3_TEMPORAL_PATTERN[position]

        keyframe_due = (
            self._last_keyframe_time is None
            or now - self._last_keyframe_time >= self.keyframe_interval_s
        )
        is_keyframe = self._keyframe_requested or (keyframe_due and position == 0)
        if is_keyframe:
            temporal_layer = 0
            self._keyframe_requested = False
            self._last_keyframe_time = now

        template_id = self._template_for(temporal_layer, is_keyframe)
        size = self._frame_size(temporal_layer, is_keyframe)
        frame = EncodedFrame(
            frame_number=self._frame_number,
            temporal_layer=temporal_layer,
            template_id=template_id,
            size_bytes=size,
            is_keyframe=is_keyframe,
            capture_time=now,
        )
        self._frame_number += 1
        return frame

    def _template_for(self, temporal_layer: int, is_keyframe: bool) -> int:
        if temporal_layer == 0:
            return TEMPLATE_KEY if is_keyframe else TEMPLATE_BASE
        if temporal_layer == 1:
            return TEMPLATE_MID
        self._top_toggle ^= 1
        return TEMPLATES_TOP[self._top_toggle]

    def _frame_size(self, temporal_layer: int, is_keyframe: bool) -> int:
        """Frame size drawn around the per-layer budget.

        Base-layer frames carry more bits than enhancement frames (they are
        reference frames); the split roughly follows published AV1 L1T3
        allocations: 45% / 25% / 30% of the bitrate across the three layers at
        7.5 / 7.5 / 15 frames per second respectively.
        """
        per_frame_budget = self.target_bitrate_bps / 8.0 / self.frame_rate
        layer_factor = {0: 1.8, 1: 1.0, 2: 0.6}[temporal_layer]
        size = per_frame_budget * layer_factor
        if is_keyframe:
            size *= KEYFRAME_SIZE_FACTOR
        size *= self._rng.uniform(0.85, 1.15)
        return max(200, int(size))


class RtpPacketizer:
    """Packetizes encoded frames into RTP packets with AV1 DD extensions."""

    def __init__(
        self,
        ssrc: int,
        payload_type: int = PT_VIDEO_AV1,
        max_payload_bytes: int = DEFAULT_MAX_PACKET_PAYLOAD,
        clock_rate: int = VIDEO_CLOCK_RATE,
        seed: int = 0,
    ) -> None:
        self.ssrc = ssrc
        self.payload_type = payload_type
        self.max_payload_bytes = max_payload_bytes
        self.clock_rate = clock_rate
        rng = random.Random(seed)
        self._sequence_number = rng.randrange(SEQ_MOD)
        self._timestamp_base = rng.randrange(TS_MOD)
        self.packets_produced = 0
        self.bytes_produced = 0

    def packetize(self, frame: EncodedFrame, structure_on_key: bool = True) -> List[RtpPacket]:
        """Split a frame into RTP packets; a layer never crosses a packet
        boundary (the whole frame is one layer), matching the paper's §3."""
        timestamp = (self._timestamp_base + int(frame.capture_time * self.clock_rate)) % TS_MOD
        remaining = frame.size_bytes
        chunks: List[int] = []
        while remaining > 0:
            chunk = min(self.max_payload_bytes, remaining)
            chunks.append(chunk)
            remaining -= chunk

        packets: List[RtpPacket] = []
        # a frame's descriptors differ only in the start/end flags, so each
        # flag pair's extension block is encoded once; the packets share it,
        # and full-size chunks share one (immutable) payload
        extensions: Dict[Tuple[bool, bool], RtpHeaderExtension] = {}
        full_payload = b"\x00" * self.max_payload_bytes
        for index, chunk in enumerate(chunks):
            start = index == 0
            end = index == len(chunks) - 1
            extension = extensions.get((start, end))
            if extension is None:
                with_structure = frame.is_keyframe and start and structure_on_key
                descriptor = DependencyDescriptor(
                    start_of_frame=start,
                    end_of_frame=end,
                    template_id=frame.template_id,
                    frame_number=frame.frame_number & 0xFFFF,
                    structure=TemplateStructure.l1t3() if with_structure else None,
                )
                extension = encode_extensions([dependency_descriptor_element(descriptor)])
                extensions[start, end] = extension
            packet = RtpPacket(
                payload_type=self.payload_type,
                sequence_number=self._sequence_number,
                timestamp=timestamp,
                ssrc=self.ssrc,
                marker=end,
                extension=extension,
                payload=full_payload if chunk == self.max_payload_bytes else b"\x00" * chunk,
            )
            self._sequence_number = (self._sequence_number + 1) % SEQ_MOD
            packets.append(packet)
            self.packets_produced += 1
            self.bytes_produced += packet.size
        return packets


class AudioSource:
    """An Opus-like audio source: fixed 20 ms frames, one packet per frame."""

    def __init__(
        self,
        ssrc: int,
        bitrate_bps: float = DEFAULT_AUDIO_BITRATE_BPS,
        seed: int = 0,
    ) -> None:
        self.ssrc = ssrc
        self.bitrate_bps = bitrate_bps
        rng = random.Random(seed)
        self._sequence_number = rng.randrange(SEQ_MOD)
        self._timestamp_base = rng.randrange(TS_MOD)
        self._rng = rng
        self.packets_produced = 0

    @property
    def frame_interval(self) -> float:
        return AUDIO_FRAME_INTERVAL_S

    def next_packet(self, now: float) -> RtpPacket:
        """Produce the next audio packet at simulation time ``now``."""
        payload_size = int(self.bitrate_bps / 8.0 * AUDIO_FRAME_INTERVAL_S)
        payload_size = max(40, int(payload_size * self._rng.uniform(0.8, 1.2)))
        timestamp = (self._timestamp_base + int(now * AUDIO_CLOCK_RATE)) % TS_MOD
        packet = RtpPacket(
            payload_type=PT_AUDIO_OPUS,
            sequence_number=self._sequence_number,
            timestamp=timestamp,
            ssrc=self.ssrc,
            marker=False,
            payload=b"\x00" * payload_size,
        )
        self._sequence_number = (self._sequence_number + 1) % SEQ_MOD
        self.packets_produced += 1
        return packet
