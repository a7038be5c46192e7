"""Receiver-side media handling: reordering buffer, frame assembly, loss
detection, RFC 3550 jitter, frame-rate measurement, and freeze detection.

This is the component whose observable behaviour the paper's QoE experiments
measure (Figures 3, 4, 14) and whose reaction to sequence-number gaps defines
the cost model for the rewriting heuristics (Figure 18): a missing sequence
number triggers a NACK; a *duplicate* sequence number (two different packets
claiming the same number) corrupts decoder state and freezes the video until
the next key frame.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..rtp.av1 import DependencyDescriptor, extract_dependency_descriptor
from ..rtp.packet import RtpPacket, seq_delta

VIDEO_CLOCK_RATE = 90_000
NACK_DELAY_S = 0.02
MAX_TRACKED_MISSING = 512


@dataclass
class _PendingFrame:
    frame_number: int
    temporal_layer: int
    is_keyframe: bool
    packets: Set[int] = field(default_factory=set)  # sequence numbers received
    saw_start: bool = False
    saw_end: bool = False
    first_seq: Optional[int] = None  # set with saw_start
    last_seq: Optional[int] = None  # set with saw_end


class VideoReceiveStream:
    """Receiver state for one incoming video stream (one SSRC)."""

    def __init__(self, ssrc: int, clock_rate: int = VIDEO_CLOCK_RATE) -> None:
        self.ssrc = ssrc
        self.clock_rate = clock_rate

        # sequence tracking: sequence number -> RTP timestamp of the packet
        # that used it (needed to tell benign duplicates from colliding ones)
        self.highest_seq: Optional[int] = None
        self.missing: Set[int] = set()
        self.received_seqs: Dict[int, int] = {}
        self.duplicate_count = 0
        self.benign_duplicates = 0

        # jitter (RFC 3550 interarrival jitter, in timestamp units)
        self._jitter = 0.0
        self._last_transit: Optional[float] = None

        # frame reassembly
        self._pending: Dict[int, _PendingFrame] = {}
        #: when each decoded frame completed, sorted
        self._completion_times: List[float] = []
        self.frames_decoded = 0
        self.keyframes_decoded = 0

        # freeze state: set when decoder state breaks (duplicate sequence
        # numbers / corrupted reference); cleared by the next key frame.
        self.frozen = False
        self.freeze_events = 0
        self.frozen_since: Optional[float] = None
        self.total_frozen_time = 0.0

        # counters
        self.packets_received = 0
        self.bytes_received = 0
        self.nacks_sent: List[int] = []
        self.plis_sent = 0

    # -- packet input -------------------------------------------------------------

    def on_packet(self, packet: RtpPacket, recv_time: float) -> List[int]:
        """Process one received RTP packet.

        Returns the list of sequence numbers that should be NACKed as a result
        of gaps opened by this packet (the client batches them into RTCP).
        """
        self.packets_received += 1
        self.bytes_received += packet.size
        transit = recv_time - packet.timestamp / self.clock_rate
        if self._last_transit is not None:
            self._jitter += (abs(transit - self._last_transit) - self._jitter) / 16.0
        self._last_transit = transit

        new_nacks = self._update_sequence_state(packet, recv_time)
        self._assemble(packet, recv_time)
        return new_nacks

    def _update_sequence_state(self, packet: RtpPacket, recv_time: float) -> List[int]:
        seq = packet.sequence_number
        nacks: List[int] = []
        if seq in self.received_seqs:
            if self.received_seqs[seq] == packet.timestamp:
                # re-delivery of the very same packet (a retransmission that
                # raced the original): harmless, ignore it.
                self.benign_duplicates += 1
            else:
                # a *different* packet reusing a sequence number corrupts the
                # decoder state; the video freezes until the next key frame.
                self.duplicate_count += 1
                self._enter_freeze(recv_time)
            return nacks
        self.received_seqs[seq] = packet.timestamp  # at most 2**16 keys

        if self.highest_seq is None:
            self.highest_seq = seq
            return nacks

        delta = ((seq - self.highest_seq + 32768) % 65536) - 32768  # seq_delta inlined
        if delta > 0:
            if delta > 1:
                nacks = [(self.highest_seq + offset) % 65536 for offset in range(1, delta)]
                self.missing.update(nacks)
            self.highest_seq = seq
            if len(self.missing) > MAX_TRACKED_MISSING:
                # bound state like a real receiver does
                for extra in sorted(self.missing)[:-MAX_TRACKED_MISSING]:
                    self.missing.discard(extra)
        else:
            # late packet fills a gap
            self.missing.discard(seq)
        return nacks

    # -- frame assembly ------------------------------------------------------------

    def _assemble(self, packet: RtpPacket, recv_time: float) -> None:
        descriptor = extract_dependency_descriptor(packet.extension)
        if descriptor is None:
            return
        frame = self._pending.get(descriptor.frame_number)
        if frame is None:
            frame = _PendingFrame(
                frame_number=descriptor.frame_number,
                temporal_layer=descriptor.temporal_layer,
                is_keyframe=descriptor.is_extended,
            )
            self._pending[descriptor.frame_number] = frame
        frame.packets.add(packet.sequence_number)
        if descriptor.start_of_frame:
            frame.saw_start = True
            frame.first_seq = packet.sequence_number
        if descriptor.end_of_frame:
            frame.saw_end = True
            frame.last_seq = packet.sequence_number
        frame.is_keyframe = frame.is_keyframe or descriptor.is_extended

        # complete: both edges seen and every sequence number between them
        edges = frame.saw_start and frame.saw_end
        if edges and seq_delta(frame.last_seq, frame.first_seq) + 1 == len(frame.packets):
            del self._pending[descriptor.frame_number]
            self._deliver_frame(frame, recv_time)

        # garbage-collect stale partial frames
        if len(self._pending) > 64:
            for number in sorted(self._pending)[:-64]:
                del self._pending[number]

    def _deliver_frame(self, frame: _PendingFrame, recv_time: float) -> None:
        if frame.is_keyframe and self.frozen:
            self._exit_freeze(recv_time)
        if self.frozen:
            return  # decoder is stuck until a key frame arrives
        self.frames_decoded += 1
        if frame.is_keyframe:
            self.keyframes_decoded += 1
        insort(self._completion_times, recv_time)

    # -- freeze handling -------------------------------------------------------------

    def _enter_freeze(self, now: float) -> None:
        if not self.frozen:
            self.frozen = True
            self.frozen_since = now
            self.freeze_events += 1
            self.plis_sent += 1

    def _exit_freeze(self, now: float) -> None:
        if self.frozen and self.frozen_since is not None:
            self.total_frozen_time += now - self.frozen_since
        self.frozen = False
        self.frozen_since = None

    # -- measurements -----------------------------------------------------------------

    @property
    def jitter_ms(self) -> float:
        """Current RFC 3550 interarrival jitter, in milliseconds."""
        return self._jitter * 1000.0

    @property
    def jitter_rtp_units(self) -> int:
        """Jitter in RTP timestamp units (what goes into RTCP report blocks)."""
        return int(self._jitter * self.clock_rate)

    def frame_rate(self, window_s: float, now: float) -> float:
        """Frames decoded per second over the trailing ``window_s`` seconds."""
        if window_s <= 0:
            return 0.0
        times = self._completion_times
        return (len(times) - bisect_left(times, now - window_s)) / window_s

    def frame_rate_series(self, bucket_s: float = 1.0) -> List[Tuple[float, float]]:
        """Return ``(bucket_end_time, fps)`` samples over the whole stream."""
        times = self._completion_times
        if not times:
            return []
        series: List[Tuple[float, float]] = []
        bucket_start, end = times[0], times[-1]
        index = 0
        while bucket_start <= end:
            bucket_end = bucket_start + bucket_s
            count = 0
            while index < len(times) and times[index] < bucket_end:
                count += 1
                index += 1
            series.append((bucket_end, count / bucket_s))
            bucket_start = bucket_end
        return series


class AudioReceiveStream:
    """Receiver state for an incoming audio stream (jitter + counters only)."""

    def __init__(self, ssrc: int, clock_rate: int = 48_000) -> None:
        self.ssrc = ssrc
        self.clock_rate = clock_rate
        self.packets_received = 0
        self.bytes_received = 0
        self._jitter = 0.0
        self._last_transit: Optional[float] = None

    def on_packet(self, packet: RtpPacket, recv_time: float) -> None:
        self.packets_received += 1
        self.bytes_received += packet.size
        transit = recv_time - packet.timestamp / self.clock_rate
        if self._last_transit is not None:
            d = abs(transit - self._last_transit)
            self._jitter += (d - self._jitter) / 16.0
        self._last_transit = transit

    @property
    def jitter_ms(self) -> float:
        return self._jitter * 1000.0
