"""Sequence-number rewriting heuristics (paper §6.2, Figures 12 and 18).

When Scallop suppresses packets for rate adaptation it opens gaps in the RTP
sequence space that a WebRTC receiver would misinterpret as network loss.  The
egress pipeline therefore rewrites sequence numbers so that *intentional* gaps
disappear while *legitimate* gaps (real network loss on the sender's uplink)
are preserved.  Perfect rewriting is impossible when suppression coincides
with loss and reordering, so Scallop uses heuristics with one hard rule:
**never emit a duplicate sequence number** (a duplicate breaks the decoder and
freezes the video; an extra gap merely triggers a retransmission).

Two variants are implemented, as in the paper:

* :class:`SequenceRewriterLowMemory` (S-LM) keeps only the highest observed
  sequence number, the highest frame number, and the running offset.  Gaps in
  arrivals are attributed to the configured skip cadence.
* :class:`SequenceRewriterLowRetransmission` (S-LR) additionally tracks the
  boundaries of the most recent frame, whether it ended, and the highest
  suppressed frame, allowing it to treat intra-frame gaps as genuine loss and
  to rewrite late packets of the current frame correctly.

Both classes implement the :class:`repro.dataplane.pipeline.SequenceRewriter`
protocol and hold only a handful of integers, mirroring their register-memory
footprint on the Tofino.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..rtp.packet import SEQ_MOD, seq_add, seq_delta

#: Half the 16-bit sequence space: ``0 < (a - b) % SEQ_MOD < HALF_SEQ`` is
#: ``seq_delta(a, b) > 0``, the form the per-packet paths inline.
HALF_SEQ = SEQ_MOD // 2


@dataclass(frozen=True)
class SkipCadence:
    """The control plane's description of which share of packets is suppressed.

    ``suppressed_per_group`` out of every ``group_size`` consecutive media
    packets are expected to be suppressed.  For L1T3, dropping the top temporal
    layer (30 -> 15 fps) suppresses half of the frames, hence roughly half of
    the packets, i.e. ``SkipCadence(1, 2)``; dropping to 7.5 fps gives
    ``SkipCadence(3, 4)``.  ``SkipCadence(0, 1)`` means nothing is suppressed.
    """

    suppressed_per_group: int
    group_size: int

    def __post_init__(self) -> None:
        if self.group_size <= 0:
            raise ValueError("group size must be positive")
        if not 0 <= self.suppressed_per_group <= self.group_size:
            raise ValueError("suppressed count cannot exceed the group size")

    @property
    def ratio(self) -> float:
        return self.suppressed_per_group / self.group_size

    @classmethod
    def for_decode_target(cls, decode_target: int) -> "SkipCadence":
        """Cadence implied by an L1T3 decode target (2 = nothing suppressed)."""
        if decode_target >= 2:
            return cls(0, 1)
        if decode_target == 1:
            return cls(1, 2)
        return cls(3, 4)


class _RewriterBase:
    """Shared bookkeeping for the rewriting heuristics."""

    def __init__(self, cadence: SkipCadence) -> None:
        self.cadence = cadence
        self.offset = 0
        self.highest_seq: Optional[int] = None
        self.highest_frame: Optional[int] = None
        self.packets_seen = 0
        self.packets_forwarded = 0
        self.packets_suppressed = 0
        self.packets_dropped_for_safety = 0
        self._emitted: set = set()
        # the most advanced rewritten number emitted so far, in wrap-aware
        # stream order; anchors the duplicate-guard eviction below
        self._emit_horizon: Optional[int] = None
        # fractional carry for cadence-based gap attribution
        self._gap_carry = 0.0

    # -- helpers -------------------------------------------------------------------

    def _emit(self, seq: int) -> Optional[int]:
        return self._register((seq - self.offset) % SEQ_MOD)

    def _register(self, rewritten: int) -> Optional[int]:
        """Emit an already-rewritten number unless it would be a duplicate."""
        if rewritten in self._emitted:
            # never emit duplicates: drop instead (paper's hard rule)
            self.packets_dropped_for_safety += 1
            return None
        self._emitted.add(rewritten)
        horizon = self._emit_horizon
        # seq_delta(rewritten, horizon) > 0, inlined (once per forwarded packet)
        if horizon is None or 0 < (rewritten - horizon) % SEQ_MOD < HALF_SEQ:
            self._emit_horizon = rewritten
        if len(self._emitted) > 4096:
            # Bounded like hardware state; forget the distant past.  "Distant"
            # is measured as circular distance behind the emission horizon: a
            # plain numeric sort breaks across the 65535 -> 0 wrap, where it
            # would keep the stale pre-wrap entries (which then collide with
            # fresh emissions one lap later) and evict the recent ones.
            horizon = self._emit_horizon
            self._emitted = set(
                sorted(self._emitted, key=lambda s: (horizon - s) % SEQ_MOD)[:2048]
            )
        self.packets_forwarded += 1
        return rewritten

    def _cadence_guess(self, missing: int) -> int:
        """How many of ``missing`` unseen packets the cadence says were suppressed."""
        exact = missing * self.cadence.ratio + self._gap_carry
        guess = int(exact)
        self._gap_carry = exact - guess
        return min(missing, guess)

    # -- shared statistics ------------------------------------------------------------

    @property
    def state_cells(self) -> int:
        """Number of register cells this heuristic occupies (per stream)."""
        raise NotImplementedError


class SequenceRewriterLowMemory(_RewriterBase):
    """S-LM: three registers per stream (highest seq, highest frame, offset)."""

    #: register cells per stream: highest seq, highest frame, offset
    STATE_CELLS = 3

    def on_packet(self, sequence_number: int, frame_number: int, forward: bool) -> Optional[int]:
        self.packets_seen += 1
        if not forward:
            self.packets_suppressed += 1

        if self.highest_seq is None:
            self.highest_seq = sequence_number
            self.highest_frame = frame_number
            if not forward:
                self.offset += 1
                return None
            return self._emit(sequence_number)

        delta = seq_delta(sequence_number, self.highest_seq)

        if delta == 1:
            # consecutive packet
            self.highest_seq = sequence_number
            self.highest_frame = frame_number
            if not forward:
                self.offset += 1
                return None
            return self._emit(sequence_number)

        if delta > 1:
            # gap: attribute part of it to the skip cadence
            missing = delta - 1
            self.offset += self._cadence_guess(missing)
            self.highest_seq = sequence_number
            self.highest_frame = frame_number
            if not forward:
                self.offset += 1
                return None
            return self._emit(sequence_number)

        # delta <= 0: an older (reordered or retransmitted) packet
        if delta == -1 or delta == 0:
            if not forward:
                return None
            return self._emit(sequence_number)
        # further in the past: cannot safely reconstruct its offset; drop
        self.packets_dropped_for_safety += 1
        return None

    @property
    def state_cells(self) -> int:
        return self.STATE_CELLS


class SequenceRewriterLowRetransmission(_RewriterBase):
    """S-LR: six registers per stream; fewer erroneous gaps, more memory.

    Extra state relative to S-LM: first and highest sequence number of the
    latest observed frame, whether that frame ended, and the highest
    suppressed frame number.
    """

    #: register cells per stream (the six tables of §6.3)
    STATE_CELLS = 6

    def __init__(self, cadence: SkipCadence) -> None:
        super().__init__(cadence)
        self.frame_first_seq: Optional[int] = None
        self.frame_highest_seq: Optional[int] = None
        self.frame_number_current: Optional[int] = None
        self.frame_ended: bool = True
        self.highest_suppressed_frame: Optional[int] = None
        self._frame_offsets: Dict[int, int] = {}
        # running estimate of packets per frame, used to attribute gaps that
        # span whole (suppressed) frames; a slowly decaying maximum is robust
        # against frames observed only partially because of uplink loss
        self._packets_per_frame_estimate = 1.0
        self._packets_in_current_frame = 0
        self._current_frame_suppressed = False

    def on_packet(self, sequence_number: int, frame_number: int, forward: bool) -> Optional[int]:
        self.packets_seen += 1
        if not forward:
            self.packets_suppressed += 1
            # frame numbers are 16-bit like sequence numbers, so "highest"
            # must be wrap-aware: a plain max() freezes at 65535 after the
            # frame counter wraps (~18 min at 60 fps) and then misclassifies
            # every late packet against the stale pre-wrap value
            highest = self.highest_suppressed_frame
            if highest is None or 0 < (frame_number - highest) % SEQ_MOD < HALF_SEQ:
                self.highest_suppressed_frame = frame_number

        if self.highest_seq is None:
            self._start_frame(sequence_number, frame_number)
            self.highest_seq = sequence_number
            self.highest_frame = frame_number
            if not forward:
                self.offset += 1
                return None
            return self._emit(sequence_number)

        # seq_delta(sequence_number, highest_seq), inlined
        delta = (sequence_number - self.highest_seq + HALF_SEQ) % SEQ_MOD - HALF_SEQ

        if delta >= 1:
            missing = delta - 1
            if missing > 0:
                if frame_number == self.frame_number_current and not self.frame_ended:
                    if self._current_frame_suppressed or not forward:
                        # the gap lies inside a frame this receiver does not
                        # get anyway: the missing packets are invisible to it
                        self.offset += missing
                    # otherwise the gap inside a forwarded frame can only be
                    # genuine loss (a frame is never partially suppressed)
                else:
                    # the gap spans at least one frame boundary: attribute the
                    # share belonging to suppressed frames (whole skipped
                    # frames per the cadence, the unseen tail of a suppressed
                    # previous frame, and the unseen head of a suppressed new
                    # frame), and preserve the rest as genuine loss.
                    self.offset += self._frame_gap_guess(missing, frame_number, forward)
            if frame_number != self.frame_number_current:
                self._start_frame(sequence_number, frame_number)
            else:
                self.frame_highest_seq = sequence_number
                self._packets_in_current_frame += 1
            if not forward:
                self._current_frame_suppressed = True
            self.highest_seq = sequence_number
            highest = self.highest_frame
            if highest is None or 0 < (frame_number - highest) % SEQ_MOD < HALF_SEQ:
                self.highest_frame = frame_number
            if not forward:
                self.offset += 1
                return None
            return self._emit(sequence_number)

        # delta <= 0: late packet
        if not forward:
            return None
        if frame_number == self.frame_number_current or frame_number in self._frame_offsets:
            # we still know the offset that applied when this frame started
            offset = self._frame_offsets.get(frame_number, self.offset)
            return self._register((sequence_number - offset) % SEQ_MOD)
        highest = self.highest_suppressed_frame
        if highest is not None and not 0 < (frame_number - highest) % SEQ_MOD < HALF_SEQ:
            # late packet of a frame that may have been suppressed: drop silently
            return None
        if delta >= -2:
            return self._emit(sequence_number)
        self.packets_dropped_for_safety += 1
        return None

    def _frame_gap_guess(self, missing: int, new_frame_number: int, forward: bool) -> int:
        """How many of ``missing`` unseen packets belonged to suppressed frames.

        The number of whole frames skipped between the last observed frame and
        the new one is known from the frame numbers; the cadence bounds how
        many of them can have been suppressed, and the running packets-per-
        frame estimate converts frames to packets.  The unseen tail of a
        suppressed previous frame and the unseen head of a suppressed new
        frame are also invisible to the receiver and therefore attributed.
        """
        if self.frame_number_current is None:
            return self._cadence_guess(missing)
        frame_advance = seq_delta(new_frame_number, self.frame_number_current)
        if frame_advance <= 0 or frame_advance - 1 > 1_000:
            # an implausible jump (backwards, reordered, or a gap behind an
            # already-ended frame): treat the whole gap as loss, not a guess
            return 0
        skipped_frames = frame_advance - 1
        per_frame = max(1, round(self._packets_per_frame_estimate))
        suppressed_frames = min(skipped_frames, math.ceil(skipped_frames * self.cadence.ratio))
        attribution = suppressed_frames * per_frame
        if self._current_frame_suppressed:
            attribution += max(0, per_frame - self._packets_in_current_frame)
        if not forward:
            attribution += per_frame - 1
        return min(missing, attribution)

    def _start_frame(self, sequence_number: int, frame_number: int) -> None:
        if self._packets_in_current_frame > 0:
            self._packets_per_frame_estimate = max(
                float(self._packets_in_current_frame), self._packets_per_frame_estimate * 0.98
            )
        self._packets_in_current_frame = 1
        self._current_frame_suppressed = False
        self.frame_first_seq = sequence_number
        self.frame_highest_seq = sequence_number
        self.frame_number_current = frame_number
        self.frame_ended = False
        offsets = self._frame_offsets
        offsets[frame_number] = self.offset
        if len(offsets) > 8:
            # keep the 8 most recent frames: at most 9 are held, so one pass
            # evicts the frame furthest behind the new one in wrap-aware order
            # (a numeric minimum would evict the fresh post-wrap, low-numbered
            # frames); on a tie the later-inserted frame goes
            oldest = frame_number
            oldest_behind = -1
            for frame in offsets:
                behind = (frame_number - frame) % SEQ_MOD
                if behind >= oldest_behind:
                    oldest, oldest_behind = frame, behind
            del offsets[oldest]

    def mark_frame_ended(self) -> None:
        """Called when the end-of-frame packet has been observed."""
        self.frame_ended = True

    @property
    def state_cells(self) -> int:
        return self.STATE_CELLS


# --------------------------------------------------------------------------- packed state codec
#
# A cross-SFU meeting migration (``repro.cluster.snapshot.MeetingSnapshot``)
# ships every adapted stream's rewriter state to the destination box.  This
# codec packs the exact register-file contents into a flat struct layout —
# the honest model of what the hardware would DMA: the registers are
# integers, not Python objects.
#
# Layout (big-endian, see ``_STATE_HEAD``):
#
#   u8   class tag (0 = S-LM, 1 = S-LR)
#   u16  cadence.suppressed_per_group,  u16 cadence.group_size
#   q    offset, packets_seen, packets_forwarded, packets_suppressed,
#        packets_dropped_for_safety                       (5 signed 64-bit)
#   i    highest_seq, highest_frame, emit_horizon          (-1 encodes None)
#   d    gap_carry
#   u16  len(emitted) + that many u16 sequence numbers, ascending (a set has
#        no order of its own; sorting makes the image canonical, so a
#        restored rewriter re-packs to the same bytes)
#
# followed, for S-LR only, by ``_STATE_LR``:
#
#   i    frame_first_seq, frame_highest_seq, frame_number_current,
#        highest_suppressed_frame                          (-1 encodes None)
#   B    frame_ended,  B current_frame_suppressed
#   d    packets_per_frame_estimate,  q packets_in_current_frame
#   u8   len(frame_offsets) + that many (u16 frame, q offset) pairs

_STATE_HEAD = struct.Struct("!BHH5q3id")
_STATE_LR = struct.Struct("!4iBBdqB")
_U16 = struct.Struct("!H")
_FRAME_OFFSET = struct.Struct("!Hq")

def _opt(value: Optional[int]) -> int:
    return -1 if value is None else value


def _unopt(value: int) -> Optional[int]:
    return None if value < 0 else value


def pack_rewriter_state(rewriter: Union["SequenceRewriterLowMemory", "SequenceRewriterLowRetransmission"]) -> bytes:
    """Pack a rewriter's full per-stream state into a flat byte record.

    Raises :class:`TypeError` for rewriter classes outside the paper's two
    variants (other implementations of the
    :class:`~repro.dataplane.pipeline.SequenceRewriter` protocol).
    """
    if type(rewriter) is SequenceRewriterLowMemory:
        tag = 0
    elif type(rewriter) is SequenceRewriterLowRetransmission:
        tag = 1
    else:
        raise TypeError(f"no packed codec for rewriter type {type(rewriter).__name__}")
    emitted = rewriter._emitted
    out = bytearray(
        _STATE_HEAD.pack(
            tag,
            rewriter.cadence.suppressed_per_group,
            rewriter.cadence.group_size,
            rewriter.offset,
            rewriter.packets_seen,
            rewriter.packets_forwarded,
            rewriter.packets_suppressed,
            rewriter.packets_dropped_for_safety,
            _opt(rewriter.highest_seq),
            _opt(rewriter.highest_frame),
            _opt(rewriter._emit_horizon),
            rewriter._gap_carry,
        )
    )
    out += _U16.pack(len(emitted))
    for seq in sorted(emitted):
        out += _U16.pack(seq)
    if tag == 1:
        out += _STATE_LR.pack(
            _opt(rewriter.frame_first_seq),
            _opt(rewriter.frame_highest_seq),
            _opt(rewriter.frame_number_current),
            _opt(rewriter.highest_suppressed_frame),
            int(rewriter.frame_ended),
            int(rewriter._current_frame_suppressed),
            rewriter._packets_per_frame_estimate,
            rewriter._packets_in_current_frame,
            len(rewriter._frame_offsets),
        )
        for frame, offset in rewriter._frame_offsets.items():
            out += _FRAME_OFFSET.pack(frame, offset)
    return bytes(out)


def unpack_rewriter_state(
    data: bytes,
) -> Union["SequenceRewriterLowMemory", "SequenceRewriterLowRetransmission"]:
    """Reconstruct a rewriter from :func:`pack_rewriter_state` output.

    The round trip is exact: the clone and the original produce identical
    ``on_packet`` outputs for any subsequent event sequence (property-tested
    in ``tests/test_seqrewrite.py``).
    """
    (
        tag,
        suppressed_per_group,
        group_size,
        offset,
        packets_seen,
        packets_forwarded,
        packets_suppressed,
        packets_dropped_for_safety,
        highest_seq,
        highest_frame,
        emit_horizon,
        gap_carry,
    ) = _STATE_HEAD.unpack_from(data, 0)
    cursor = _STATE_HEAD.size
    (emitted_count,) = _U16.unpack_from(data, cursor)
    cursor += _U16.size
    emitted = set()
    for _ in range(emitted_count):
        emitted.add(_U16.unpack_from(data, cursor)[0])
        cursor += _U16.size
    cls = SequenceRewriterLowMemory if tag == 0 else SequenceRewriterLowRetransmission
    rewriter = cls(SkipCadence(suppressed_per_group, group_size))
    rewriter.offset = offset
    rewriter.packets_seen = packets_seen
    rewriter.packets_forwarded = packets_forwarded
    rewriter.packets_suppressed = packets_suppressed
    rewriter.packets_dropped_for_safety = packets_dropped_for_safety
    rewriter.highest_seq = _unopt(highest_seq)
    rewriter.highest_frame = _unopt(highest_frame)
    rewriter._emit_horizon = _unopt(emit_horizon)
    rewriter._gap_carry = gap_carry
    rewriter._emitted = emitted
    if tag == 1:
        (
            frame_first_seq,
            frame_highest_seq,
            frame_number_current,
            highest_suppressed_frame,
            frame_ended,
            current_frame_suppressed,
            packets_per_frame_estimate,
            packets_in_current_frame,
            n_frame_offsets,
        ) = _STATE_LR.unpack_from(data, cursor)
        cursor += _STATE_LR.size
        frame_offsets: Dict[int, int] = {}
        for _ in range(n_frame_offsets):
            frame, frame_offset = _FRAME_OFFSET.unpack_from(data, cursor)
            frame_offsets[frame] = frame_offset
            cursor += _FRAME_OFFSET.size
        rewriter.frame_first_seq = _unopt(frame_first_seq)
        rewriter.frame_highest_seq = _unopt(frame_highest_seq)
        rewriter.frame_number_current = _unopt(frame_number_current)
        rewriter.highest_suppressed_frame = _unopt(highest_suppressed_frame)
        rewriter.frame_ended = bool(frame_ended)
        rewriter._current_frame_suppressed = bool(current_frame_suppressed)
        rewriter._packets_per_frame_estimate = packets_per_frame_estimate
        rewriter._packets_in_current_frame = packets_in_current_frame
        rewriter._frame_offsets = frame_offsets
    return rewriter


def ideal_rewrite_sequence(
    events: Sequence[Tuple[int, bool, bool]],
) -> List[Optional[int]]:
    """Positional oracle: the ideal rewritten number for every event in order.

    ``events`` is the ground-truth per-packet history in original sequence
    order: ``(sequence_number, suppressed_by_sfu, lost_before_sfu)``.  The
    ideal rewrite removes exactly the suppressed packets from the sequence
    space — lost packets keep their (rewritten) slot so the receiver NACKs
    them, which is the legitimate behaviour.

    Unlike :func:`ideal_rewrite_map` this handles streams longer than one
    sequence wrap (> 65536 packets), where raw sequence numbers repeat and can
    no longer serve as dictionary keys.
    """
    ideal: List[Optional[int]] = []
    suppressed_so_far = 0
    for sequence_number, suppressed, _lost in events:
        if suppressed:
            ideal.append(None)
            suppressed_so_far += 1
        else:
            ideal.append((sequence_number - suppressed_so_far) % SEQ_MOD)
    return ideal


def ideal_rewrite_map(
    events: Sequence[Tuple[int, bool, bool]],
) -> Dict[int, Optional[int]]:
    """The oracle keyed by original sequence number (streams up to one wrap).

    Returns a map from original sequence number to the ideal rewritten number,
    or ``None`` for packets the receiver should never see (suppressed).  For
    wrap-spanning histories use :func:`ideal_rewrite_sequence`.
    """
    ideal = ideal_rewrite_sequence(events)
    return {event[0]: rewritten for event, rewritten in zip(events, ideal)}
