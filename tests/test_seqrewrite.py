"""Unit tests for the S-LM / S-LR sequence-rewriting heuristics and their
packed register-image codec (what a cross-SFU meeting migration ships)."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.seqrewrite import (
    SequenceRewriterLowMemory,
    SequenceRewriterLowRetransmission,
    SkipCadence,
    ideal_rewrite_map,
    ideal_rewrite_sequence,
    pack_rewriter_state,
    unpack_rewriter_state,
)

REWRITERS = [SequenceRewriterLowMemory, SequenceRewriterLowRetransmission]


def feed(rewriter, events):
    """events: list of (seq, frame, forward) -> list of emitted sequence numbers."""
    emitted = []
    for seq, frame, forward in events:
        out = rewriter.on_packet(seq, frame, forward)
        if out is not None:
            emitted.append(out)
    return emitted


class TestSkipCadence:
    def test_ratio(self):
        assert SkipCadence(1, 2).ratio == 0.5
        assert SkipCadence(0, 1).ratio == 0.0

    def test_for_decode_target(self):
        assert SkipCadence.for_decode_target(2).ratio == 0.0
        assert SkipCadence.for_decode_target(1).ratio == 0.5
        assert SkipCadence.for_decode_target(0).ratio == 0.75

    def test_validation(self):
        with pytest.raises(ValueError):
            SkipCadence(2, 1)
        with pytest.raises(ValueError):
            SkipCadence(0, 0)


@pytest.mark.parametrize("cls", REWRITERS)
class TestRewriterCommonBehaviour:
    def test_pass_through_when_nothing_suppressed(self, cls):
        rewriter = cls(SkipCadence(0, 1))
        events = [(100 + i, i // 3, True) for i in range(30)]
        emitted = feed(rewriter, events)
        assert emitted == [100 + i for i in range(30)]

    def test_suppression_closes_gaps(self, cls):
        rewriter = cls(SkipCadence(1, 2))
        # frames of 2 packets each; every second frame suppressed
        events = []
        seq = 500
        for frame in range(20):
            forward = frame % 2 == 0
            for _ in range(2):
                events.append((seq, frame, forward))
                seq += 1
        emitted = feed(rewriter, events)
        # forwarded packets must be consecutive: no gaps, no duplicates
        assert emitted == list(range(emitted[0], emitted[0] + len(emitted)))

    def test_never_emits_duplicates(self, cls):
        rewriter = cls(SkipCadence(1, 2))
        events = []
        seq = 0
        for frame in range(50):
            forward = frame % 2 == 0
            for _ in range(3):
                events.append((seq, frame, forward))
                seq += 1
        # replay some packets out of order / duplicated
        events = events + events[10:20]
        emitted = feed(rewriter, events)
        assert len(emitted) == len(set(emitted))

    def test_sequence_wraparound(self, cls):
        rewriter = cls(SkipCadence(0, 1))
        events = [((65_530 + i) % 65_536, i // 2, True) for i in range(12)]
        emitted = feed(rewriter, events)
        assert len(emitted) == 12
        assert len(set(emitted)) == 12

    def test_counters(self, cls):
        rewriter = cls(SkipCadence(1, 2))
        feed(rewriter, [(i, i // 2, i % 4 < 2) for i in range(40)])
        assert rewriter.packets_seen == 40
        assert rewriter.packets_forwarded + rewriter.packets_suppressed <= 40 + rewriter.packets_dropped_for_safety
        assert rewriter.state_cells in (3, 6)


class TestLowMemorySpecifics:
    def test_gap_attributed_to_cadence(self):
        rewriter = SequenceRewriterLowMemory(SkipCadence(1, 2))
        # packets 0,1 forwarded; packets 2,3 never arrive (they were the
        # suppressed frame, dropped upstream); packets 4,5 forwarded
        emitted = feed(
            rewriter,
            [(0, 0, True), (1, 0, True), (4, 2, True), (5, 2, True)],
        )
        # the 2-packet gap matches the cadence, so roughly half of it is
        # attributed to suppression: the output gap shrinks
        assert emitted[0] == 0 and emitted[1] == 1
        assert emitted[2] - emitted[1] <= 2

    def test_old_packet_dropped_for_safety(self):
        rewriter = SequenceRewriterLowMemory(SkipCadence(0, 1))
        feed(rewriter, [(i, 0, True) for i in range(10)])
        assert rewriter.on_packet(2, 0, True) is None
        assert rewriter.packets_dropped_for_safety >= 1


class TestLowRetransmissionSpecifics:
    def test_intra_frame_gap_preserved(self):
        rewriter = SequenceRewriterLowRetransmission(SkipCadence(1, 2))
        # packets 0..3 belong to frame 7; packet 2 is lost in the network.
        # Because a frame is never partially suppressed, the gap must remain.
        emitted = feed(rewriter, [(0, 7, True), (1, 7, True), (3, 7, True)])
        assert emitted == [0, 1, 3]

    def test_late_packet_of_current_frame_rewritten_correctly(self):
        rewriter = SequenceRewriterLowRetransmission(SkipCadence(1, 2))
        emitted = []
        for seq, frame, forward in [(0, 0, True), (1, 0, True), (2, 1, False), (3, 1, False), (4, 2, True), (6, 2, True)]:
            out = rewriter.on_packet(seq, frame, forward)
            if out is not None:
                emitted.append(out)
        # the late packet 5 of frame 2 arrives after 6
        late = rewriter.on_packet(5, 2, True)
        assert late is not None
        assert late not in emitted  # no duplicate
        all_out = sorted(emitted + [late])
        assert all_out == list(range(all_out[0], all_out[0] + len(all_out)))

    def test_late_packet_of_suppressed_frame_dropped_silently(self):
        rewriter = SequenceRewriterLowRetransmission(SkipCadence(1, 2))
        feed(rewriter, [(0, 0, True), (1, 0, True), (2, 1, False), (4, 2, True)])
        # packet 3 of the suppressed frame 1 shows up late; it must vanish
        assert rewriter.on_packet(3, 1, False) is None


def wrap_spanning_events(num_frames=78_000, packets_per_frame=2, suppress_every=8):
    """A meeting long enough for the *rewritten* sequence space to wrap fully
    (> 129k forwarded packets): every ``suppress_every``-th frame suppressed,
    every packet arriving in order (suppressed ones with ``forward=False``)."""
    events = []
    seq = 0
    for frame in range(num_frames):
        forward = frame % suppress_every != suppress_every - 1
        for _ in range(packets_per_frame):
            events.append((seq % 65_536, frame % 65_536, forward))
            seq += 1
    return events


@pytest.mark.parametrize("cls", REWRITERS)
class TestWrapSpanningStreams:
    """Regression tests for the duplicate-guard eviction bug: the old numeric
    trim kept the top-2048 pre-wrap entries forever, so one full lap of the
    rewritten space later every fresh emission collided with a stale entry
    and was spuriously dropped for safety."""

    def test_no_spurious_drops_and_ideal_rewrite_across_wraps(self, cls):
        events = wrap_spanning_events()
        rewriter = cls(SkipCadence(1, 2))
        emitted = [rewriter.on_packet(seq, frame, forward) for seq, frame, forward in events]
        ideal = ideal_rewrite_sequence([(seq, not forward, False) for seq, _frame, forward in events])
        assert rewriter.packets_dropped_for_safety == 0
        assert emitted == ideal
        assert rewriter.packets_forwarded > 65_536 * 2  # genuinely wrap-spanning

    def test_first_wrap_agrees_with_ideal_map(self, cls):
        # over the first 65536 packets the sequence numbers are still unique,
        # so the dictionary-keyed oracle applies directly
        events = wrap_spanning_events(num_frames=32_768)
        rewriter = cls(SkipCadence(1, 2))
        mapping = ideal_rewrite_map([(seq, not forward, False) for seq, _frame, forward in events])
        for seq, frame, forward in events:
            assert rewriter.on_packet(seq, frame, forward) == mapping[seq]

    def test_reordered_duplicate_after_wrap_still_dropped(self, cls):
        events = wrap_spanning_events(num_frames=33_000)
        rewriter = cls(SkipCadence(1, 2))
        for seq, frame, forward in events:
            rewriter.on_packet(seq, frame, forward)
        # replay the most recent forwarded packet: the guard set must still
        # hold its post-wrap rewritten number even after evictions
        last_forwarded = next(e for e in reversed(events) if e[2])
        assert rewriter.on_packet(last_forwarded[0], last_forwarded[1], True) is None
        assert rewriter.packets_dropped_for_safety == 1


class TestFrameNumberWraparound:
    """S-LR frame tracking must survive the 16-bit frame-number wrap (~18
    minutes at 60 fps); the old plain max() froze both high-water marks at
    65535 forever."""

    def feed_across_frame_wrap(self, rewriter, frames_after_wrap=12):
        seq = 0
        frame_events = []
        for frame in range(65_530, 65_536 + frames_after_wrap):
            frame_number = frame % 65_536
            forward = frame % 2 == 0  # alternate frames suppressed
            for _ in range(2):
                frame_events.append((seq, frame_number, forward))
                seq += 1
        for event_seq, frame_number, forward in frame_events:
            rewriter.on_packet(event_seq % 65_536, frame_number, forward)

    def test_highest_frames_track_past_the_wrap(self):
        rewriter = SequenceRewriterLowRetransmission(SkipCadence(1, 2))
        self.feed_across_frame_wrap(rewriter)
        # the last frame fed is 65547 % 65536 == 11 (suppressed); both
        # high-water marks must have crossed the wrap instead of freezing
        assert rewriter.highest_frame == 11
        assert rewriter.highest_suppressed_frame == 11

    def test_late_packet_classification_after_wrap(self):
        rewriter = SequenceRewriterLowRetransmission(SkipCadence(1, 2))
        self.feed_across_frame_wrap(rewriter)
        # a late packet of a recent *forwarded* post-wrap frame whose offset
        # is still remembered must be emitted, not swallowed as "suppressed"
        emitted_before = rewriter.packets_forwarded
        late_frame = rewriter.frame_number_current
        late = rewriter.on_packet((rewriter.highest_seq - 1) % 65_536, late_frame, True)
        assert late is not None
        assert rewriter.packets_forwarded == emitted_before + 1

    def test_late_packet_of_old_suppressed_frame_still_silently_dropped(self):
        rewriter = SequenceRewriterLowRetransmission(SkipCadence(1, 2))
        self.feed_across_frame_wrap(rewriter)
        drops_before = rewriter.packets_dropped_for_safety
        # frame 65531 was suppressed long ago (pre-wrap): silently dropped,
        # not counted as a safety drop
        assert rewriter.on_packet(3, 65_531, False) is None
        assert rewriter.packets_dropped_for_safety == drops_before


def _sorted_rule(offsets, frame_number):
    """S-LR's frame-offset eviction before its single pass: after a frame
    start, sort the held frames by wrap-aware distance behind it and keep
    the 8 nearest."""
    if len(offsets) > 8:
        for old in sorted(offsets, key=lambda f: (frame_number - f) % 65_536)[8:]:
            del offsets[old]


class TestFrameOffsetEviction:
    """``_start_frame`` evicts the one frame furthest behind in a single
    pass; it must keep exactly the frames (and offsets, in the same order)
    the sorted rule keeps, across the 65535 -> 0 wrap and for frames that
    start out of order."""

    @given(
        first=st.integers(min_value=65_400, max_value=65_535),
        starts=st.lists(
            st.tuples(st.integers(min_value=-12, max_value=40), st.integers(min_value=0, max_value=3)),
            min_size=1,
            max_size=80,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_keeps_the_sorted_rules_frames(self, first, starts):
        rewriter = SequenceRewriterLowRetransmission(SkipCadence(1, 2))
        model = {}
        frame, seq = first, 0
        for frame_step, offset_step in starts:
            frame = (frame + frame_step) % 65_536  # steps back: out-of-order starts
            seq = (seq + 1) % 65_536
            rewriter.offset += offset_step
            model[frame] = rewriter.offset
            _sorted_rule(model, frame)
            rewriter._start_frame(seq, frame)
            assert list(rewriter._frame_offsets.items()) == list(model.items())
            assert len(rewriter._frame_offsets) <= 8

    @given(
        first_seq=st.integers(min_value=65_300, max_value=65_535),
        first_frame=st.integers(min_value=65_500, max_value=65_535),
        frames=st.lists(
            st.tuples(st.integers(min_value=1, max_value=5), st.booleans(), st.integers(min_value=1, max_value=3)),
            min_size=1,
            max_size=120,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_frame_starts_through_on_packet_match_and_rewrite_ideally(self, first_seq, first_frame, frames):
        # an in-order stream across both wraps whose frame numbers advance by
        # 1-5 per frame; every frame start goes through the spied _start_frame
        rewriter = SequenceRewriterLowRetransmission(SkipCadence(1, 2))
        model = {}
        start_frame = rewriter._start_frame

        def spied(sequence_number, frame_number):
            model[frame_number] = rewriter.offset
            _sorted_rule(model, frame_number)
            start_frame(sequence_number, frame_number)
            assert list(rewriter._frame_offsets.items()) == list(model.items())

        rewriter._start_frame = spied
        events, seq, frame = [], first_seq, first_frame
        for frame_step, forward, packets in frames:
            frame = (frame + frame_step) % 65_536
            for _ in range(packets):
                events.append((seq, frame, forward))
                seq = (seq + 1) % 65_536
        emitted = [rewriter.on_packet(seq, frame, forward) for seq, frame, forward in events]
        assert emitted == ideal_rewrite_sequence([(seq, not forward, False) for seq, _frame, forward in events])
        assert len(model) == min(8, len({frame for _seq, frame, _forward in events}))


class TestOracle:
    def test_ideal_map_removes_only_suppressed(self):
        events = [(0, False, False), (1, True, False), (2, False, True), (3, False, False)]
        mapping = ideal_rewrite_map(events)
        assert mapping[0] == 0
        assert mapping[1] is None          # suppressed: receiver never sees it
        assert mapping[2] == 1             # lost: keeps its (shifted) slot
        assert mapping[3] == 2

    def test_ideal_map_is_gap_free_over_suppression(self):
        events = [(seq, seq % 2 == 1, False) for seq in range(100)]
        mapping = ideal_rewrite_map(events)
        values = [v for v in mapping.values() if v is not None]
        assert values == list(range(50))


# --------------------------------------------------------------------------- packed state codec

events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),    # sequence advance
        st.integers(min_value=0, max_value=2),     # frame advance
        st.booleans(),                             # forward?
    ),
    min_size=0,
    max_size=60,
)


def _drive(rewriter, steps, seq0=65_500, frame0=65_530):
    """Feed a synthetic event stream (wrap-crossing seeds) and collect outputs."""
    outputs = []
    seq, frame = seq0, frame0
    for seq_step, frame_step, forward in steps:
        seq = (seq + seq_step) % 65536
        frame = (frame + frame_step) % 65536
        outputs.append(rewriter.on_packet(seq, frame, forward))
    return outputs


class TestRewriterStateCodec:
    @pytest.mark.parametrize("cls", [SequenceRewriterLowMemory, SequenceRewriterLowRetransmission])
    @given(before=events, after=events)
    @settings(max_examples=60, deadline=None)
    def test_clone_continues_identically(self, cls, before, after):
        original = cls(SkipCadence(1, 2))
        _drive(original, before)
        clone = unpack_rewriter_state(pack_rewriter_state(original))
        assert type(clone) is type(original)
        assert clone.cadence == original.cadence
        assert _drive(clone, after) == _drive(original, after)
        assert clone.packets_seen == original.packets_seen
        assert clone.packets_forwarded == original.packets_forwarded
        assert clone.packets_dropped_for_safety == original.packets_dropped_for_safety

    def test_packed_form_is_compact(self):
        rewriter = SequenceRewriterLowRetransmission(SkipCadence(1, 2))
        rng = random.Random(5)
        _drive(rewriter, [(rng.randint(0, 3), rng.randint(0, 1), rng.random() < 0.6) for _ in range(500)])
        packed = pack_rewriter_state(rewriter)
        pickled = pickle.dumps(rewriter, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(packed) < len(pickled)

    def test_unknown_rewriter_class_rejected(self):
        class Custom:
            pass

        with pytest.raises(TypeError):
            pack_rewriter_state(Custom())

    def test_subclass_is_not_packed_as_its_base(self):
        # the tag names an exact class; a subclass could carry state the
        # record has no slot for
        class Tuned(SequenceRewriterLowMemory):
            pass

        with pytest.raises(TypeError, match="Tuned"):
            pack_rewriter_state(Tuned(SkipCadence(1, 2)))

    @pytest.mark.parametrize("cls", REWRITERS)
    @given(steps=events)
    @settings(max_examples=40, deadline=None)
    def test_packed_form_is_a_fixed_point(self, cls, steps):
        rewriter = cls(SkipCadence(1, 2))
        _drive(rewriter, steps)
        packed = pack_rewriter_state(rewriter)
        assert pack_rewriter_state(unpack_rewriter_state(packed)) == packed

    @pytest.mark.parametrize("cls", REWRITERS)
    @pytest.mark.parametrize("cadence", [SkipCadence(1, 2), SkipCadence(1, 3), SkipCadence(2, 4)])
    def test_cadence_and_fresh_state_survive(self, cls, cadence):
        fresh = cls(cadence)
        clone = unpack_rewriter_state(pack_rewriter_state(fresh))
        assert type(clone) is cls
        assert clone.cadence == cadence
        assert clone.highest_seq is None and clone.highest_frame is None
        steps = [(1, index % 2, index % 3 != 1) for index in range(40)]
        assert _drive(clone, steps, seq0=0, frame0=0) == _drive(fresh, steps, seq0=0, frame0=0)
