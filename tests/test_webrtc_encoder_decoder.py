"""Unit tests for the SVC encoder, packetizer, audio source, and receiver."""

import pytest

from repro.rtp.av1 import extract_dependency_descriptor
from repro.rtp.packet import PT_AUDIO_OPUS, PT_VIDEO_AV1, RtpPacket
from repro.webrtc.decoder import AudioReceiveStream, VideoReceiveStream
from repro.webrtc.encoder import (
    AudioSource,
    L1T3_TEMPORAL_PATTERN,
    RtpPacketizer,
    SvcEncoder,
)


def encode_frames(encoder, packetizer, count, start_time=0.0):
    """Produce `count` frames worth of packets with realistic timing."""
    packets = []
    time = start_time
    for _ in range(count):
        frame = encoder.next_frame(time)
        packets.extend(packetizer.packetize(frame))
        time += encoder.frame_interval
    return packets


class TestSvcEncoder:
    def test_first_frame_is_keyframe(self):
        encoder = SvcEncoder(seed=1)
        frame = encoder.next_frame(0.0)
        assert frame.is_keyframe and frame.temporal_layer == 0 and frame.template_id == 0

    def test_temporal_pattern_follows_l1t3(self):
        encoder = SvcEncoder(seed=1)
        layers = [encoder.next_frame(i / 30).temporal_layer for i in range(9)]
        # after the key frame the 4-frame L1T3 pattern repeats
        assert layers[0] == 0
        assert layers[1:5] == list(L1T3_TEMPORAL_PATTERN)[1:] + [L1T3_TEMPORAL_PATTERN[0]]

    def test_bitrate_controls_frame_size(self):
        small = SvcEncoder(target_bitrate_bps=300_000, seed=1)
        large = SvcEncoder(target_bitrate_bps=3_000_000, seed=1)
        small_bytes = sum(small.next_frame(i / 30).size_bytes for i in range(1, 60))
        large_bytes = sum(large.next_frame(i / 30).size_bytes for i in range(1, 60))
        assert large_bytes > 5 * small_bytes

    def test_set_target_bitrate_clamped_to_max(self):
        encoder = SvcEncoder(target_bitrate_bps=1_000_000, seed=1)
        encoder.set_target_bitrate(50_000_000)
        assert encoder.target_bitrate_bps == 1_000_000
        encoder.set_target_bitrate(10)
        assert encoder.target_bitrate_bps == 50_000

    def test_keyframe_on_request(self):
        encoder = SvcEncoder(seed=1)
        for i in range(5):
            encoder.next_frame(i / 30)
        encoder.request_keyframe()
        assert encoder.next_frame(6 / 30).is_keyframe

    def test_periodic_keyframe(self):
        encoder = SvcEncoder(keyframe_interval_s=1.0, seed=1)
        frames = [encoder.next_frame(i / 30) for i in range(0, 120)]
        keyframes = [f for f in frames if f.is_keyframe]
        assert 3 <= len(keyframes) <= 5

    def test_approximate_output_bitrate(self):
        encoder = SvcEncoder(target_bitrate_bps=2_200_000, keyframe_interval_s=1000, seed=3)
        total = sum(encoder.next_frame(i / 30).size_bytes for i in range(1, 301))
        bitrate = total * 8 / 10.0
        assert bitrate == pytest.approx(2_200_000, rel=0.35)


class TestPacketizer:
    def test_sequence_numbers_are_consecutive(self):
        encoder = SvcEncoder(seed=2)
        packetizer = RtpPacketizer(ssrc=99, seed=2)
        packets = encode_frames(encoder, packetizer, 20)
        seqs = [p.sequence_number for p in packets]
        for previous, current in zip(seqs, seqs[1:]):
            assert current == (previous + 1) % 65_536

    def test_marker_set_on_last_packet_of_frame(self):
        encoder = SvcEncoder(seed=2)
        packetizer = RtpPacketizer(ssrc=99, seed=2)
        frame = encoder.next_frame(0.0)
        packets = packetizer.packetize(frame)
        assert packets[-1].marker
        assert all(not p.marker for p in packets[:-1])

    def test_descriptor_start_end_flags(self):
        encoder = SvcEncoder(seed=2)
        packetizer = RtpPacketizer(ssrc=99, seed=2)
        packets = packetizer.packetize(encoder.next_frame(0.0))
        first = extract_dependency_descriptor(packets[0].extension)
        last = extract_dependency_descriptor(packets[-1].extension)
        assert first.start_of_frame and last.end_of_frame
        assert first.is_extended  # key frame carries the template structure

    def test_payload_size_respects_mtu(self):
        encoder = SvcEncoder(target_bitrate_bps=4_000_000, seed=2)
        packetizer = RtpPacketizer(ssrc=99, max_payload_bytes=1_100, seed=2)
        packets = encode_frames(encoder, packetizer, 10)
        assert all(len(p.payload) <= 1_100 for p in packets)

    def test_all_packets_share_frame_timestamp(self):
        encoder = SvcEncoder(seed=2)
        packetizer = RtpPacketizer(ssrc=99, seed=2)
        packets = packetizer.packetize(encoder.next_frame(1.0))
        assert len({p.timestamp for p in packets}) == 1

    def test_video_payload_type(self):
        encoder = SvcEncoder(seed=2)
        packetizer = RtpPacketizer(ssrc=99, seed=2)
        assert all(p.payload_type == PT_VIDEO_AV1 for p in packetizer.packetize(encoder.next_frame(0.0)))


class TestAudioSource:
    def test_packet_rate_and_size(self):
        source = AudioSource(ssrc=1, seed=1)
        packets = [source.next_packet(i * 0.02) for i in range(100)]
        assert all(p.payload_type == PT_AUDIO_OPUS for p in packets)
        sizes = [p.size for p in packets]
        assert 60 < sum(sizes) / len(sizes) < 250

    def test_sequence_increments(self):
        source = AudioSource(ssrc=1, seed=1)
        first = source.next_packet(0.0)
        second = source.next_packet(0.02)
        assert second.sequence_number == (first.sequence_number + 1) % 65_536


class TestVideoReceiveStream:
    def _deliver(self, stream, packets, start=0.0, interval=1 / 30):
        time = start
        for packet in packets:
            stream.on_packet(packet, time)
            time += interval / max(len(packets), 1)

    def test_complete_frames_are_decoded(self):
        encoder = SvcEncoder(seed=4)
        packetizer = RtpPacketizer(ssrc=50, seed=4)
        stream = VideoReceiveStream(ssrc=50)
        packets = encode_frames(encoder, packetizer, 30)
        self._deliver(stream, packets)
        assert stream.frames_decoded == 30
        assert stream.keyframes_decoded >= 1
        assert not stream.frozen

    def test_gap_triggers_nack_list(self):
        encoder = SvcEncoder(seed=4)
        packetizer = RtpPacketizer(ssrc=50, seed=4)
        stream = VideoReceiveStream(ssrc=50)
        packets = encode_frames(encoder, packetizer, 5)
        dropped = packets[3]
        nacks = []
        for index, packet in enumerate(packets):
            if index == 3:
                continue
            nacks.extend(stream.on_packet(packet, index * 0.01))
        assert dropped.sequence_number in nacks
        assert dropped.sequence_number in stream.missing

    def test_late_packet_fills_gap(self):
        encoder = SvcEncoder(seed=4)
        packetizer = RtpPacketizer(ssrc=50, seed=4)
        stream = VideoReceiveStream(ssrc=50)
        packets = encode_frames(encoder, packetizer, 3)
        reordered = packets[:2] + packets[3:] + [packets[2]]
        self._deliver(stream, reordered)
        assert not stream.missing
        assert stream.frames_decoded == 3

    def test_same_packet_twice_is_benign(self):
        encoder = SvcEncoder(seed=4)
        packetizer = RtpPacketizer(ssrc=50, seed=4)
        stream = VideoReceiveStream(ssrc=50)
        packets = encode_frames(encoder, packetizer, 2)
        self._deliver(stream, packets + [packets[-1]])
        assert stream.benign_duplicates == 1
        assert not stream.frozen

    def test_conflicting_duplicate_freezes_until_keyframe(self):
        encoder = SvcEncoder(seed=4)
        packetizer = RtpPacketizer(ssrc=50, seed=4)
        stream = VideoReceiveStream(ssrc=50)
        packets = encode_frames(encoder, packetizer, 4)
        self._deliver(stream, packets)
        # different packet claiming an already-used sequence number
        conflict = packets[-1].with_sequence_number(packets[0].sequence_number)
        stream.on_packet(conflict, 1.0)
        assert stream.frozen
        decoded_before = stream.frames_decoded
        # more ordinary frames do not decode while frozen
        more = encode_frames(encoder, packetizer, 4, start_time=1.0)
        self._deliver(stream, more, start=1.0)
        assert stream.frames_decoded == decoded_before
        # a key frame unfreezes
        encoder.request_keyframe()
        recovery = encode_frames(encoder, packetizer, 1, start_time=2.0)
        self._deliver(stream, recovery, start=2.0)
        assert not stream.frozen
        assert stream.frames_decoded > decoded_before

    def test_jitter_increases_with_irregular_arrivals(self):
        encoder = SvcEncoder(seed=4)
        packetizer = RtpPacketizer(ssrc=50, seed=4)
        smooth = VideoReceiveStream(ssrc=50)
        packets = encode_frames(encoder, packetizer, 60)
        for index, packet in enumerate(packets):
            smooth.on_packet(packet, index * 0.005)
        bursty = VideoReceiveStream(ssrc=50)
        import random

        rng = random.Random(1)
        for index, packet in enumerate(packets):
            bursty.on_packet(packet, index * 0.005 + rng.uniform(0, 0.05))
        assert bursty.jitter_ms > smooth.jitter_ms

    def test_frame_rate_series_reflects_rate(self):
        encoder = SvcEncoder(seed=4)
        packetizer = RtpPacketizer(ssrc=50, seed=4)
        stream = VideoReceiveStream(ssrc=50)
        time = 0.0
        for _ in range(90):
            for packet in packetizer.packetize(encoder.next_frame(time)):
                stream.on_packet(packet, time)
            time += 1 / 30
        series = stream.frame_rate_series(bucket_s=1.0)
        assert series, "expected at least one bucket"
        rates = [fps for _t, fps in series[:-1]]
        assert all(25 <= fps <= 35 for fps in rates)

    def test_frame_rate_counts_out_of_order_completion_times(self):
        # burst delivery can complete a frame at an earlier receive time than
        # the frame before it: the trailing-window count must not depend on
        # the order completions arrive in
        import random

        encoder = SvcEncoder(seed=4)
        packetizer = RtpPacketizer(ssrc=50, seed=4)
        stream = VideoReceiveStream(ssrc=50)
        completions = [index * 0.04 for index in range(40)]
        random.Random(7).shuffle(completions)
        for index, completed_at in enumerate(completions):
            for packet in packetizer.packetize(encoder.next_frame(index / 30)):
                stream.on_packet(packet, completed_at)
        assert stream.frames_decoded == len(completions)
        for window_s, now in ((0.5, 1.6), (1.0, 0.9), (0.12, 0.8), (2.0, 1.56), (0.04, 0.0)):
            recent = [t for t in completions if t >= now - window_s]
            assert stream.frame_rate(window_s, now) == len(recent) / window_s
        assert stream.frame_rate(0.0, 1.0) == 0.0


class TestAudioReceiveStream:
    def test_counters(self):
        source = AudioSource(ssrc=9, seed=1)
        stream = AudioReceiveStream(ssrc=9)
        for index in range(50):
            stream.on_packet(source.next_packet(index * 0.02), index * 0.02)
        assert stream.packets_received == 50
        assert stream.bytes_received > 0
        assert stream.jitter_ms >= 0.0
