"""Unit tests for receiver-side GCC and the simulated WebRTC client."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.datagram import Address, Datagram
from repro.netsim.link import LinkProfile, Network
from repro.netsim.simulator import Simulator
from repro.rtp.rtcp import Nack, PictureLossIndication, Remb
from repro.webrtc.client import ClientConfig, WebRtcClient
from repro.webrtc.gcc import RATE_WINDOW_S, RemoteBitrateEstimator

A = Address("10.0.1.1", 6000)
B = Address("10.0.1.2", 6001)


class TestRemoteBitrateEstimator:
    def _feed_constant_rate(self, estimator, rate_bps, duration_s, queue_growth_s=0.0):
        packet_size = 1_200
        interval = packet_size * 8 / rate_bps
        time = 0.0
        extra = 0.0
        while time < duration_s:
            extra += queue_growth_s * interval
            estimator.on_packet(recv_time=time + extra, send_time=time, size_bytes=packet_size)
            time += interval

    def test_estimate_tracks_stable_rate(self):
        estimator = RemoteBitrateEstimator(initial_estimate_bps=500_000)
        self._feed_constant_rate(estimator, 2_000_000, 5.0)
        assert 1_000_000 <= estimator.estimate_bps <= 3_500_000

    def test_overuse_decreases_estimate(self):
        estimator = RemoteBitrateEstimator(initial_estimate_bps=3_000_000)
        # delay grows steadily: queue building up -> overuse
        self._feed_constant_rate(estimator, 2_000_000, 3.0, queue_growth_s=0.4)
        assert estimator.overuse_events > 0
        assert estimator.estimate_bps < 2_500_000

    def test_estimate_bounded_below(self):
        estimator = RemoteBitrateEstimator(initial_estimate_bps=100_000)
        self._feed_constant_rate(estimator, 60_000, 3.0, queue_growth_s=0.8)
        assert estimator.estimate_bps >= 50_000

    def test_incoming_rate_measurement(self):
        estimator = RemoteBitrateEstimator()
        self._feed_constant_rate(estimator, 1_000_000, 2.0)
        assert estimator.incoming_rate_bps(2.0) == pytest.approx(1_000_000, rel=0.2)

    def test_force_estimate_clamped(self):
        estimator = RemoteBitrateEstimator()
        estimator.force_estimate(10.0)
        assert estimator.estimate_bps == 50_000


def build_pair(seed=1, video_bitrate=800_000):
    """Two clients talking directly to each other (no SFU) over the network."""
    sim = Simulator()
    net = Network(sim, seed=seed)
    config_a = ClientConfig("a", "m", A, B, video_bitrate_bps=video_bitrate, seed=seed)
    config_b = ClientConfig("b", "m", B, A, video_bitrate_bps=video_bitrate, seed=seed + 1)
    a = WebRtcClient(config_a, sim, net)
    b = WebRtcClient(config_b, sim, net)
    net.attach(a)
    net.attach(b)
    return sim, net, a, b


class _ScannedRateWindow:
    """The definition ``incoming_rate_bps`` must equal: arrivals kept in call
    order, expired from the head only, summed by a scan on every query."""

    def __init__(self):
        self.arrivals = deque()

    def on_packet(self, recv_time, size_bytes):
        self.arrivals.append((recv_time, size_bytes))
        cutoff = recv_time - RATE_WINDOW_S
        while self.arrivals and self.arrivals[0][0] < cutoff:
            self.arrivals.popleft()

    def incoming_rate_bps(self, now):
        if not self.arrivals:
            return 0.0
        window_start = max(self.arrivals[0][0], now - RATE_WINDOW_S)
        duration = max(1e-3, now - window_start)
        total = sum(size for recv_time, size in self.arrivals if recv_time >= window_start)
        return total * 8.0 / duration


class TestIncomingRateWindow:
    # steps of either sign: burst schedules with jitter hand the estimator
    # receive times that run backwards, and a negative step larger than the
    # window strands old arrivals behind a newer head
    @settings(max_examples=300, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.004, 0.033, 0.3, 0.9, 1.0, 1.7, -0.002, -0.05, -1.2]),
                st.integers(min_value=1, max_value=1500),
                st.sampled_from([0.0, 0.01, 0.5, 1.0, 2.5, -0.01, -0.6]),
            ),
            min_size=1,
            max_size=80,
        )
    )
    def test_equals_scan_definition(self, steps):
        estimator, model = RemoteBitrateEstimator(), _ScannedRateWindow()
        assert estimator.incoming_rate_bps(0.0) == 0.0
        recv_time = 10.0
        for step, size, query_offset in steps:
            recv_time += step
            estimator.on_packet(recv_time=recv_time, send_time=recv_time, size_bytes=size)
            model.on_packet(recv_time, size)
            # the rate update asks at the arrival's own time; anything else
            # (stats, tests) may ask at any other
            for now in (recv_time, recv_time + query_offset):
                assert estimator.incoming_rate_bps(now) == model.incoming_rate_bps(now)


class TestWebRtcClientPeerToPeer:
    def test_media_flows_between_clients(self):
        sim, net, a, b = build_pair()
        a.start()
        b.start()
        sim.run_for(5.0)
        stats_b = b.get_stats()
        assert len(stats_b.inbound_video) == 1
        assert stats_b.inbound_video[0].frames_per_second == pytest.approx(30.0, abs=5.0)
        assert len(stats_b.inbound_audio) == 1
        assert stats_b.inbound_audio[0].packets_received > 100

    def test_stun_rtt_measured(self):
        sim, net, a, b = build_pair()
        a.start()
        b.start()
        sim.run_for(10.0)
        assert len(a.rtt_samples_ms) >= 3
        assert all(sample > 0 for sample in a.rtt_samples_ms)

    def test_receiver_reports_and_remb_sent(self):
        sim, net, a, b = build_pair()
        a.start()
        b.start()
        sim.run_for(5.0)
        # a receives b's REMB about a's own video and adapts its encoder within bounds
        assert a.encoder.target_bitrate_bps <= a.encoder.max_bitrate_bps

    def test_offer_answer_changes_remote(self):
        sim, net, a, b = build_pair()
        offer = a.create_offer()
        assert offer.ssrcs() == [a.audio_ssrc, a.video_ssrc]
        rewritten = offer.with_rewritten_candidates("10.9.9.9", 1234)
        a.apply_answer(rewritten)
        assert a.remote == Address("10.9.9.9", 1234)

    def test_nack_triggers_retransmission(self):
        sim, net, a, b = build_pair()
        a.start()
        sim.run_for(1.0)
        # b asks for a retransmission of a packet a recently sent
        sent_seq = (a.packetizer._sequence_number - 1) % 65_536
        nack = Nack(sender_ssrc=b.video_ssrc, media_ssrc=a.video_ssrc, lost_sequence_numbers=(sent_seq,))
        a.handle_datagram(Datagram(src=B, dst=A, payload=(nack,)))
        assert a.nacks_received == 1
        assert a.retransmissions_sent == 1

    def test_pli_requests_keyframe(self):
        sim, net, a, b = build_pair()
        a.start()
        sim.run_for(1.0)
        pli = PictureLossIndication(sender_ssrc=b.video_ssrc, media_ssrc=a.video_ssrc)
        a.handle_datagram(Datagram(src=B, dst=A, payload=(pli,)))
        assert a.plis_received == 1
        assert a.encoder._keyframe_requested

    def test_remb_reduces_encoder_bitrate(self):
        sim, net, a, b = build_pair(video_bitrate=2_000_000)
        a.start()
        sim.run_for(1.0)
        remb = Remb(sender_ssrc=b.video_ssrc, bitrate_bps=400_000, media_ssrcs=(a.video_ssrc,))
        a.handle_datagram(Datagram(src=B, dst=A, payload=(remb,)))
        assert a.encoder.target_bitrate_bps == pytest.approx(400_000, rel=0.01)

    def test_lossy_downlink_produces_nacks(self):
        sim, net, a, b = build_pair()
        net.set_downlink_profile(B, LinkProfile(loss_rate=0.1, bandwidth_bps=50_000_000))
        a.start()
        b.start()
        sim.run_for(5.0)
        stats = b.get_stats()
        assert stats.inbound_video[0].nack_count > 0

    def test_stop_halts_media(self):
        sim, net, a, b = build_pair()
        a.start()
        sim.run_for(1.0)
        sent_before = a.packets_sent
        a.stop()
        sim.run_for(2.0)
        assert a.packets_sent - sent_before <= 2

    def test_stats_report_totals(self):
        sim, net, a, b = build_pair()
        a.start()
        b.start()
        sim.run_for(3.0)
        first = b.get_stats()
        sim.run_for(2.0)
        second = b.get_stats()
        assert second.total_inbound_bitrate_bps(first) > 100_000
        assert second.worst_video_jitter_ms() >= 0.0
        assert second.mean_video_fps() > 10
