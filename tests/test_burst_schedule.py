"""Deliver-with-schedule burst delivery and adaptive RX-queue batching.

The contract: a burst rides one simulator event per hop, but every datagram
carries the arrival timestamp it would have had under per-packet ``send`` —
through loss/jitter/queueing arithmetic and across hops — so GCC estimators,
jitter measurement, and latency samples observe identical timing in both
modes.  On the receive side, all bursts landing at an endpoint in one instant
drain as a single batch whose size follows instantaneous load.
"""

import pytest

from repro.core.scallop import ScallopSfu
from repro.dataplane.pipeline import ForwardingMode, ReplicaTarget, StreamForwardingEntry
from repro.dataplane.pre import L2Port
from repro.netsim.datagram import Address, Datagram
from repro.netsim.link import Link, LinkProfile, Network
from repro.netsim.simulator import Simulator
from repro.webrtc.encoder import RtpPacketizer, SvcEncoder
from repro.webrtc.gcc import RemoteBitrateEstimator

A = Address("10.0.0.2", 6000)
B = Address("10.0.0.3", 6001)
SFU = Address("10.0.0.1", 5000)


def frame_datagrams(frames=3, src=A, dst=B, ssrc=7, seed=2):
    encoder = SvcEncoder(target_bitrate_bps=2_200_000, seed=seed)
    packetizer = RtpPacketizer(ssrc=ssrc, seed=seed)
    out = []
    for index in range(frames):
        out.append(
            [Datagram(src=src, dst=dst, payload=p) for p in packetizer.packetize(encoder.next_frame(index / 30))]
        )
    return out


class _TimedSink:
    """Endpoint recording each packet's schedule-aware arrival time."""

    def __init__(self, address, simulator):
        self.address = address
        self.simulator = simulator
        self.arrivals = []  # (sequence_number, time)

    def handle_datagram(self, datagram):
        at = datagram.arrived_at if datagram.arrived_at is not None else self.simulator.now
        self.arrivals.append((datagram.payload.sequence_number, at))


class _BatchTimedSink(_TimedSink):
    def __init__(self, address, simulator):
        super().__init__(address, simulator)
        self.batches = []

    def handle_datagram_batch(self, datagrams):
        self.batches.append(len(datagrams))
        for datagram in datagrams:
            self.handle_datagram(datagram)


class TestLinkSchedulePreserved:
    def run_link(self, profile, burst_mode, packets):
        simulator = Simulator()
        arrivals = []

        def deliver(datagram):
            at = datagram.arrived_at if datagram.arrived_at is not None else simulator.now
            arrivals.append(at)

        link = Link(simulator, profile, deliver)
        if burst_mode:
            link.send_burst(packets)
        else:
            for datagram in packets:
                link.send(datagram)
        simulator.run()
        return arrivals

    @pytest.mark.parametrize(
        "profile",
        [
            LinkProfile(bandwidth_bps=2e6, propagation_delay_s=0.004),
            LinkProfile(bandwidth_bps=2e6, propagation_delay_s=0.004, jitter_s=0.003),
            LinkProfile(bandwidth_bps=5e5, propagation_delay_s=0.001, queue_limit_bytes=4000),
        ],
    )
    def test_burst_arrival_schedule_matches_per_packet_send(self, profile):
        packets = [d for frame in frame_datagrams(2) for d in frame]
        reference = self.run_link(profile, burst_mode=False, packets=packets)
        burst = self.run_link(profile, burst_mode=True, packets=packets)
        assert len(reference) == len(burst)
        for expected, actual in zip(reference, burst):
            assert actual == pytest.approx(expected, abs=1e-12)

    def test_inter_arrival_gaps_reflect_serialization(self):
        # back-to-back packets of one frame must arrive one serialization
        # time apart inside the burst, not all at the coalesced event time
        profile = LinkProfile(bandwidth_bps=1e6, propagation_delay_s=0.0)
        packets = [d for frame in frame_datagrams(1) for d in frame]
        arrivals = self.run_link(profile, burst_mode=True, packets=packets)
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        serialization = [d.wire_size * 8.0 / 1e6 for d in packets[1:]]
        for gap, expected in zip(gaps, serialization):
            assert gap == pytest.approx(expected, rel=1e-9)


class TestCoalescedAdmissionFifo:
    def test_per_packet_send_does_not_overtake_pending_burst(self):
        # a burst held for admission coalescing arrived first; a per-packet
        # send must flush it ahead rather than claim earlier queue slots
        simulator = Simulator()
        arrivals = []

        def deliver(datagram):
            at = datagram.arrived_at if datagram.arrived_at is not None else simulator.now
            arrivals.append((datagram.payload.sequence_number, at))

        link = Link(
            simulator,
            LinkProfile(bandwidth_bps=1e6, propagation_delay_s=0.001),
            deliver,
            admission_coalesce_window_s=0.002,
        )
        burst = [d for frame in frame_datagrams(1) for d in frame][:5]
        link.send_burst(burst)
        straggler = frame_datagrams(1, ssrc=9)[0][0]
        link.send(straggler)
        simulator.run()
        assert [seq for seq, _ in arrivals[:5]] == [d.payload.sequence_number for d in burst]
        assert arrivals[5][0] == straggler.payload.sequence_number
        # FIFO admission: the straggler serialized behind the whole burst
        assert arrivals[5][1] > max(at for _, at in arrivals[:5])


class TestNetworkSchedulePreserved:
    def run_network(self, burst_mode, jitter_s=0.0):
        simulator = Simulator()
        network = Network(simulator, seed=17)
        sender = _TimedSink(A, simulator)
        receiver = _TimedSink(B, simulator)
        access = LinkProfile(bandwidth_bps=4e6, propagation_delay_s=0.008, jitter_s=jitter_s)
        network.attach(sender, uplink=access, downlink=access)
        network.attach(receiver, uplink=access, downlink=access)
        for frame in frame_datagrams(3):
            if burst_mode:
                network.send_burst(frame)
            else:
                for datagram in frame:
                    network.send(datagram)
            simulator.run()
        return receiver.arrivals

    @pytest.mark.parametrize("jitter_s", [0.0, 0.002])
    def test_two_hop_schedule_matches_per_packet(self, jitter_s):
        reference = self.run_network(burst_mode=False, jitter_s=jitter_s)
        burst = self.run_network(burst_mode=True, jitter_s=jitter_s)
        assert [seq for seq, _ in reference] == [seq for seq, _ in burst]
        for (_, expected), (_, actual) in zip(reference, burst):
            assert actual == pytest.approx(expected, abs=1e-12)


class TestAdaptiveRxBatching:
    def test_bursts_arriving_together_drain_as_one_batch(self):
        # two senders each emit a frame burst at t=0 towards one receiver:
        # their downlink deliveries land microseconds apart, inside the RX
        # moderation window, so they coalesce into a single load-sized batch
        simulator = Simulator()
        # window sized to cover the downlink's serialization spread of the
        # second sender's burst (two 69-packet bursts back-to-back at 1 Gb/s)
        network = Network(simulator, seed=1, rx_coalesce_window_s=1e-3)
        c = Address("10.0.0.4", 6002)
        receiver = _BatchTimedSink(B, simulator)
        profile = LinkProfile(bandwidth_bps=1e9, propagation_delay_s=0.005)
        for endpoint in (_TimedSink(A, simulator), _TimedSink(c, simulator), receiver):
            network.attach(endpoint, uplink=profile, downlink=profile)
        burst_a = [d for f in frame_datagrams(1, src=A, ssrc=7) for d in f]
        burst_c = [d for f in frame_datagrams(1, src=c, ssrc=8) for d in f]
        network.send_burst(burst_a + burst_c)
        simulator.run()
        assert sum(receiver.batches) == len(burst_a) + len(burst_c)
        # adaptive sizing: the two per-source bursts coalesced into one drain
        assert receiver.batches == [len(burst_a) + len(burst_c)]

    def test_batches_track_instantaneous_load(self):
        # bursts spaced out in time drain separately; batch size follows load
        simulator = Simulator()
        network = Network(simulator, seed=1, rx_coalesce_window_s=250e-6)
        receiver = _BatchTimedSink(B, simulator)
        profile = LinkProfile(bandwidth_bps=1e9, propagation_delay_s=0.005)
        network.attach(_TimedSink(A, simulator), uplink=profile, downlink=profile)
        network.attach(receiver, uplink=profile, downlink=profile)
        frames = frame_datagrams(2, src=A)
        network.send_burst(frames[0])
        simulator.run()
        simulator.schedule(1.0, lambda: network.send_burst(frames[1]))
        simulator.run()
        assert receiver.batches == [len(frames[0]), len(frames[1])]

    def test_moderation_window_does_not_change_measured_arrivals(self):
        # the window shifts drain *event* times only; the arrival schedule
        # each packet carries is identical with and without moderation
        def run(window):
            simulator = Simulator()
            network = Network(simulator, seed=4, rx_coalesce_window_s=window)
            receiver = _BatchTimedSink(B, simulator)
            profile = LinkProfile(bandwidth_bps=4e6, propagation_delay_s=0.008)
            network.attach(_TimedSink(A, simulator), uplink=profile, downlink=profile)
            network.attach(receiver, uplink=profile, downlink=profile)
            for frame in frame_datagrams(3, src=A):
                network.send_burst(frame)
            simulator.run()
            return receiver.arrivals

        without = run(0.0)
        with_window = run(0.002)
        assert [seq for seq, _ in without] == [seq for seq, _ in with_window]
        for (_, expected), (_, actual) in zip(without, with_window):
            assert actual == pytest.approx(expected, abs=1e-12)


class TestSoftwareSfuBatch:
    """The split-proxy baseline ingests bursts like-for-like (ROADMAP item 3):
    same modelled CPU cost per packet, anchored on true arrival schedules."""

    @staticmethod
    def run_baseline(frame_bursts):
        from repro.rtp.av1 import DecodeTarget
        from repro.scenario import BackendSpec, MeetingSpec, Scenario, TrafficSpec, build_scenario

        # pin the decode target (as the Figure 3/4 experiment does): REMB
        # estimates sit near a layer-drop threshold in this scenario, and the
        # resulting flicker is stochastic noise orthogonal to what is under
        # test here (burst ingest fidelity of the CPU model)
        scenario = Scenario.uniform(
            num_meetings=2,
            meeting=MeetingSpec(
                participants=3, send_audio=False, frame_rate=10.0, video_bitrate_bps=500_000.0
            ),
            backend=BackendSpec(
                kind="software", select_fn=lambda current, history, estimate: DecodeTarget.DT2
            ),
            traffic=TrafficSpec(frame_bursts=frame_bursts),
            seed=6,
        )
        testbed = build_scenario(scenario)
        testbed.run_for(3.0)
        return testbed

    def test_burst_ingest_preserves_forwarding_behaviour(self):
        reference = self.run_baseline(frame_bursts=False)
        burst = self.run_baseline(frame_bursts=True)
        # light load, no CPU drops: both modes admit and forward essentially
        # the same traffic (periodic feedback events near the horizon shift
        # by microseconds under coalescing, so counts match within a hair,
        # not exactly — the byte-identical contract belongs to Scallop's
        # dataplane, not the stochastic CPU baseline)
        assert burst.sfu.stats.packets_dropped_cpu == 0
        assert reference.sfu.stats.packets_dropped_cpu == 0
        assert burst.sfu.stats.packets_in == pytest.approx(reference.sfu.stats.packets_in, rel=0.02)
        assert burst.sfu.stats.packets_out == pytest.approx(reference.sfu.stats.packets_out, rel=0.02)

        def mean_fps(testbed):
            now = testbed.simulator.now
            rates = [
                stream.frame_rate(2.0, now)
                for client in testbed.clients
                for stream in client.video_receivers.values()
            ]
            return sum(rates) / len(rates)

        assert mean_fps(burst) == pytest.approx(mean_fps(reference), rel=0.15)

    def test_overload_experiment_runs_in_burst_mode(self):
        from repro.experiments.fig_overload import OverloadConfig, run_overload_experiment

        config = OverloadConfig(
            num_meetings=2,
            participants_per_meeting=3,
            seconds_per_join=0.3,
            media_scale=0.1,
            saturation_participants=6,
            frame_bursts=True,
        )
        result = run_overload_experiment(config)
        assert len(result.samples) == 6
        assert result.samples[-1].cpu_utilization > 0.0


def build_sfu_star(n_shards=1):
    """A minimal SFU star (one sender flow, one receiver) with the pipeline
    configured directly, bypassing signaling/feedback so the only traffic is
    the media under test."""
    simulator = Simulator()
    network = Network(simulator, seed=9)
    sfu = ScallopSfu(SFU, simulator, network, n_shards=n_shards)
    access = LinkProfile(bandwidth_bps=6e6, propagation_delay_s=0.01)
    sender = _TimedSink(A, simulator)
    receiver = _TimedSink(B, simulator)
    network.attach(sender, uplink=access, downlink=access)
    network.attach(receiver, uplink=access, downlink=access)
    pipeline = sfu.pipeline
    mgid = pipeline.pre.create_tree()
    pipeline.pre.add_node(mgid, rid=1, ports=[L2Port(port=1, l2_xid=1)], l1_xid=1, prune_enabled=True)
    pipeline.install_replica_target(mgid, 1, ReplicaTarget(address=B, participant_id="bob"))
    pipeline.install_stream(
        (A, 7),
        StreamForwardingEntry(
            mode=ForwardingMode.REPLICATE, meeting_id="m", sender=A, mgid=mgid, rid=2, l2_xid=2
        ),
    )
    return simulator, network, receiver


class TestGccVisibleTimingThroughSfu:
    """Acceptance: GCC-visible inter-arrival times under deliver-with-schedule
    match per-packet ``send`` within floating-point tolerance, end to end
    through the SFU (uplink -> switch -> downlink)."""

    def run_mode(self, burst_mode, n_shards=1):
        simulator, network, receiver = build_sfu_star(n_shards=n_shards)
        frames = frame_datagrams(4, src=A, dst=SFU, ssrc=7)
        for index, frame in enumerate(frames):
            if burst_mode:
                simulator.schedule(index / 30, lambda f=frame: network.send_burst(f))
            else:
                simulator.schedule(
                    index / 30, lambda f=frame: [network.send(d) for d in f]
                )
        simulator.run()
        return receiver.arrivals

    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_receiver_arrival_schedule_identical(self, n_shards):
        reference = self.run_mode(burst_mode=False)
        burst = self.run_mode(burst_mode=True, n_shards=n_shards)
        assert [seq for seq, _ in reference] == [seq for seq, _ in burst]
        for (_, expected), (_, actual) in zip(reference, burst):
            assert actual == pytest.approx(expected, abs=1e-9)

    def test_gcc_estimator_sees_identical_pacing(self):
        reference = self.run_mode(burst_mode=False)
        burst = self.run_mode(burst_mode=True)

        def feed(arrivals):
            estimator = RemoteBitrateEstimator(initial_estimate_bps=2_200_000)
            for index, (_, at) in enumerate(arrivals):
                estimator.on_packet(recv_time=at, send_time=index / 90, size_bytes=1000)
            return estimator.estimate_bps

        assert feed(burst) == pytest.approx(feed(reference), rel=1e-12)
        gaps_reference = [b[1] - a[1] for a, b in zip(reference, reference[1:])]
        gaps_burst = [b[1] - a[1] for a, b in zip(burst, burst[1:])]
        for expected, actual in zip(gaps_reference, gaps_burst):
            assert actual == pytest.approx(expected, abs=1e-9)
