"""Integration tests: full Scallop (controller + agent + data plane) on the
simulated network with real WebRTC client models."""

import pytest

from repro.core.capacity import ReplicationDesign, RewriteVariant
from repro.core.scallop import ScallopSfu
from repro.dataplane.pipeline import ForwardingMode, ReplicaTarget, StreamForwardingEntry
from repro.dataplane.pre import L2Port
from repro.netsim.datagram import Address, Datagram
from repro.netsim.link import LinkProfile, Network
from repro.netsim.simulator import Simulator
from repro.rtp.packet import RtpPacket
from repro.webrtc.client import ClientConfig, WebRtcClient

SFU_ADDR = Address("10.0.0.1", 5000)


def build_meeting(participants=3, video_bitrate=650_000, seed=1, thresholds=None):
    sim = Simulator()
    net = Network(sim, seed=seed)
    if thresholds is None:
        # scale the decode-target thresholds to the configured stream bitrate,
        # as an operator deploying Scallop would
        thresholds = (video_bitrate * 0.8, video_bitrate * 0.4)
    sfu = ScallopSfu(
        SFU_ADDR,
        sim,
        net,
        rewrite_variant=RewriteVariant.S_LR,
        adaptation_thresholds_bps=thresholds,
    )
    clients = []
    for index in range(participants):
        config = ClientConfig(
            participant_id=f"p{index + 1}",
            meeting_id="meeting-1",
            address=Address(f"10.0.1.{index + 1}", 6000 + index),
            remote=SFU_ADDR,
            video_bitrate_bps=video_bitrate,
            seed=seed * 100 + index,
        )
        client = WebRtcClient(config, sim, net)
        net.attach(client)
        sfu.join(client)
        clients.append(client)
    sfu.start()
    for client in clients:
        client.start()
    return sim, net, sfu, clients


class TestThreePartyMeeting:
    @pytest.fixture(scope="class")
    def meeting(self):
        sim, net, sfu, clients = build_meeting()
        sim.run_for(10.0)
        return sim, net, sfu, clients

    def test_all_participants_receive_all_other_streams(self, meeting):
        _sim, _net, _sfu, clients = meeting
        for client in clients:
            stats = client.get_stats()
            assert len(stats.inbound_video) == 2
            assert len(stats.inbound_audio) == 2

    def test_full_frame_rate_without_congestion(self, meeting):
        _sim, _net, _sfu, clients = meeting
        for client in clients:
            for stream in client.get_stats().inbound_video:
                assert stream.frames_per_second == pytest.approx(30.0, abs=4.0)
                assert stream.freeze_count == 0

    def test_most_packets_stay_in_data_plane(self, meeting):
        _sim, _net, sfu, _clients = meeting
        fractions = sfu.data_plane_fraction()
        assert fractions["packets"] > 0.9
        assert fractions["bytes"] > 0.99

    def test_controller_and_agent_saw_the_meeting(self, meeting):
        _sim, _net, sfu, _clients = meeting
        assert sfu.controller.counters.joins == 3
        assert sfu.agent.counters.remb_handled > 10
        assert sfu.agent.counters.stun_handled > 0
        assert sfu.agent.meeting_design("meeting-1") in (ReplicationDesign.NRA, ReplicationDesign.RA_R)

    def test_forwarding_latency_is_switch_like(self, meeting):
        _sim, _net, sfu, _clients = meeting
        assert sfu.forwarding_latency_samples_ms
        assert max(sfu.forwarding_latency_samples_ms) < 0.1  # well under 0.1 ms


class TestTwoPartyMeeting:
    def test_two_party_uses_unicast_design(self):
        sim, net, sfu, clients = build_meeting(participants=2)
        sim.run_for(5.0)
        assert sfu.agent.meeting_design("meeting-1") == ReplicationDesign.TWO_PARTY
        for client in clients:
            stats = client.get_stats()
            assert len(stats.inbound_video) == 1
            assert stats.inbound_video[0].frames_per_second == pytest.approx(30.0, abs=4.0)

    def test_no_replication_trees_allocated(self):
        _sim, _net, sfu, _clients = (lambda t: t)(build_meeting(participants=2))
        assert sfu.pipeline.pre.num_trees == 0


class TestRateAdaptationEndToEnd:
    def test_constrained_downlink_reduces_frame_rate_without_freezes(self):
        thresholds = (650_000 * 0.8, 650_000 * 0.4)
        sim, net, sfu, clients = build_meeting(participants=3, thresholds=thresholds)
        sim.run_for(15.0)
        constrained = clients[2]
        net.set_downlink_profile(
            constrained.address,
            LinkProfile(bandwidth_bps=1_200_000, propagation_delay_s=0.01, queue_limit_bytes=60_000),
        )
        sim.run_for(30.0)

        # at least one stream towards the constrained participant was adapted
        targets = [
            int(sfu.agent.decode_target_for(sender.config.participant_id, "p3"))
            for sender in clients[:2]
        ]
        assert min(targets) < 2

        now = sim.now
        adapted_rates = [s.frame_rate(4.0, now) for s in constrained.video_receivers.values()]
        assert min(adapted_rates) < 20.0          # reduced from 30 fps
        assert min(adapted_rates) > 5.0           # but still flowing
        assert all(s.freeze_events == 0 for s in constrained.video_receivers.values())
        assert all(not s.frozen for s in constrained.video_receivers.values())

        # the unconstrained participants keep full quality
        for client in clients[:2]:
            for stream in client.video_receivers.values():
                assert stream.frame_rate(4.0, now) > 22.0

    def test_adaptation_entries_installed_in_pipeline(self):
        thresholds = (650_000 * 0.8, 650_000 * 0.4)
        sim, net, sfu, clients = build_meeting(participants=3, thresholds=thresholds)
        sim.run_for(10.0)
        net.set_downlink_profile(
            clients[2].address,
            LinkProfile(bandwidth_bps=1_000_000, propagation_delay_s=0.01, queue_limit_bytes=50_000),
        )
        sim.run_for(20.0)
        assert len(sfu.pipeline.adaptation_table) >= 1
        assert sfu.agent.counters.decode_target_changes >= 1
        # adaptation implies the meeting was migrated off NRA
        assert sfu.agent.meeting_design("meeting-1") == ReplicationDesign.RA_R


class TestMembershipChurn:
    def test_participant_leaving_stops_their_stream(self):
        sim, net, sfu, clients = build_meeting(participants=3)
        sim.run_for(5.0)
        leaver = clients[2]
        sfu.leave(leaver)
        leaver.stop()
        packets_before = {
            c.config.participant_id: sum(s.packets_received for s in c.video_receivers.values())
            for c in clients[:2]
        }
        sim.run_for(3.0)
        for client in clients[:2]:
            received_from_leaver = client.video_receivers.get(leaver.video_ssrc)
            if received_from_leaver is not None:
                after = received_from_leaver.packets_received
                # no meaningful growth after the leave
                assert after - packets_before[client.config.participant_id] < after * 0.5

    def test_late_joiner_receives_media(self):
        sim, net, sfu, clients = build_meeting(participants=2)
        sim.run_for(3.0)
        config = ClientConfig(
            participant_id="p3",
            meeting_id="meeting-1",
            address=Address("10.0.1.9", 6009),
            remote=SFU_ADDR,
            video_bitrate_bps=650_000,
            seed=99,
        )
        late = WebRtcClient(config, sim, net)
        net.attach(late)
        sfu.join(late)
        late.start()
        sim.run_for(5.0)
        stats = late.get_stats()
        assert len(stats.inbound_video) == 2
        assert stats.mean_video_fps() > 15
        # and the meeting was promoted off the two-party design
        assert sfu.agent.meeting_design("meeting-1") != ReplicationDesign.TWO_PARTY


class TestFanOutEvent:
    """The replicas of one ingress packet leave from one simulator event."""

    def _sfu_with_two_senders(self):
        sim = Simulator()
        net = Network(sim)
        sfu = ScallopSfu(SFU_ADDR, sim, net)
        receivers = [Address(f"10.0.2.{index}", 7000 + index) for index in (1, 2, 3)]
        senders = {}
        for name, fan_out in (("A", 3), ("B", 2)):
            sender = Address(f"10.0.3.{fan_out}", 6000 + fan_out)
            mgid = sfu.pipeline.pre.create_tree()
            for rid, address in enumerate(receivers[:fan_out], start=1):
                sfu.pipeline.pre.add_node(mgid, rid=rid, ports=[L2Port(port=rid, l2_xid=rid)])
                sfu.pipeline.install_replica_target(
                    mgid, rid, ReplicaTarget(address=address, participant_id=f"{name}{rid}")
                )
            ssrc = 1000 + fan_out
            sfu.pipeline.install_stream(
                (sender, ssrc),
                StreamForwardingEntry(
                    mode=ForwardingMode.REPLICATE, meeting_id=name, sender=sender, mgid=mgid
                ),
            )
            packet = RtpPacket(payload_type=111, sequence_number=1, timestamp=0, ssrc=ssrc, payload=b"x" * 80)
            senders[name] = Datagram(src=sender, dst=SFU_ADDR, payload=packet)
        return sim, net, sfu, receivers, senders

    def test_same_instant_ingress_fans_out_in_target_order(self):
        sim, net, sfu, receivers, senders = self._sfu_with_two_senders()
        sent = []
        net.send = lambda datagram: sent.append((sim.now, datagram.payload.ssrc, datagram.dst))
        sim.run(until=1.0)
        sfu.handle_datagram(senders["A"])
        sfu.handle_datagram(senders["B"])
        before = sim.events_processed
        sim.run()
        egress = 1.0 + sfu.forwarding_delay_s
        assert sent == [
            (egress, 1003, receivers[0]),
            (egress, 1003, receivers[1]),
            (egress, 1003, receivers[2]),
            (egress, 1002, receivers[0]),
            (egress, 1002, receivers[1]),
        ]
        # one event per ingress packet, not one per replica
        assert sim.events_processed - before == 2
        assert sfu.stats.packets_out == 5

    def test_replicas_reach_the_uplink_restamped(self):
        sim, net, sfu, receivers, senders = self._sfu_with_two_senders()
        delivered = []

        class Sink:
            def __init__(self, address):
                self.address = address

            def handle_datagram(self, datagram):
                delivered.append((self.address, datagram.arrived_at))

        for address in receivers:
            net.attach(Sink(address))
        sfu.handle_datagram(senders["A"])
        sim.run()
        assert [address for address, _arrived in delivered] == receivers
        # per-packet delivery: no burst schedule rides the replicas
        assert {arrived for _address, arrived in delivered} == {None}
