"""Unit tests for the ingress parser and the Scallop pipeline."""

import pytest

from repro.dataplane.parser import IngressParser, PacketClass
from repro.dataplane.pipeline import (
    FeedbackRule,
    ForwardingMode,
    ReplicaTarget,
    ScallopPipeline,
    StreamForwardingEntry,
)
from repro.dataplane.pre import L2Port
from repro.core.seqrewrite import (
    SequenceRewriterLowMemory,
    SequenceRewriterLowRetransmission,
    SkipCadence,
)
from repro.netsim.datagram import Address, Datagram
from repro.rtp.av1 import extract_dependency_descriptor
from repro.rtp.rtcp import Nack, PictureLossIndication, ReceiverReport, Remb, ReportBlock, SenderReport, SourceDescription
from repro.stun.message import make_binding_request
from repro.webrtc.encoder import AudioSource, RtpPacketizer, SvcEncoder

SFU = Address("10.0.0.1", 5000)
ALICE = Address("10.0.1.1", 6000)
BOB = Address("10.0.1.2", 6001)
CAROL = Address("10.0.1.3", 6002)

ALICE_VIDEO_SSRC = 1001
ALICE_AUDIO_SSRC = 1000


def video_packets(frames=1, ssrc=ALICE_VIDEO_SSRC, seed=1, bitrate=600_000):
    encoder = SvcEncoder(target_bitrate_bps=bitrate, seed=seed)
    packetizer = RtpPacketizer(ssrc=ssrc, seed=seed)
    packets = []
    for index in range(frames):
        packets.extend(packetizer.packetize(encoder.next_frame(index / 30)))
    return packets


class TestIngressParser:
    def test_classifies_audio_video(self):
        parser = IngressParser()
        video = video_packets(1)[1]
        result = parser.parse(Datagram(src=ALICE, dst=SFU, payload=video))
        assert result.packet_class == PacketClass.RTP_VIDEO
        assert result.template_id is not None
        audio = AudioSource(ssrc=ALICE_AUDIO_SSRC).next_packet(0.0)
        result = parser.parse(Datagram(src=ALICE, dst=SFU, payload=audio))
        assert result.packet_class == PacketClass.RTP_AUDIO

    def test_keyframe_extended_descriptor_punts_to_cpu(self):
        parser = IngressParser()
        key_packet = video_packets(1)[0]  # first packet of the key frame
        result = parser.parse(Datagram(src=ALICE, dst=SFU, payload=key_packet))
        assert result.has_extended_descriptor
        assert result.needs_cpu

    def test_ordinary_video_stays_in_data_plane(self):
        parser = IngressParser()
        packet = video_packets(3)[-1]  # a non-key frame packet
        result = parser.parse(Datagram(src=ALICE, dst=SFU, payload=packet))
        assert not result.needs_cpu

    def test_stun_needs_cpu(self):
        parser = IngressParser()
        stun = make_binding_request(bytes(12), "alice")
        result = parser.parse(Datagram(src=ALICE, dst=SFU, payload=stun))
        assert result.packet_class == PacketClass.STUN and result.needs_cpu

    def test_feedback_vs_sender_rtcp(self):
        parser = IngressParser()
        feedback = Datagram(src=ALICE, dst=SFU, payload=(Remb(1, 1e6, (2,)),))
        assert parser.parse(feedback).packet_class == PacketClass.RTCP_FEEDBACK
        sender_info = Datagram(src=ALICE, dst=SFU, payload=(SenderReport(1), SourceDescription()))
        assert parser.parse(sender_info).packet_class == PacketClass.RTCP_SENDER


def build_pipeline_with_meeting(mode=ForwardingMode.REPLICATE):
    """A pipeline with one 3-party meeting configured by hand."""
    pipeline = ScallopPipeline(SFU)
    mgid = pipeline.pre.create_tree()
    participants = {ALICE: 1, BOB: 2, CAROL: 3}
    for address, rid in participants.items():
        pipeline.pre.add_node(mgid, rid=rid, ports=[L2Port(port=rid, l2_xid=rid)], l1_xid=1, prune_enabled=True)
        pipeline.install_replica_target(mgid, rid, ReplicaTarget(address=address, participant_id=str(rid)))
    entry = StreamForwardingEntry(
        mode=mode,
        meeting_id="m",
        sender=ALICE,
        mgid=mgid,
        rid=1,
        l2_xid=1,
        unicast_receiver=BOB,
    )
    pipeline.install_stream((ALICE, ALICE_VIDEO_SSRC), entry)
    pipeline.install_stream((ALICE, ALICE_AUDIO_SSRC), entry)
    return pipeline, mgid


class TestPipelineMediaPath:
    def test_video_replicated_to_other_participants(self):
        pipeline, _ = build_pipeline_with_meeting()
        packet = video_packets(3)[-1]
        result = pipeline.process(Datagram(src=ALICE, dst=SFU, payload=packet))
        destinations = sorted(str(d.dst) for d in result.outputs)
        assert destinations == sorted([str(BOB), str(CAROL)])
        # egress rewrote the source address to the SFU
        assert all(d.src == SFU for d in result.outputs)
        # media payload is an exact copy (Zoom-style forwarding)
        assert all(d.payload.ssrc == ALICE_VIDEO_SSRC for d in result.outputs)

    def test_unknown_stream_dropped(self):
        pipeline, _ = build_pipeline_with_meeting()
        packet = video_packets(1, ssrc=9999)[0]
        result = pipeline.process(Datagram(src=BOB, dst=SFU, payload=packet))
        assert result.outputs == []
        assert pipeline.counters.table_misses >= 1

    def test_keyframe_copied_to_cpu_and_forwarded(self):
        pipeline, _ = build_pipeline_with_meeting()
        key_packet = video_packets(1)[0]
        result = pipeline.process(Datagram(src=ALICE, dst=SFU, payload=key_packet))
        assert len(result.outputs) == 2
        assert len(result.cpu_copies) == 1

    def test_unicast_mode_skips_pre(self):
        pipeline, _ = build_pipeline_with_meeting(mode=ForwardingMode.UNICAST)
        packet = video_packets(3)[-1]
        replications_before = pipeline.pre.replications_performed
        result = pipeline.process(Datagram(src=ALICE, dst=SFU, payload=packet))
        assert [d.dst for d in result.outputs] == [BOB]
        assert pipeline.pre.replications_performed == replications_before

    def test_stun_goes_to_cpu_only(self):
        pipeline, _ = build_pipeline_with_meeting()
        stun = make_binding_request(bytes(12), "alice")
        result = pipeline.process(Datagram(src=ALICE, dst=SFU, payload=stun))
        assert result.outputs == [] and len(result.cpu_copies) == 1

    def test_sender_report_replicated_in_data_plane(self):
        pipeline, _ = build_pipeline_with_meeting()
        sr = Datagram(src=ALICE, dst=SFU, payload=(SenderReport(sender_ssrc=ALICE_VIDEO_SSRC),))
        result = pipeline.process(sr)
        assert len(result.outputs) == 2
        assert result.cpu_copies == []

    def test_sender_report_on_a_cached_flow_matches_a_table_walk(self):
        # once the flow's media has filled its fast-path slot, an SR reuses
        # the cached resolution: same replicas, same PRE and miss accounting
        sr = Datagram(src=ALICE, dst=SFU, payload=(SenderReport(sender_ssrc=ALICE_VIDEO_SSRC),))
        unknown_sr = Datagram(src=BOB, dst=SFU, payload=(SenderReport(sender_ssrc=9999),))
        walked, _ = build_pipeline_with_meeting()
        walked_results = [walked.process(sr), walked.process(unknown_sr)]
        cached, _ = build_pipeline_with_meeting()
        cached.process_batch(
            [
                Datagram(src=ALICE, dst=SFU, payload=video_packets(3)[-1]),
                Datagram(src=BOB, dst=SFU, payload=video_packets(1, ssrc=9999)[0]),
            ]
        )
        before = (cached.pre.replications_performed, cached.pre.copies_produced, cached.counters.table_misses)
        cached_results = cached.process_batch([sr, unknown_sr])
        for walked_result, cached_result in zip(walked_results, cached_results):
            assert [(d.src, d.dst, d.payload, d.size, d.kind, d.meta) for d in cached_result.outputs] == [
                (d.src, d.dst, d.payload, d.size, d.kind, d.meta) for d in walked_result.outputs
            ]
        assert len(cached_results[0].outputs) == 2 and cached_results[1].outputs == []
        assert all(d.size == len(d.to_bytes()) for d in cached_results[0].outputs)
        after = (cached.pre.replications_performed, cached.pre.copies_produced, cached.counters.table_misses)
        assert tuple(b - a for a, b in zip(before, after)) == (
            walked.pre.replications_performed,
            walked.pre.copies_produced,
            walked.counters.table_misses,
        )

    def test_counters_accumulate(self):
        pipeline, _ = build_pipeline_with_meeting()
        for packet in video_packets(5):
            pipeline.process(Datagram(src=ALICE, dst=SFU, payload=packet))
        assert pipeline.counters.data_plane_packets > 0
        assert pipeline.counters.replicas_out > 0


class TestPipelineAdaptation:
    def _install_adaptation(self, pipeline, allowed):
        rewriter = SequenceRewriterLowMemory(SkipCadence(1, 2))
        pipeline.install_adaptation(ALICE_VIDEO_SSRC, BOB, frozenset(allowed), rewriter)
        return rewriter

    def test_disallowed_templates_dropped_for_receiver(self):
        pipeline, _ = build_pipeline_with_meeting()
        self._install_adaptation(pipeline, {0, 1, 2})  # DT1: drop templates 3, 4
        dropped_to_bob = 0
        forwarded_to_bob = 0
        for packet in video_packets(frames=16):
            result = pipeline.process(Datagram(src=ALICE, dst=SFU, payload=packet))
            to_bob = [d for d in result.outputs if d.dst == BOB]
            descriptor = extract_dependency_descriptor(packet.extension)
            if descriptor.template_id in (3, 4):
                dropped_to_bob += 1 - len(to_bob)
            else:
                forwarded_to_bob += len(to_bob)
            # Carol (no adaptation entry) always receives a copy
            assert any(d.dst == CAROL for d in result.outputs)
        assert dropped_to_bob > 0
        assert forwarded_to_bob > 0
        assert pipeline.counters.adaptation_drops == dropped_to_bob

    def test_forwarded_sequence_numbers_are_continuous(self):
        pipeline, _ = build_pipeline_with_meeting()
        self._install_adaptation(pipeline, {0, 1, 2})
        received = []
        for packet in video_packets(frames=32):
            result = pipeline.process(Datagram(src=ALICE, dst=SFU, payload=packet))
            received.extend(d.payload.sequence_number for d in result.outputs if d.dst == BOB)
        gaps = [b - a for a, b in zip(received, received[1:])]
        assert all(gap == 1 for gap in gaps), f"gaps in rewritten space: {gaps}"

    def test_update_templates_requires_existing_entry(self):
        pipeline, _ = build_pipeline_with_meeting()
        with pytest.raises(KeyError):
            pipeline.update_adaptation_templates(ALICE_VIDEO_SSRC, BOB, frozenset({0, 1}))

    def test_remove_adaptation_frees_index(self):
        pipeline, _ = build_pipeline_with_meeting()
        self._install_adaptation(pipeline, {0, 1})
        in_use_before = pipeline.stream_indices.in_use
        pipeline.remove_adaptation(ALICE_VIDEO_SSRC, BOB)
        assert pipeline.stream_indices.in_use == in_use_before - 1


class TestStreamStateAccounting:
    """Stream-tracker occupancy must reflect the rewriter's real register
    footprint (Table 3): 3 cells for S-LM, 6 for S-LR, released on removal."""

    def test_install_charges_real_state_cells(self):
        pipeline, _ = build_pipeline_with_meeting()
        assert pipeline.accountant.stream_tracker_cells_used == 0
        pipeline.install_adaptation(
            ALICE_VIDEO_SSRC, BOB, frozenset({0, 1}), SequenceRewriterLowMemory(SkipCadence(1, 2))
        )
        assert pipeline.accountant.stream_tracker_cells_used == 3
        pipeline.install_adaptation(
            ALICE_VIDEO_SSRC, CAROL, frozenset({0, 1}), SequenceRewriterLowRetransmission(SkipCadence(1, 2))
        )
        assert pipeline.accountant.stream_tracker_cells_used == 3 + 6

    def test_remove_releases_state_cells(self):
        pipeline, _ = build_pipeline_with_meeting()
        pipeline.install_adaptation(
            ALICE_VIDEO_SSRC, BOB, frozenset({0, 1}), SequenceRewriterLowRetransmission(SkipCadence(1, 2))
        )
        pipeline.remove_adaptation(ALICE_VIDEO_SSRC, BOB)
        assert pipeline.accountant.stream_tracker_cells_used == 0

    def test_reinstall_swaps_charge_without_leaking(self):
        pipeline, _ = build_pipeline_with_meeting()
        pipeline.install_adaptation(
            ALICE_VIDEO_SSRC, BOB, frozenset({0, 1}), SequenceRewriterLowMemory(SkipCadence(1, 2))
        )
        pipeline.install_adaptation(
            ALICE_VIDEO_SSRC, BOB, frozenset({0}), SequenceRewriterLowRetransmission(SkipCadence(3, 4))
        )
        assert pipeline.accountant.stream_tracker_cells_used == 6

    def test_same_size_swap_succeeds_at_full_occupancy(self):
        from repro.dataplane.resources import TofinoCapacities

        # at exactly S-LR capacity a 6-for-6 rewriter swap must not need
        # old+new cells transiently
        pipeline = ScallopPipeline(SFU, capacities=TofinoCapacities(stream_tracker_cells=6))
        pipeline.install_adaptation(
            ALICE_VIDEO_SSRC, BOB, frozenset({0, 1}), SequenceRewriterLowRetransmission(SkipCadence(1, 2))
        )
        pipeline.install_adaptation(
            ALICE_VIDEO_SSRC, BOB, frozenset({0}), SequenceRewriterLowRetransmission(SkipCadence(3, 4))
        )
        assert pipeline.accountant.stream_tracker_cells_used == 6
        # shrinking swap frees the difference
        pipeline.install_adaptation(
            ALICE_VIDEO_SSRC, BOB, frozenset({0}), SequenceRewriterLowMemory(SkipCadence(1, 2))
        )
        assert pipeline.accountant.stream_tracker_cells_used == 3

    def test_failed_install_does_not_leak_charge(self):
        from repro.dataplane.tables import IndexAllocator, TableFull

        # exhaust the index pool so allocation fails *after* the accountant
        # charge: repeated failures must not accumulate phantom occupancy
        pipeline, _ = build_pipeline_with_meeting()
        pipeline.stream_indices = IndexAllocator(0)
        for _ in range(5):
            with pytest.raises(TableFull):
                pipeline.install_adaptation(
                    ALICE_VIDEO_SSRC, CAROL, frozenset({0}), SequenceRewriterLowMemory(SkipCadence(1, 2))
                )
        assert pipeline.accountant.stream_tracker_cells_used == 0
        assert pipeline.stream_indices.lookup((ALICE_VIDEO_SSRC, CAROL)) is None

    def test_install_remove_churn_is_stable(self):
        pipeline, _ = build_pipeline_with_meeting()
        for _ in range(100):
            pipeline.install_adaptation(
                ALICE_VIDEO_SSRC, BOB, frozenset({0, 1}), SequenceRewriterLowRetransmission(SkipCadence(1, 2))
            )
            pipeline.remove_adaptation(ALICE_VIDEO_SSRC, BOB)
        assert pipeline.accountant.stream_tracker_cells_used == 0
        assert pipeline.stream_indices.in_use == 0


class TestPipelineFeedbackPath:
    def test_remb_forwarded_only_when_selected(self):
        pipeline, _ = build_pipeline_with_meeting()
        remb = Datagram(src=BOB, dst=SFU, payload=(Remb(sender_ssrc=2002, bitrate_bps=1e6, media_ssrcs=(ALICE_VIDEO_SSRC,)),))
        # without any rule: copy to CPU only
        result = pipeline.process(remb)
        assert result.outputs == [] and len(result.cpu_copies) == 1
        # with a rule but forward_remb False: still CPU only
        pipeline.install_feedback_rule(BOB, ALICE_VIDEO_SSRC, FeedbackRule(sender=ALICE, forward_remb=False))
        assert pipeline.process(remb).outputs == []
        # once the filter function selects Bob's downlink, REMB reaches Alice
        pipeline.install_feedback_rule(BOB, ALICE_VIDEO_SSRC, FeedbackRule(sender=ALICE, forward_remb=True))
        outputs = pipeline.process(remb).outputs
        assert [d.dst for d in outputs] == [ALICE]

    def test_nack_and_pli_forwarded_to_sender(self):
        pipeline, _ = build_pipeline_with_meeting()
        pipeline.install_feedback_rule(BOB, ALICE_VIDEO_SSRC, FeedbackRule(sender=ALICE, forward_remb=False))
        nack = Datagram(src=BOB, dst=SFU, payload=(Nack(2002, ALICE_VIDEO_SSRC, (5,)),))
        pli = Datagram(src=BOB, dst=SFU, payload=(PictureLossIndication(2002, ALICE_VIDEO_SSRC),))
        assert [d.dst for d in pipeline.process(nack).outputs] == [ALICE]
        assert [d.dst for d in pipeline.process(pli).outputs] == [ALICE]

    def test_receiver_report_treated_like_remb(self):
        pipeline, _ = build_pipeline_with_meeting()
        pipeline.install_feedback_rule(BOB, ALICE_VIDEO_SSRC, FeedbackRule(sender=ALICE, forward_remb=True))
        rr = Datagram(
            src=BOB,
            dst=SFU,
            payload=(ReceiverReport(sender_ssrc=2002, report_blocks=(ReportBlock(ssrc=ALICE_VIDEO_SSRC),)),),
        )
        assert [d.dst for d in pipeline.process(rr).outputs] == [ALICE]
