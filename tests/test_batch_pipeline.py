"""Equivalence and invalidation tests for the batched pipeline fast path.

The contract under test: ``process_batch`` must be observably identical to
calling ``process`` per packet — byte-identical outputs, equal CPU copies,
equal counters — while the memoized forwarding resolution must never serve
stale state after any control-plane write (including direct PRE mutations).
"""

import dataclasses

import pytest

from repro.core.seqrewrite import (
    SequenceRewriterLowMemory,
    SequenceRewriterLowRetransmission,
    SkipCadence,
)
from repro.dataplane.pipeline import (
    FeedbackRule,
    ForwardingMode,
    ReplicaTarget,
    ScallopPipeline,
    StreamForwardingEntry,
)
from repro.dataplane.pre import L2Port
from repro.netsim.datagram import Address, Datagram
from repro.rtp.rtcp import Nack, Remb, SenderReport, SourceDescription
from repro.stun.message import make_binding_request
from repro.webrtc.encoder import AudioSource, RtpPacketizer, SvcEncoder

from reference_datapath import reference_process

SFU = Address("10.0.0.1", 5000)
ALICE = Address("10.0.1.1", 6000)
BOB = Address("10.0.1.2", 6001)
CAROL = Address("10.0.1.3", 6002)

VIDEO_SSRC = 1001
AUDIO_SSRC = 1000


def video_packets(frames=1, ssrc=VIDEO_SSRC, seed=1):
    encoder = SvcEncoder(target_bitrate_bps=600_000, seed=seed)
    packetizer = RtpPacketizer(ssrc=ssrc, seed=seed)
    packets = []
    for index in range(frames):
        packets.extend(packetizer.packetize(encoder.next_frame(index / 30)))
    return packets


def build_pipeline(mode=ForwardingMode.REPLICATE, with_adaptation=False, rewriter_cls=SequenceRewriterLowMemory):
    pipeline = ScallopPipeline(SFU)
    mgid = pipeline.pre.create_tree()
    for rid, address in enumerate([ALICE, BOB, CAROL], start=1):
        pipeline.pre.add_node(mgid, rid=rid, ports=[L2Port(port=rid, l2_xid=rid)], l1_xid=1, prune_enabled=True)
        pipeline.install_replica_target(mgid, rid, ReplicaTarget(address=address, participant_id=str(rid)))
    entry = StreamForwardingEntry(
        mode=mode,
        meeting_id="m",
        sender=ALICE,
        mgid=mgid,
        mgid_by_layer={0: mgid, 1: mgid, 2: mgid} if mode == ForwardingMode.REPLICATE_BY_LAYER else None,
        rid=1,
        l2_xid=1,
        unicast_receiver=BOB,
    )
    pipeline.install_stream((ALICE, VIDEO_SSRC), entry)
    pipeline.install_stream((ALICE, AUDIO_SSRC), entry)
    if with_adaptation:
        pipeline.install_adaptation(VIDEO_SSRC, BOB, frozenset({0, 1, 2}), rewriter_cls(SkipCadence(1, 2)))
    return pipeline, mgid


def mixed_traffic(frames=24):
    traffic = [Datagram(src=ALICE, dst=SFU, payload=p) for p in video_packets(frames)]
    audio = AudioSource(ssrc=AUDIO_SSRC)
    for index in range(6):
        traffic.insert(5 * index, Datagram(src=ALICE, dst=SFU, payload=audio.next_packet(index * 0.02)))
    traffic.append(Datagram(src=ALICE, dst=SFU, payload=(SenderReport(sender_ssrc=VIDEO_SSRC),)))
    traffic.append(
        Datagram(src=BOB, dst=SFU, payload=(Remb(2002, 1e6, (VIDEO_SSRC,)), Nack(2002, VIDEO_SSRC, (5,))))
    )
    traffic.append(Datagram(src=ALICE, dst=SFU, payload=make_binding_request(bytes(12), "alice")))
    traffic.append(Datagram(src=BOB, dst=SFU, payload=video_packets(1, ssrc=9999)[0]))  # table miss
    return traffic


def assert_equivalent(per_packet_results, batch_results):
    assert len(per_packet_results) == len(batch_results)
    for reference, batched in zip(per_packet_results, batch_results):
        assert reference.parse == batched.parse
        assert reference.dropped_replicas == batched.dropped_replicas
        assert reference.forwarding_delay_s == batched.forwarding_delay_s
        assert len(reference.outputs) == len(batched.outputs)
        for expected, actual in zip(reference.outputs, batched.outputs):
            assert expected == actual
            assert expected.to_bytes() == actual.to_bytes()
            assert (expected.src, expected.dst) == (actual.src, actual.dst)
            assert expected.size == actual.size
            assert expected.kind == actual.kind
            assert expected.wire_size == actual.wire_size
            assert dict(expected.meta) == dict(actual.meta)
        assert [c.to_bytes() for c in reference.cpu_copies] == [c.to_bytes() for c in batched.cpu_copies]


class TestBatchEquivalence:
    @pytest.mark.parametrize("mode", [ForwardingMode.REPLICATE, ForwardingMode.REPLICATE_BY_LAYER, ForwardingMode.UNICAST])
    def test_outputs_byte_identical(self, mode):
        reference, _ = build_pipeline(mode=mode)
        batched, _ = build_pipeline(mode=mode)
        traffic = mixed_traffic()
        assert_equivalent([reference_process(reference, d) for d in traffic], batched.process_batch(traffic))
        assert dataclasses.asdict(reference.counters) == dataclasses.asdict(batched.counters)

    @pytest.mark.parametrize("rewriter_cls", [SequenceRewriterLowMemory, SequenceRewriterLowRetransmission])
    def test_equivalent_with_rate_adaptation(self, rewriter_cls):
        reference, _ = build_pipeline(with_adaptation=True, rewriter_cls=rewriter_cls)
        batched, _ = build_pipeline(with_adaptation=True, rewriter_cls=rewriter_cls)
        traffic = mixed_traffic(frames=40)
        assert_equivalent([reference_process(reference, d) for d in traffic], batched.process_batch(traffic))
        assert dataclasses.asdict(reference.counters) == dataclasses.asdict(batched.counters)
        assert reference.counters.adaptation_drops > 0  # the scenario exercises suppression

    def test_pre_counters_match(self):
        reference, _ = build_pipeline()
        batched, _ = build_pipeline()
        traffic = mixed_traffic()
        [reference_process(reference, d) for d in traffic]
        batched.process_batch(traffic)
        assert reference.pre.replications_performed == batched.pre.replications_performed
        assert reference.pre.copies_produced == batched.pre.copies_produced
        assert reference.parser.packets_parsed == batched.parser.packets_parsed
        assert reference.parser.cpu_punts == batched.parser.cpu_punts

    def test_batch_in_chunks_equals_one_batch(self):
        one_shot, _ = build_pipeline(with_adaptation=True)
        chunked, _ = build_pipeline(with_adaptation=True)
        traffic = mixed_traffic()
        whole = one_shot.process_batch(traffic)
        parts = []
        for start in range(0, len(traffic), 7):
            parts.extend(chunked.process_batch(traffic[start : start + 7]))
        assert_equivalent(whole, parts)
        # per-packet and batched accounting flow through one helper
        # (PipelineCounters._add), so chunking must not perturb any tally
        assert dataclasses.asdict(one_shot.counters) == dataclasses.asdict(chunked.counters)

    def test_replica_meta_is_immutable_view(self):
        batched, _ = build_pipeline()
        packet = video_packets(3)[-1]
        result = batched.process_batch([Datagram(src=ALICE, dst=SFU, payload=packet, meta={"tx_time": 1.0})])[0]
        assert len(result.outputs) == 2
        meta = result.outputs[0].meta
        assert meta["tx_time"] == 1.0
        with pytest.raises(TypeError):
            meta["tampered"] = True

    @pytest.mark.parametrize("ingress_meta", [{"tx_time": 1.0, "trunk_fwd_src": BOB}, {}])
    def test_replica_meta_equals_the_ingress_meta_key_for_key(self, ingress_meta):
        pipeline, _ = build_pipeline(with_adaptation=True)
        for packet in video_packets(6):
            datagram = Datagram(src=ALICE, dst=SFU, payload=packet, meta=dict(ingress_meta))
            for process in (pipeline.process, lambda d: pipeline.process_batch([d])[0]):
                outputs = process(datagram).outputs
                assert outputs
                for replica in outputs:
                    assert dict(replica.meta) == ingress_meta
                    with pytest.raises(TypeError):
                        replica.meta["origin"] = ALICE


class TestMintedDatagramFields:
    """The pipeline mints datagrams through ``Datagram.__new__`` plus a
    prepared field dict, and ``restamped`` copies one, so no ``__init__``
    checks the field set: every minted datagram and every restamped copy
    must hold exactly the dataclass's fields."""

    FIELDS = set(Datagram.__dataclass_fields__)

    @pytest.mark.parametrize("batched", [False, True], ids=["process", "process_batch"])
    def test_every_minted_datagram_holds_exactly_the_dataclass_fields(self, batched):
        pipeline, _ = build_pipeline()
        # two templates toward Bob: the others drop, later packets are rewritten
        pipeline.install_adaptation(
            VIDEO_SSRC, BOB, frozenset({0, 1}), SequenceRewriterLowRetransmission(SkipCadence(1, 2))
        )
        pipeline.install_feedback_rule(BOB, VIDEO_SSRC, FeedbackRule(sender=ALICE))
        media = [
            Datagram(src=ALICE, dst=SFU, payload=packet, arrived_at=0.5, meta={"tx_time": 0.5})
            for packet in video_packets(12)
        ]
        sender_reports = [
            Datagram(src=ALICE, dst=SFU, payload=(SenderReport(sender_ssrc=VIDEO_SSRC),)),
            Datagram(
                src=ALICE,
                dst=SFU,
                payload=(SenderReport(sender_ssrc=VIDEO_SSRC), SourceDescription(((VIDEO_SSRC, "alice"),))),
            ),
        ]
        feedback = [Datagram(src=BOB, dst=SFU, payload=(Nack(2002, VIDEO_SSRC, (5,)),))]
        minted = {}
        for kind, traffic in (("media", media), ("sr", sender_reports), ("feedback", feedback)):
            results = pipeline.process_batch(traffic) if batched else [pipeline.process(d) for d in traffic]
            for ingress, result in zip(traffic, results):
                for out in result.outputs:
                    rewritten = kind == "media" and out.payload is not ingress.payload
                    minted.setdefault("rewritten" if rewritten else kind, []).append(out)
        assert set(minted) == {"media", "rewritten", "sr", "feedback"}
        for outputs in minted.values():
            for out in outputs:
                assert set(vars(out)) == self.FIELDS
                assert set(vars(out.restamped(1.0))) == self.FIELDS


class TestBatchCacheInvalidation:
    def run_one(self, pipeline, packet):
        return pipeline.process_batch([Datagram(src=ALICE, dst=SFU, payload=packet)])[0]

    def test_replica_target_removal_reflected(self):
        pipeline, mgid = build_pipeline()
        packet = video_packets(3)[-1]
        assert {d.dst for d in self.run_one(pipeline, packet).outputs} == {BOB, CAROL}
        pipeline.remove_replica_target(mgid, 3)  # Carol's replica slot
        assert {d.dst for d in self.run_one(pipeline, packet).outputs} == {BOB}

    def test_direct_pre_mutation_reflected(self):
        pipeline, mgid = build_pipeline()
        packet = video_packets(3)[-1]
        assert len(self.run_one(pipeline, packet).outputs) == 2
        dave = Address("10.0.1.4", 6003)
        pipeline.pre.add_node(mgid, rid=4, ports=[L2Port(port=4, l2_xid=4)], l1_xid=1, prune_enabled=True)
        pipeline.install_replica_target(mgid, 4, ReplicaTarget(address=dave, participant_id="4"))
        assert dave in {d.dst for d in self.run_one(pipeline, packet).outputs}

    def test_stream_removal_reflected(self):
        pipeline, _ = build_pipeline()
        packet = video_packets(3)[-1]
        assert self.run_one(pipeline, packet).outputs
        pipeline.remove_stream((ALICE, VIDEO_SSRC))
        result = self.run_one(pipeline, packet)
        assert result.outputs == []
        assert pipeline.counters.table_misses >= 1

    def test_adaptation_install_reflected(self):
        pipeline, _ = build_pipeline()
        stream = video_packets(frames=16)
        pipeline.process_batch([Datagram(src=ALICE, dst=SFU, payload=p) for p in stream[:4]])
        pipeline.install_adaptation(
            VIDEO_SSRC, BOB, frozenset({0, 1, 2}), SequenceRewriterLowMemory(SkipCadence(1, 2))
        )
        results = pipeline.process_batch([Datagram(src=ALICE, dst=SFU, payload=p) for p in stream[4:]])
        assert any(r.dropped_replicas for r in results)  # Bob's top layer now suppressed

    def test_feedback_rules_unaffected_by_cache(self):
        # feedback is not cached; rules installed mid-stream apply immediately
        pipeline, _ = build_pipeline()
        remb = Datagram(src=BOB, dst=SFU, payload=(Remb(2002, 1e6, (VIDEO_SSRC,)),))
        assert pipeline.process_batch([remb])[0].outputs == []
        pipeline.install_feedback_rule(BOB, VIDEO_SSRC, FeedbackRule(sender=ALICE, forward_remb=True))
        assert [d.dst for d in pipeline.process_batch([remb])[0].outputs] == [ALICE]
