"""Tests for shard-aware control-plane write batching (``batched_writes``).

The contract: inside the context every write is immediately visible to
control-plane reads and to every shard's reads of the one rewriter register
file, but each touched table/PRE bumps its write generation exactly once at
exit — and none of this changes a single observable datapath byte.
"""

import dataclasses

from repro.core.replication import ParticipantEndpoint
from repro.core.seqrewrite import SequenceRewriterLowMemory, SequenceRewriterLowRetransmission, SkipCadence
from repro.core.switch_agent import SwitchAgent
from repro.dataplane.pipeline import (
    ForwardingMode,
    ReplicaTarget,
    ScallopPipeline,
    StreamForwardingEntry,
)
from repro.dataplane.pre import L2Port
from repro.dataplane.sharding import ShardedScallopPipeline
from repro.netsim.datagram import Address, Datagram
from repro.webrtc.encoder import RtpPacketizer, SvcEncoder

SFU = Address("10.0.0.1", 5000)


def _install_meeting(pipeline, meeting=0, participants=4):
    mgid = pipeline.pre.create_tree()
    addresses = [Address(f"10.3.{meeting}.{i + 2}", 6000 + i) for i in range(participants)]
    for rid, address in enumerate(addresses, start=1):
        pipeline.pre.add_node(mgid, rid=rid, ports=[L2Port(port=rid, l2_xid=rid)], l1_xid=1, prune_enabled=True)
        pipeline.install_replica_target(mgid, rid, ReplicaTarget(address=address, participant_id=f"p{rid}"))
    ssrc = 7_000 + meeting
    pipeline.install_stream(
        (addresses[0], ssrc),
        StreamForwardingEntry(
            mode=ForwardingMode.REPLICATE, meeting_id=f"m{meeting}", sender=addresses[0],
            mgid=mgid, rid=1, l2_xid=1,
        ),
    )
    return addresses, ssrc


class TestBatchedWrites:
    def test_generations_bump_once_per_batch(self):
        pipeline = ScallopPipeline(SFU)
        versions_before = {
            "stream": pipeline.stream_table.version,
            "replica": pipeline.replica_table.version,
            "adaptation": pipeline.adaptation_table.version,
            "pre": pipeline.pre.generation,
        }
        with pipeline.batched_writes():
            addresses, ssrc = _install_meeting(pipeline)
            pipeline.install_adaptation(
                ssrc, addresses[1], frozenset({0, 1}), SequenceRewriterLowMemory(SkipCadence(1, 2))
            )
            pipeline.install_adaptation(
                ssrc, addresses[2], frozenset({0}), SequenceRewriterLowRetransmission(SkipCadence(3, 4))
            )
            # writes are visible inside the batch...
            assert pipeline.stream_table.peek((addresses[0], ssrc)) is not None
            # ...but no generation has moved yet
            assert pipeline.stream_table.version == versions_before["stream"]
            assert pipeline.pre.generation == versions_before["pre"]
        assert pipeline.stream_table.version == versions_before["stream"] + 1
        assert pipeline.replica_table.version == versions_before["replica"] + 1
        assert pipeline.adaptation_table.version == versions_before["adaptation"] + 1
        assert pipeline.pre.generation == versions_before["pre"] + 1

    def test_untouched_tables_do_not_bump(self):
        pipeline = ScallopPipeline(SFU)
        feedback_before = pipeline.feedback_table.version
        with pipeline.batched_writes():
            _install_meeting(pipeline)
        assert pipeline.feedback_table.version == feedback_before

    def test_nested_batches_commit_at_outermost_exit(self):
        pipeline = ScallopPipeline(SFU)
        before = pipeline.stream_table.version
        with pipeline.batched_writes():
            with pipeline.install_many():
                _install_meeting(pipeline, meeting=0)
            # still inside the outer batch: no bump
            assert pipeline.stream_table.version == before
            _install_meeting(pipeline, meeting=1)
        assert pipeline.stream_table.version == before + 1

    def test_exception_still_commits_pending_bumps(self):
        pipeline = ScallopPipeline(SFU)
        before = pipeline.stream_table.version
        try:
            with pipeline.batched_writes():
                _install_meeting(pipeline)
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        # the writes happened, so their (single) generation bump must land:
        # caches over the mutated tables would otherwise go stale forever
        assert pipeline.stream_table.version == before + 1

    def test_shards_read_the_one_register_file(self):
        engine = ShardedScallopPipeline(SFU, n_shards=4)
        with engine.batched_writes():
            addresses, ssrc = _install_meeting(engine)
            rewriter = SequenceRewriterLowRetransmission(SkipCadence(1, 2))
            index = engine.install_adaptation(ssrc, addresses[1], frozenset({0, 1}), rewriter)
            # the register is current inside the batch, for every shard
            assert engine.stream_trackers.peek(index) is rewriter
            for shard in engine.shards:
                assert shard.trackers.read(index) is rewriter
        engine.remove_adaptation(ssrc, addresses[1])
        for shard in engine.shards:
            assert shard.trackers.read(index) is None

    def test_batched_setup_is_datapath_equivalent(self):
        plain = ScallopPipeline(SFU)
        batched = ScallopPipeline(SFU)
        addresses_a, ssrc_a = _install_meeting(plain)
        plain.install_adaptation(
            ssrc_a, addresses_a[1], frozenset({0, 1}), SequenceRewriterLowMemory(SkipCadence(1, 2))
        )
        with batched.batched_writes():
            addresses_b, ssrc_b = _install_meeting(batched)
            batched.install_adaptation(
                ssrc_b, addresses_b[1], frozenset({0, 1}), SequenceRewriterLowMemory(SkipCadence(1, 2))
            )

        encoder_args = dict(target_bitrate_bps=900_000, seed=11)
        traffic_a, traffic_b = [], []
        for target, traffic, ssrc, addresses in (
            (plain, traffic_a, ssrc_a, addresses_a),
            (batched, traffic_b, ssrc_b, addresses_b),
        ):
            encoder = SvcEncoder(**encoder_args)
            packetizer = RtpPacketizer(ssrc=ssrc, seed=11)
            for index in range(8):
                for packet in packetizer.packetize(encoder.next_frame(index / 30)):
                    traffic.append(Datagram(src=addresses[0], dst=SFU, payload=packet))
        results_a = plain.process_batch(traffic_a)
        results_b = batched.process_batch(traffic_b)
        assert [len(r.outputs) for r in results_a] == [len(r.outputs) for r in results_b]
        for result_a, result_b in zip(results_a, results_b):
            assert [o.to_bytes() for o in result_a.outputs] == [o.to_bytes() for o in result_b.outputs]
        assert dataclasses.asdict(plain.counters) == dataclasses.asdict(batched.counters)

    def test_cache_invalidation_after_batch(self):
        pipeline = ScallopPipeline(SFU)
        addresses, ssrc = _install_meeting(pipeline)
        packet = RtpPacketizer(ssrc=ssrc, seed=2).packetize(SvcEncoder(seed=2).next_frame(0.0))[0]
        first = pipeline.process_batch([Datagram(src=addresses[0], dst=SFU, payload=packet)])[0]
        assert len(first.outputs) == len(addresses) - 1
        with pipeline.batched_writes():
            # retarget one replica to a new receiver mid-run
            new_receiver = Address("10.3.99.2", 6099)
            pipeline.install_replica_target(
                pipeline.stream_table.peek((addresses[0], ssrc)).mgid,
                2,
                ReplicaTarget(address=new_receiver, participant_id="late"),
            )
        second = pipeline.process_batch([Datagram(src=addresses[0], dst=SFU, payload=packet)])[0]
        assert new_receiver in [o.dst for o in second.outputs]


class TestAgentBatchedJoins:
    def test_meeting_join_bumps_generations_once(self):
        pipeline = ScallopPipeline(SFU)
        agent = SwitchAgent(pipeline)
        participants = [
            ParticipantEndpoint(
                participant_id=f"p{i}",
                address=Address(f"10.4.0.{i + 2}", 6000 + i),
                egress_port=i + 1,
                audio_ssrc=100 + i,
                video_ssrc=200 + i,
            )
            for i in range(5)
        ]
        stream_v0 = pipeline.stream_table.version
        pre_g0 = pipeline.pre.generation
        agent.configure_meeting("meeting-x", participants)
        # a 5-party join installs dozens of entries; the datapath sees ONE
        # stream-table generation and ONE PRE generation
        assert pipeline.stream_table.version == stream_v0 + 1
        assert pipeline.pre.generation == pre_g0 + 1
        assert len(pipeline.stream_table) >= 10  # audio+video per sender

    def test_join_and_leave_batched(self):
        pipeline = ScallopPipeline(SFU)
        agent = SwitchAgent(pipeline)
        base = [
            ParticipantEndpoint(
                participant_id=f"p{i}",
                address=Address(f"10.4.1.{i + 2}", 6000 + i),
                egress_port=i + 1,
                audio_ssrc=300 + i,
                video_ssrc=400 + i,
            )
            for i in range(3)
        ]
        agent.configure_meeting("meeting-y", base)
        v_joined = pipeline.stream_table.version
        late = ParticipantEndpoint(
            participant_id="late",
            address=Address("10.4.1.99", 6099),
            egress_port=9,
            audio_ssrc=390,
            video_ssrc=490,
        )
        agent.configure_meeting("meeting-y", base + [late])
        assert pipeline.stream_table.version == v_joined + 1
        agent.configure_meeting("meeting-y", base)
        assert pipeline.stream_table.version == v_joined + 2
