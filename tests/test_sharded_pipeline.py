"""Equivalence suite for the flow-sharded pipeline.

The contract: for ANY traffic and ANY control-plane churn,
``ShardedScallopPipeline(n_shards=k)`` must produce byte-identical
``PipelineResult`` streams, identical merged ``PipelineCounters``, identical
PRE/parser tallies, and identical ``ResourceAccountant.utilization()`` to the
single-datapath ``ScallopPipeline`` — for every k and for both execution
backends.  A property-style harness generates randomized meeting populations,
mixed traffic, and adaptation install/reinstall/remove churn from a seed and
replays the identical scenario against both engines.
"""

import dataclasses
import random

import pytest

from repro.core.seqrewrite import (
    SequenceRewriterLowMemory,
    SequenceRewriterLowRetransmission,
    SkipCadence,
)
from repro.dataplane.pipeline import (
    ForwardingMode,
    ReplicaTarget,
    ScallopPipeline,
    StreamForwardingEntry,
)
from repro.dataplane.pre import L2Port
from repro.dataplane.sharding import ShardedScallopPipeline, flow_shard
from repro.netsim.datagram import Address, Datagram
from repro.rtp.rtcp import Nack, Remb, SenderReport
from repro.stun.message import make_binding_request
from repro.webrtc.encoder import AudioSource, RtpPacketizer, SvcEncoder

from reference_datapath import reference_process

SFU = Address("10.0.0.1", 5000)


class MeetingScenario:
    """A deterministic multi-meeting scenario derived from one seed.

    ``configure`` installs the same meetings into any engine;
    ``churn_ops``/``traffic_chunks`` are plain data, so the identical op
    sequence can be replayed against the reference and the sharded engine
    (rewriters are constructed fresh per engine inside ``apply_op``).
    """

    def __init__(self, seed: int, num_meetings: int = 5):
        rng = random.Random(seed)
        self.meetings = []
        for meeting in range(num_meetings):
            participants = rng.randint(2, 5)
            addresses = [
                Address(f"10.{1 + meeting}.{rng.randint(0, 199)}.{index + 2}", 6000 + index)
                for index in range(participants)
            ]
            self.meetings.append(
                {
                    "id": f"meeting-{meeting}",
                    "addresses": addresses,
                    "video_ssrc": 10_000 + meeting * 10,
                    "audio_ssrc": 10_001 + meeting * 10,
                }
            )
        self.rng = rng

    def configure(self, pipeline):
        for meeting in self.meetings:
            mgid = pipeline.pre.create_tree()
            meeting["mgid"] = mgid
            for rid, address in enumerate(meeting["addresses"], start=1):
                pipeline.pre.add_node(
                    mgid, rid=rid, ports=[L2Port(port=rid, l2_xid=rid)], l1_xid=1, prune_enabled=True
                )
                pipeline.install_replica_target(
                    mgid, rid, ReplicaTarget(address=address, participant_id=f"{meeting['id']}-p{rid}")
                )
            sender = meeting["addresses"][0]
            entry = StreamForwardingEntry(
                mode=ForwardingMode.REPLICATE,
                meeting_id=meeting["id"],
                sender=sender,
                mgid=mgid,
                rid=1,
                l2_xid=1,
            )
            pipeline.install_stream((sender, meeting["video_ssrc"]), entry)
            pipeline.install_stream((sender, meeting["audio_ssrc"]), entry)
        return pipeline

    def traffic_chunk(self, seed: int, frames: int = 6):
        """Mixed media/control traffic for all meetings, deterministically
        interleaved: video, audio, sender RTCP, feedback, STUN, and junk."""
        rng = random.Random(seed)
        datagrams = []
        for meeting in self.meetings:
            sender = meeting["addresses"][0]
            encoder = SvcEncoder(target_bitrate_bps=900_000, seed=seed ^ meeting["video_ssrc"])
            packetizer = RtpPacketizer(ssrc=meeting["video_ssrc"], seed=seed ^ meeting["video_ssrc"])
            for index in range(frames):
                for packet in packetizer.packetize(encoder.next_frame(index / 30)):
                    datagrams.append(Datagram(src=sender, dst=SFU, payload=packet))
            audio = AudioSource(ssrc=meeting["audio_ssrc"], seed=seed)
            for index in range(frames // 2):
                datagrams.append(
                    Datagram(src=sender, dst=SFU, payload=audio.next_packet(index * 0.02))
                )
            datagrams.append(
                Datagram(src=sender, dst=SFU, payload=(SenderReport(sender_ssrc=meeting["video_ssrc"]),))
            )
            receiver = meeting["addresses"][-1]
            datagrams.append(
                Datagram(
                    src=receiver,
                    dst=SFU,
                    payload=(
                        Remb(2000, rng.uniform(3e5, 3e6), (meeting["video_ssrc"],)),
                        Nack(2000, meeting["video_ssrc"], (rng.randint(1, 50),)),
                    ),
                )
            )
            datagrams.append(
                Datagram(src=sender, dst=SFU, payload=make_binding_request(bytes(12), "prop"))
            )
            # junk flow: never installed, exercises table-miss caching
            stray = RtpPacketizer(ssrc=99_000 + meeting["mgid"], seed=seed)
            datagrams.append(
                Datagram(
                    src=receiver,
                    dst=SFU,
                    payload=stray.packetize(SvcEncoder(seed=seed).next_frame(0.0))[0],
                )
            )
        rng.shuffle(datagrams)
        return datagrams

    def churn_ops(self, seed: int):
        """A deterministic sequence of control-plane churn operations, each a
        (name, args) tuple interpreted by :func:`apply_op`."""
        rng = random.Random(seed)
        ops = []
        for meeting in self.meetings:
            receivers = meeting["addresses"][1:]
            target = rng.choice(receivers)
            variant = rng.choice(["lm", "lr"])
            templates = frozenset(rng.sample(range(6), rng.randint(1, 4)))
            ops.append(("install", meeting["video_ssrc"], target, templates, variant))
            if rng.random() < 0.5:
                ops.append(
                    (
                        "update",
                        meeting["video_ssrc"],
                        target,
                        frozenset(rng.sample(range(6), rng.randint(1, 4))),
                    )
                )
            if rng.random() < 0.4:
                ops.append(("remove", meeting["video_ssrc"], target))
            if rng.random() < 0.4:
                # reinstall with the other variant: swaps the register charge
                ops.append(
                    ("install", meeting["video_ssrc"], target, templates, "lr" if variant == "lm" else "lm")
                )
        return ops


def apply_op(pipeline, op):
    if op[0] == "install":
        _, ssrc, receiver, templates, variant = op
        rewriter_cls = SequenceRewriterLowMemory if variant == "lm" else SequenceRewriterLowRetransmission
        pipeline.install_adaptation(ssrc, receiver, templates, rewriter_cls(SkipCadence(1, 2)))
    elif op[0] == "update":
        _, ssrc, receiver, templates = op
        pipeline.update_adaptation_templates(ssrc, receiver, templates)
    elif op[0] == "remove":
        _, ssrc, receiver = op
        pipeline.remove_adaptation(ssrc, receiver)


def assert_results_identical(reference_results, sharded_results):
    assert len(reference_results) == len(sharded_results)
    for reference, sharded in zip(reference_results, sharded_results):
        assert reference.parse == sharded.parse
        assert reference.dropped_replicas == sharded.dropped_replicas
        assert reference.outputs == sharded.outputs
        for expected, actual in zip(reference.outputs, sharded.outputs):
            assert expected.to_bytes() == actual.to_bytes()
            assert dict(expected.meta) == dict(actual.meta)
        assert [c.to_bytes() for c in reference.cpu_copies] == [
            c.to_bytes() for c in sharded.cpu_copies
        ]


def assert_engines_agree(reference, sharded):
    assert dataclasses.asdict(reference.counters) == dataclasses.asdict(sharded.counters)
    assert reference.accountant.utilization() == sharded.accountant.utilization()
    assert reference.pre.replications_performed == sharded.pre.replications_performed
    assert reference.pre.copies_produced == sharded.pre.copies_produced
    assert reference.parser.packets_parsed == sharded.parser.packets_parsed
    assert reference.parser.cpu_punts == sharded.parser.cpu_punts


def run_scenario(n_shards: int, seed: int, executor: str = "serial"):
    """Replay one randomized scenario through both engines, interleaving
    traffic chunks with adaptation churn, comparing after every chunk."""
    scenario_a = MeetingScenario(seed)
    scenario_b = MeetingScenario(seed)
    reference = scenario_a.configure(ScallopPipeline(SFU))
    sharded = scenario_b.configure(
        ShardedScallopPipeline(SFU, n_shards=n_shards, executor=executor)
    )
    try:
        for phase in range(3):
            for op in scenario_a.churn_ops(seed * 101 + phase):
                apply_op(reference, op)
                apply_op(sharded, op)
            chunk = scenario_a.traffic_chunk(seed * 31 + phase)
            chunk_b = scenario_b.traffic_chunk(seed * 31 + phase)
            assert [d.to_bytes() for d in chunk] == [d.to_bytes() for d in chunk_b]
            reference_results = [reference_process(reference, d) for d in chunk]
            sharded_results = sharded.process_batch(chunk_b)
            assert_results_identical(reference_results, sharded_results)
        assert_engines_agree(reference, sharded)
        assert reference.counters.adaptation_drops > 0  # churn actually suppressed packets
    finally:
        sharded.close()
    return reference, sharded


class TestShardedEquivalenceProperty:
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
    @pytest.mark.parametrize("seed", [7, 19])
    def test_random_traffic_with_churn(self, n_shards, seed):
        run_scenario(n_shards, seed)

    def test_chunked_vs_whole_batch(self):
        scenario_a, scenario_b = MeetingScenario(5), MeetingScenario(5)
        whole = scenario_a.configure(ShardedScallopPipeline(SFU, n_shards=4))
        chunked = scenario_b.configure(ShardedScallopPipeline(SFU, n_shards=4))
        traffic = scenario_a.traffic_chunk(42)
        whole_results = whole.process_batch(traffic)
        chunked_results = []
        for start in range(0, len(traffic), 11):
            chunked_results.extend(chunked.process_batch(traffic[start : start + 11]))
        assert_results_identical(whole_results, chunked_results)
        assert dataclasses.asdict(whole.counters) == dataclasses.asdict(chunked.counters)

    def test_flow_partitioning_is_deterministic_and_total(self):
        addresses = [Address(f"10.0.{i}.{j}", 6000 + j) for i in range(4) for j in range(4)]
        for n_shards in (1, 2, 4, 8):
            for address in addresses:
                for ssrc in (1, 77, 10_000):
                    shard = flow_shard(address, ssrc, n_shards)
                    assert 0 <= shard < n_shards
                    assert shard == flow_shard(address, ssrc, n_shards)


class TestShardResourceAttribution:
    def test_per_shard_charges_sum_to_ledger(self):
        scenario = MeetingScenario(3)
        sharded = scenario.configure(ShardedScallopPipeline(SFU, n_shards=4))
        for op in scenario.churn_ops(99):
            apply_op(sharded, op)
        attributed = sum(a.stream_tracker_cells_used for a in sharded.shard_accountants)
        assert attributed == sharded.accountant.stream_tracker_cells_used
        assert attributed > 0

    def test_charges_release_cleanly_per_shard(self):
        scenario = MeetingScenario(3)
        sharded = scenario.configure(ShardedScallopPipeline(SFU, n_shards=4))
        installed = []
        for meeting in scenario.meetings:
            receiver = meeting["addresses"][1]
            sharded.install_adaptation(
                meeting["video_ssrc"], receiver, frozenset({0, 1}),
                SequenceRewriterLowRetransmission(SkipCadence(1, 2)),
            )
            installed.append((meeting["video_ssrc"], receiver))
        for ssrc, receiver in installed:
            sharded.remove_adaptation(ssrc, receiver)
        assert sharded.accountant.stream_tracker_cells_used == 0
        assert all(a.stream_tracker_cells_used == 0 for a in sharded.shard_accountants)

    def test_attribution_follows_flow_owner(self):
        scenario = MeetingScenario(3)
        sharded = scenario.configure(ShardedScallopPipeline(SFU, n_shards=4))
        meeting = scenario.meetings[0]
        sender, receiver = meeting["addresses"][0], meeting["addresses"][1]
        sharded.install_adaptation(
            meeting["video_ssrc"], receiver, frozenset({0}),
            SequenceRewriterLowMemory(SkipCadence(1, 2)),
        )
        owner = sharded.shard_for_flow(sender, meeting["video_ssrc"])
        assert sharded.shard_accountants[owner].stream_tracker_cells_used == 3
        assert sharded.shard_utilization()[owner]["stream_tracker_cells"] > 0


class TestShardedSfuEndToEnd:
    """The netsim ingest path routes bursts through the sharded engine; a
    sharded SFU must be indistinguishable from the reference SFU."""

    @staticmethod
    def run_testbed(n_shards):
        from repro.experiments import MeetingSetupConfig, build_scallop_testbed

        config = MeetingSetupConfig(
            num_meetings=3, participants_per_meeting=3, frame_bursts=True, n_shards=n_shards, seed=2
        )
        testbed = build_scallop_testbed(config)
        testbed.run_for(3.0)
        return testbed

    def test_sharded_sfu_simulation_identical_to_reference(self):
        reference = self.run_testbed(n_shards=1)
        sharded = self.run_testbed(n_shards=4)
        assert isinstance(sharded.sfu.pipeline, ShardedScallopPipeline)
        # byte-identical dataplane => the whole simulation unfolds identically
        assert dataclasses.asdict(sharded.sfu.stats) == dataclasses.asdict(reference.sfu.stats)
        assert dataclasses.asdict(sharded.sfu.pipeline.counters) == dataclasses.asdict(
            reference.sfu.pipeline.counters
        )
        for ref_client, sh_client in zip(reference.clients, sharded.clients):
            assert sh_client.packets_sent == ref_client.packets_sent
            for ssrc, stream in ref_client.video_receivers.items():
                assert sh_client.video_receivers[ssrc].frames_decoded == stream.frames_decoded

    def test_sharded_sfu_serves_media(self):
        testbed = self.run_testbed(n_shards=4)
        sfu = testbed.sfu
        assert sfu.stats.packets_out > 0
        assert sfu.data_plane_fraction()["packets"] > 0.8
        for client in testbed.clients:
            assert client.video_receivers, "every participant receives video"
        # traffic actually spread across shards
        busy = [shard for shard in sfu.pipeline.shards if shard.counters.data_plane_packets > 0]
        assert len(busy) >= 2
        testbed.close()  # releases pipeline backend resources via ScallopSfu.close


class TestProcessBackend:
    """The process-pool escape hatch must preserve the exact same contract
    (state ships to workers on control writes, rewriter state ships back)."""

    def test_random_traffic_with_churn_across_processes(self):
        run_scenario(2, seed=11, executor="process")

    def test_single_packet_process_shares_worker_state(self):
        # process() must route through the workers: rewriting a packet on
        # the coordinator would fork the sequence-rewriter state silently
        scenario_a, scenario_b = MeetingScenario(17, num_meetings=1), MeetingScenario(17, num_meetings=1)
        reference = scenario_a.configure(ScallopPipeline(SFU))
        sharded = scenario_b.configure(ShardedScallopPipeline(SFU, n_shards=2, executor="process"))
        try:
            for engine, scenario in ((reference, scenario_a), (sharded, scenario_b)):
                meeting = scenario.meetings[0]
                engine.install_adaptation(
                    meeting["video_ssrc"],
                    meeting["addresses"][1],
                    frozenset({0, 1}),
                    SequenceRewriterLowRetransmission(SkipCadence(1, 2)),
                )
            traffic_a = scenario_a.traffic_chunk(3, frames=4)
            traffic_b = scenario_b.traffic_chunk(3, frames=4)
            # interleave single-packet and batched processing
            reference_results = [reference_process(reference, d) for d in traffic_a]
            sharded_results = [sharded.process(d) for d in traffic_b[:5]]
            sharded_results += sharded.process_batch(traffic_b[5:])
            assert_results_identical(reference_results, sharded_results)
        finally:
            sharded.close()

    def test_rewriter_state_survives_control_resync(self):
        # adaptation state mutated in a worker, then a control-plane write
        # forces a resync: the re-shipped snapshot must carry the mutated
        # rewriter, not a stale one (sequence spaces would fork otherwise)
        scenario_a, scenario_b = MeetingScenario(13, num_meetings=2), MeetingScenario(13, num_meetings=2)
        reference = scenario_a.configure(ScallopPipeline(SFU))
        sharded = scenario_b.configure(ShardedScallopPipeline(SFU, n_shards=2, executor="process"))
        try:
            meeting = scenario_a.meetings[0]
            receiver = meeting["addresses"][1]
            for engine, scenario in ((reference, scenario_a), (sharded, scenario_b)):
                engine.install_adaptation(
                    scenario.meetings[0]["video_ssrc"],
                    scenario.meetings[0]["addresses"][1],
                    frozenset({0, 1}),
                    SequenceRewriterLowRetransmission(SkipCadence(1, 2)),
                )
            first = scenario_a.traffic_chunk(1)
            assert_results_identical(
                [reference_process(reference, d) for d in first],
                sharded.process_batch(scenario_b.traffic_chunk(1)),
            )
            # unrelated control write in meeting 1 -> full worker resync
            for engine, scenario in ((reference, scenario_a), (sharded, scenario_b)):
                engine.install_adaptation(
                    scenario.meetings[1]["video_ssrc"],
                    scenario.meetings[1]["addresses"][1],
                    frozenset({0}),
                    SequenceRewriterLowMemory(SkipCadence(1, 2)),
                )
            second = scenario_a.traffic_chunk(2)
            assert_results_identical(
                [reference_process(reference, d) for d in second],
                sharded.process_batch(scenario_b.traffic_chunk(2)),
            )
            assert_engines_agree(reference, sharded)
        finally:
            sharded.close()
