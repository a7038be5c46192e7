"""Equivalence suite for the flow-sharded pipeline.

The contract: for ANY traffic and ANY control-plane churn,
``ShardedScallopPipeline(n_shards=k)`` must produce byte-identical
``PipelineResult`` streams, identical merged ``PipelineCounters``, identical
PRE/parser tallies, and identical ``ResourceAccountant.utilization()`` to the
single-datapath ``ScallopPipeline`` — for every k.  A property-style harness generates randomized meeting populations,
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
    PipelineCounters,
    ReplicaTarget,
    ScallopPipeline,
    StreamForwardingEntry,
)
from repro.dataplane.pre import L2Port
from repro.dataplane.sharding import ShardedScallopPipeline, flow_shard
from repro.netsim.datagram import Address, Datagram
from repro.rtp.packet import RtpPacket
from repro.rtp.rtcp import Nack, Remb, SenderReport
from repro.scenario import BackendSpec, Scenario, TrafficSpec, build_scenario
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


def run_scenario(n_shards: int, seed: int):
    """Replay one randomized scenario through both engines, interleaving
    traffic chunks with adaptation churn, comparing after every chunk."""
    scenario_a = MeetingScenario(seed)
    scenario_b = MeetingScenario(seed)
    reference = scenario_a.configure(ScallopPipeline(SFU))
    sharded = scenario_b.configure(
        ShardedScallopPipeline(SFU, n_shards=n_shards)
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
    @pytest.mark.parametrize("seed", [7, 19, 31, 43])
    def test_random_traffic_with_churn(self, n_shards, seed):
        run_scenario(n_shards, seed)

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_burst_size_is_invisible_to_results(self, chunk):
        # any split of the ingress stream into bursts yields the reference
        # per-packet results, with adaptation state live across bursts
        scenario_a, scenario_b = MeetingScenario(23), MeetingScenario(23)
        reference = scenario_a.configure(ScallopPipeline(SFU))
        sharded = scenario_b.configure(ShardedScallopPipeline(SFU, n_shards=4))
        for op in scenario_a.churn_ops(5):
            apply_op(reference, op)
            apply_op(sharded, op)
        traffic_a = scenario_a.traffic_chunk(8)
        traffic_b = scenario_b.traffic_chunk(8)
        reference_results = [reference_process(reference, d) for d in traffic_a]
        sharded_results = []
        for start in range(0, len(traffic_b), chunk):
            sharded_results.extend(sharded.process_batch(traffic_b[start : start + chunk]))
        assert_results_identical(reference_results, sharded_results)
        assert_engines_agree(reference, sharded)

    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_empty_batch_is_a_no_op(self, n_shards):
        sharded = ShardedScallopPipeline(SFU, n_shards=n_shards)
        assert sharded.process_batch([]) == []
        assert dataclasses.asdict(sharded.counters) == dataclasses.asdict(PipelineCounters())

    @pytest.mark.parametrize("n_shards", [0, -1])
    def test_shard_count_must_be_positive(self, n_shards):
        with pytest.raises(ValueError, match="n_shards"):
            ShardedScallopPipeline(SFU, n_shards=n_shards)

    def test_flow_partitioning_is_pinned_across_runs(self):
        # CRC32 of "ip:port/ssrc", not Python's salted hash: these values
        # must never change between interpreters or releases
        expected = {
            (Address("10.0.0.2", 6000), 1): (1, 3, 7),
            (Address("10.0.0.2", 6000), -1): (1, 3, 3),
            (Address("10.1.7.3", 6001), 10_000): (0, 0, 4),
            (Address("192.168.1.9", 5004), 2**32 - 1): (0, 0, 4),
        }
        for (src, ssrc), shards in expected.items():
            assert tuple(flow_shard(src, ssrc, k) for k in (2, 4, 8)) == shards

    def test_flow_partitioning_spreads_flows_over_every_shard(self):
        rng = random.Random(11)
        flows = [
            (
                Address(f"10.{rng.randrange(8)}.{rng.randrange(200)}.{rng.randrange(1, 250)}", 6000 + rng.randrange(64)),
                rng.randrange(2**32),
            )
            for _ in range(512)
        ]
        for n_shards in (2, 4, 8):
            load = [0] * n_shards
            for src, ssrc in flows:
                load[flow_shard(src, ssrc, n_shards)] += 1
            # no shard starves: each gets at least half its fair share
            assert min(load) >= len(flows) / n_shards / 2

    @pytest.mark.parametrize("n_shards", [2, 4, 8])
    def test_each_flow_is_processed_by_its_owner_shard_only(self, n_shards):
        scenario = MeetingScenario(29, num_meetings=1)
        sharded = scenario.configure(ShardedScallopPipeline(SFU, n_shards=n_shards))
        meeting = scenario.meetings[0]
        sender, ssrc = meeting["addresses"][0], meeting["video_ssrc"]
        traffic = scenario.traffic_chunk(4)
        video = [
            d for d in traffic if isinstance(d.payload, RtpPacket) and d.payload.ssrc == ssrc
        ]
        control = [
            d for d in traffic if d.src == sender and not isinstance(d.payload, RtpPacket)
        ]
        assert video and control
        sharded.process_batch(video)
        busy = {s.shard_id for s in sharded.shards if s.parser.packets_parsed}
        assert busy == {flow_shard(sender, ssrc, n_shards)}
        # a sender's non-RTP traffic (RTCP, STUN) partitions by source alone
        before = [s.parser.packets_parsed for s in sharded.shards]
        sharded.process_batch(control)
        grew = {
            s.shard_id for s, count in zip(sharded.shards, before) if s.parser.packets_parsed > count
        }
        assert grew == {flow_shard(sender, -1, n_shards)}

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


class TestShardResourceLedger:
    def test_charges_release_cleanly(self):
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

    def test_second_remove_releases_nothing(self):
        scenario = MeetingScenario(3)
        sharded = scenario.configure(ShardedScallopPipeline(SFU, n_shards=4))
        meeting = scenario.meetings[0]
        receiver = meeting["addresses"][1]
        sharded.install_adaptation(
            meeting["video_ssrc"], receiver, frozenset({0}),
            SequenceRewriterLowRetransmission(SkipCadence(1, 2)),
        )
        assert sharded.accountant.stream_tracker_cells_used == 6
        sharded.remove_adaptation(meeting["video_ssrc"], receiver)
        # a strict ledger would raise on a double release
        sharded.remove_adaptation(meeting["video_ssrc"], receiver)
        assert sharded.accountant.stream_tracker_cells_used == 0

    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_churn_then_teardown_returns_the_ledger_to_zero(self, n_shards):
        scenario = MeetingScenario(99)
        sharded = scenario.configure(ShardedScallopPipeline(SFU, n_shards=n_shards))
        for op in scenario.churn_ops(99):
            apply_op(sharded, op)
        assert sharded.accountant.stream_tracker_cells_used > 0
        for meeting in scenario.meetings:
            for receiver in meeting["addresses"][1:]:
                sharded.remove_adaptation(meeting["video_ssrc"], receiver)
            sharded.pre.destroy_tree(meeting["mgid"])
        accountant = sharded.accountant
        assert accountant.stream_tracker_cells_used == 0
        assert (accountant.trees_allocated, accountant.l1_nodes_allocated) == (0, 0)


class TestShardedSfuEndToEnd:
    """The netsim ingest path routes bursts through the sharded engine; a
    sharded SFU must be indistinguishable from the reference SFU."""

    @staticmethod
    def run_testbed(n_shards):
        scenario = Scenario.uniform(
            num_meetings=3,
            participants_per_meeting=3,
            backend=BackendSpec(n_shards=n_shards),
            traffic=TrafficSpec(frame_bursts=True),
            seed=2,
        )
        testbed = build_scenario(scenario)
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


class TestShardAggregates:
    """The engine-level read surface is a fold over the shards."""

    @staticmethod
    def churned_pair(n_shards=4, seed=37):
        scenario_a, scenario_b = MeetingScenario(seed), MeetingScenario(seed)
        reference = scenario_a.configure(ScallopPipeline(SFU))
        sharded = scenario_b.configure(ShardedScallopPipeline(SFU, n_shards=n_shards))
        for op in scenario_a.churn_ops(seed):
            apply_op(reference, op)
            apply_op(sharded, op)
        for datagram in scenario_a.traffic_chunk(seed):
            reference_process(reference, datagram)
        sharded.process_batch(scenario_b.traffic_chunk(seed))
        return reference, sharded

    def test_parser_stats_sum_over_shards(self):
        reference, sharded = self.churned_pair()
        stats = sharded.parser_stats()
        assert stats == sharded.parser
        assert stats.packets_parsed == sum(s.parser.packets_parsed for s in sharded.shards)
        assert stats.packets_parsed == reference.parser.packets_parsed
        assert stats.cpu_punts == reference.parser.cpu_punts
        assert stats.parse_cache_hits == sum(s.parser.parse_cache_hits for s in sharded.shards)

    def test_shard_load_rows_partition_the_merged_counters(self):
        _reference, sharded = self.churned_pair()
        rows = sharded.shard_load()
        assert [row["shard"] for row in rows] == list(range(sharded.n_shards))
        merged = sharded.counters
        for key in ("data_plane_packets", "cpu_packets", "replicas_out"):
            assert sum(row[key] for row in rows) == getattr(merged, key)

    def test_merged_obs_is_none_unless_armed(self):
        assert ShardedScallopPipeline(SFU, n_shards=2).merged_obs() is None
        armed = ShardedScallopPipeline(SFU, n_shards=2, obs=True)
        assert armed.merged_obs() is not None


class TestSerialShardState:
    """Shards keep their state in-process between calls: single-packet
    ``process`` and ``process_batch`` share it, and control-plane writes in
    between never fork a flow's sequence-rewriter state."""

    def test_single_packet_and_batch_share_shard_state(self):
        scenario_a, scenario_b = MeetingScenario(17, num_meetings=1), MeetingScenario(17, num_meetings=1)
        reference = scenario_a.configure(ScallopPipeline(SFU))
        sharded = scenario_b.configure(ShardedScallopPipeline(SFU, n_shards=2))
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

    def test_rewriter_state_survives_control_write(self):
        scenario_a, scenario_b = MeetingScenario(13, num_meetings=2), MeetingScenario(13, num_meetings=2)
        reference = scenario_a.configure(ScallopPipeline(SFU))
        sharded = scenario_b.configure(ShardedScallopPipeline(SFU, n_shards=2))
        for engine, scenario in ((reference, scenario_a), (sharded, scenario_b)):
            engine.install_adaptation(
                scenario.meetings[0]["video_ssrc"],
                scenario.meetings[0]["addresses"][1],
                frozenset({0, 1}),
                SequenceRewriterLowRetransmission(SkipCadence(1, 2)),
            )
        assert_results_identical(
            [reference_process(reference, d) for d in scenario_a.traffic_chunk(1)],
            sharded.process_batch(scenario_b.traffic_chunk(1)),
        )
        # unrelated control write in meeting 1 invalidates every shard's caches
        for engine, scenario in ((reference, scenario_a), (sharded, scenario_b)):
            engine.install_adaptation(
                scenario.meetings[1]["video_ssrc"],
                scenario.meetings[1]["addresses"][1],
                frozenset({0}),
                SequenceRewriterLowMemory(SkipCadence(1, 2)),
            )
        assert_results_identical(
            [reference_process(reference, d) for d in scenario_a.traffic_chunk(2)],
            sharded.process_batch(scenario_b.traffic_chunk(2)),
        )
        assert_engines_agree(reference, sharded)

    @pytest.mark.parametrize("n_shards", [1, 4, 8])
    def test_single_packet_path_matches_reference(self, n_shards):
        scenario_a, scenario_b = MeetingScenario(41, num_meetings=3), MeetingScenario(41, num_meetings=3)
        reference = scenario_a.configure(ScallopPipeline(SFU))
        sharded = scenario_b.configure(ShardedScallopPipeline(SFU, n_shards=n_shards))
        for op in scenario_a.churn_ops(41):
            apply_op(reference, op)
            apply_op(sharded, op)
        assert_results_identical(
            [reference_process(reference, d) for d in scenario_a.traffic_chunk(6)],
            [sharded.process(d) for d in scenario_b.traffic_chunk(6)],
        )
        assert_engines_agree(reference, sharded)

    def test_live_migration_mid_stream_matches_reference(self):
        # moving a flow between shards moves no rewriter state: every shard
        # reads the control plane's one register file
        scenario_a, scenario_b = MeetingScenario(13, num_meetings=2), MeetingScenario(13, num_meetings=2)
        reference = scenario_a.configure(ScallopPipeline(SFU))
        sharded = scenario_b.configure(ShardedScallopPipeline(SFU, n_shards=2))
        for engine, scenario in ((reference, scenario_a), (sharded, scenario_b)):
            meeting = scenario.meetings[0]
            engine.install_adaptation(
                meeting["video_ssrc"],
                meeting["addresses"][1],
                frozenset({0, 1}),
                SequenceRewriterLowRetransmission(SkipCadence(1, 2)),
            )
        assert_results_identical(
            [reference_process(reference, d) for d in scenario_a.traffic_chunk(1)],
            sharded.process_batch(scenario_b.traffic_chunk(1)),
        )
        meeting = scenario_b.meetings[0]
        sender, ssrc = meeting["addresses"][0], meeting["video_ssrc"]
        assert sharded.migrate_flow(sender, ssrc, 1 - sharded.shard_for_flow(sender, ssrc))
        assert_results_identical(
            [reference_process(reference, d) for d in scenario_a.traffic_chunk(2)],
            sharded.process_batch(scenario_b.traffic_chunk(2)),
        )
        assert_engines_agree(reference, sharded)

    def test_close_is_idempotent_and_engine_is_a_context_manager(self):
        scenario = MeetingScenario(3, num_meetings=1)
        with scenario.configure(ShardedScallopPipeline(SFU, n_shards=4)) as sharded:
            assert isinstance(sharded, ShardedScallopPipeline)
            assert sharded.process_batch(scenario.traffic_chunk(1))
        sharded.close()
        sharded.close()
