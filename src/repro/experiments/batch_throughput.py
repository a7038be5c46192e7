"""Batched vs. per-packet data-plane throughput across concurrent meetings.

:meth:`~repro.dataplane.pipeline.ScallopPipeline.process` and
:meth:`~repro.dataplane.pipeline.ScallopPipeline.process_batch` run media on
one memoized implementation with byte-identical outputs; what a batch still
amortizes is the per-call overhead (one cache-stamp check and one accounting
fold per burst instead of per packet).  This module measures that remainder:
it configures N concurrent meetings on one pipeline, replays identical AV1
ingress through both entry points, and reports packets/second for each.

Timing hygiene: the replica datagrams allocated per run are enough to trigger
generational GC pauses mid-measurement, so collection is deferred while the
clock runs and both paths take the best of ``repeats`` passes.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..dataplane.pipeline import (
    ForwardingMode,
    PipelineCounters,
    ReplicaTarget,
    ScallopPipeline,
    StreamForwardingEntry,
)
from ..dataplane.pre import L2Port
from ..dataplane.rebalance import RebalancerConfig
from ..dataplane.sharding import ShardedScallopPipeline, flow_shard
from ..netsim.datagram import Address, Datagram
from ..rtp.wire import PacketView
from ..webrtc.encoder import RtpPacketizer, SvcEncoder

SFU_ADDRESS = Address("10.0.0.1", 5000)

@dataclass(frozen=True)
class BatchThroughputPoint:
    """One sweep point: N meetings, throughput of both entry points."""

    num_meetings: int
    num_packets: int
    per_packet_pps: float
    batched_pps: float

    @property
    def speedup(self) -> float:
        return self.batched_pps / self.per_packet_pps


def build_meeting_pipeline(
    num_meetings: int, participants: int = 8, pipeline=None
) -> Tuple[ScallopPipeline, List[Tuple[Address, int]]]:
    """A pipeline with ``num_meetings`` replicated meetings, one active video
    sender each (the campus trace's typical meeting shape); returns the
    pipeline and the (sender address, ssrc) pairs.  Pass ``pipeline`` to
    configure a pre-built engine (e.g. a sharded one) instead of a fresh
    :class:`ScallopPipeline`."""
    if pipeline is None:
        pipeline = ScallopPipeline(SFU_ADDRESS)
    senders: List[Tuple[Address, int]] = []
    for meeting in range(num_meetings):
        mgid = pipeline.pre.create_tree()
        addresses = [
            Address(f"10.{1 + meeting // 200}.{meeting % 200}.{index + 2}", 6000 + index)
            for index in range(participants)
        ]
        for rid, address in enumerate(addresses, start=1):
            pipeline.pre.add_node(
                mgid, rid=rid, ports=[L2Port(port=rid, l2_xid=rid)], l1_xid=1, prune_enabled=True
            )
            pipeline.install_replica_target(
                mgid, rid, ReplicaTarget(address=address, participant_id=f"m{meeting}-p{rid}")
            )
        ssrc = 10_000 + meeting
        pipeline.install_stream(
            (addresses[0], ssrc),
            StreamForwardingEntry(
                mode=ForwardingMode.REPLICATE,
                meeting_id=f"meeting-{meeting}",
                sender=addresses[0],
                mgid=mgid,
                rid=1,
                l2_xid=1,
            ),
        )
        senders.append((addresses[0], ssrc))
    return pipeline, senders


def media_ingress(
    senders: Sequence[Tuple[Address, int]], frames: int = 12, wire_native: bool = False
) -> List[Datagram]:
    """AV1 L1T3 ingress: every sender contributes ``frames`` encoded frames.

    ``wire_native=True`` encodes each packet once into a packed
    :class:`~repro.rtp.wire.PacketView` buffer (the representation a
    wire-native sender emits), exercising the pipeline's zero-object path.
    """
    traffic: List[Datagram] = []
    for address, ssrc in senders:
        encoder = SvcEncoder(target_bitrate_bps=2_200_000, seed=ssrc)
        packetizer = RtpPacketizer(ssrc=ssrc, seed=ssrc)
        for index in range(frames):
            for packet in packetizer.packetize(encoder.next_frame(index / 30)):
                payload = PacketView.from_packet(packet) if wire_native else packet
                traffic.append(Datagram(src=address, dst=SFU_ADDRESS, payload=payload))
    return traffic


def measure_point(
    num_meetings: int,
    participants: int = 8,
    frames: int = 12,
    repeats: int = 3,
) -> BatchThroughputPoint:
    """Measure one sweep point, best-of-``repeats`` per path with GC deferred."""
    best_per_packet = float("inf")
    best_batched = float("inf")
    num_packets = 0
    for _ in range(repeats):
        per_packet, senders = build_meeting_pipeline(num_meetings, participants)
        batched, _ = build_meeting_pipeline(num_meetings, participants)
        traffic = media_ingress(senders, frames)
        num_packets = len(traffic)
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            for datagram in traffic:
                per_packet.process(datagram)
            best_per_packet = min(best_per_packet, time.perf_counter() - start)

            start = time.perf_counter()
            batched.process_batch(traffic)
            best_batched = min(best_batched, time.perf_counter() - start)
        finally:
            if gc_was_enabled:
                gc.enable()
    return BatchThroughputPoint(
        num_meetings=num_meetings,
        num_packets=num_packets,
        per_packet_pps=num_packets / best_per_packet,
        batched_pps=num_packets / best_batched,
    )


def run_batch_throughput_sweep(
    meeting_counts: Sequence[int] = (1, 5, 10, 25, 50),
    participants: int = 8,
    frames: int = 12,
    repeats: int = 3,
) -> List[BatchThroughputPoint]:
    """Sweep the meeting count and measure both paths at every point."""
    return [
        measure_point(count, participants=participants, frames=frames, repeats=repeats)
        for count in meeting_counts
    ]


@dataclass(frozen=True)
class ObsOverheadPoint:
    """Throughput of the k=1 serial engine bare vs with the telemetry plane
    armed at the default 1-in-``sample_rate`` flow tracing."""

    num_meetings: int
    num_packets: int
    sample_rate: int
    bare_pps: float
    traced_pps: float

    @property
    def overhead(self) -> float:
        """Fractional slowdown tracing costs (0.03 = 3% fewer packets/sec)."""
        return self.bare_pps / self.traced_pps - 1.0


def measure_obs_overhead(
    num_meetings: int = 50,
    participants: int = 8,
    frames: int = 12,
    repeats: int = 5,
    sample_rate: int = 64,
) -> ObsOverheadPoint:
    """Measure what arming ``repro.obs`` costs the k=1 serial hot path.

    Both engines (bare, and traced at the default production 1-in-
    ``sample_rate`` flow sampling) are built once and fully warmed with one
    untimed pass over the whole burst -- the comparison targets the
    *steady-state* per-packet cost (every packet pays one cached
    sampling-decision slot load, sampled flows additionally pay integer
    span reconstruction), not flow-cache fill.  Then ``repeats`` timed
    batches per side run strictly interleaved (order alternating per round,
    GC deferred around the whole timed region) and each side keeps its
    best: interleaving means machine drift lands on both sides alike, and
    best-of-N over *warm* repeats converges to each side's true floor,
    where a cold-engine single-batch-per-side comparison swings +-10% on a
    busy host.
    """
    from ..obs.hooks import ObsConfig

    engines = {}
    traffics = {}
    best = {False: float("inf"), True: float("inf")}
    try:
        for traced in (False, True):
            obs = ObsConfig(trace_sample_rate=sample_rate) if traced else None
            engine = ShardedScallopPipeline(SFU_ADDRESS, n_shards=1, obs=obs)
            engines[traced] = engine
            engine, senders = build_meeting_pipeline(
                num_meetings, participants, pipeline=engine
            )
            traffic = media_ingress(senders, frames)
            traffics[traced] = traffic
            engine.process_batch(traffic)  # untimed warm pass: fills caches
            for shard in engine.shards:
                shard.counters = PipelineCounters()
        num_packets = len(traffics[False])
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for repeat in range(repeats):
                order = (False, True) if repeat % 2 == 0 else (True, False)
                for traced in order:
                    engine = engines[traced]
                    traffic = traffics[traced]
                    start = time.perf_counter()
                    engine.process_batch(traffic)
                    elapsed = time.perf_counter() - start
                    best[traced] = min(best[traced], elapsed)
        finally:
            if gc_was_enabled:
                gc.enable()
    finally:
        for engine in engines.values():
            engine.close()
    return ObsOverheadPoint(
        num_meetings=num_meetings,
        num_packets=num_packets,
        sample_rate=sample_rate,
        bare_pps=num_packets / best[False],
        traced_pps=num_packets / best[True],
    )


# --------------------------------------------------------------------------- skewed workloads / rebalancing


def zipf_weights(count: int, exponent: float = 0.9) -> List[float]:
    """Zipf-style popularity weights: meeting ``i`` gets ``1 / (i+1)^s``."""
    return [1.0 / (rank + 1) ** exponent for rank in range(count)]


def zipf_frames(
    count: int, base_frames: int = 18, exponent: float = 1.2, floor: int = 1
) -> List[int]:
    """Frames per batch for each meeting under a Zipf activity distribution
    (hottest meeting sends ``base_frames`` frames per batch, the tail decays
    as ``1/rank^s`` down to ``floor``)."""
    weights = zipf_weights(count, exponent)
    return [max(floor, round(base_frames * weight / weights[0])) for weight in weights]


def build_skewed_meeting_pipeline(
    num_meetings: int,
    n_shards: int,
    participants: int = 8,
    colocate_hot: int = 4,
    pipeline=None,
    participants_by_meeting: Optional[Sequence[int]] = None,
) -> Tuple[object, List[Tuple[Address, int]]]:
    """A meeting population whose hottest senders collide onto one shard.

    Same shape as :func:`build_meeting_pipeline`, but the ``colocate_hot``
    hottest meetings get sender SSRCs chosen (deterministically, by scanning
    candidates) so the default CRC32 placement puts them all on shard 0 —
    the adversarial-but-realistic hash collision ROADMAP motivates ("a few
    hot senders pin one shard").  Combined with Zipf activity this yields a
    static max/mean packet skew well above 2x at k=4, which is the workload
    the rebalancer is tested against.
    """
    if pipeline is None:
        pipeline = ScallopPipeline(SFU_ADDRESS)
    senders: List[Tuple[Address, int]] = []
    for meeting in range(num_meetings):
        mgid = pipeline.pre.create_tree()
        size = (
            participants_by_meeting[meeting]
            if participants_by_meeting is not None
            else participants
        )
        addresses = [
            Address(f"10.{1 + meeting // 200}.{meeting % 200}.{index + 2}", 6000 + index)
            for index in range(size)
        ]
        for rid, address in enumerate(addresses, start=1):
            pipeline.pre.add_node(
                mgid, rid=rid, ports=[L2Port(port=rid, l2_xid=rid)], l1_xid=1, prune_enabled=True
            )
            pipeline.install_replica_target(
                mgid, rid, ReplicaTarget(address=address, participant_id=f"m{meeting}-p{rid}")
            )
        ssrc = 10_000 + meeting * 50
        if meeting < colocate_hot:
            while flow_shard(addresses[0], ssrc, n_shards) != 0:
                ssrc += 1
        pipeline.install_stream(
            (addresses[0], ssrc),
            StreamForwardingEntry(
                mode=ForwardingMode.REPLICATE,
                meeting_id=f"meeting-{meeting}",
                sender=addresses[0],
                mgid=mgid,
                rid=1,
                l2_xid=1,
            ),
        )
        senders.append((addresses[0], ssrc))
    return pipeline, senders


def skewed_media_ingress(
    senders: Sequence[Tuple[Address, int]],
    frames_by_sender: Sequence[int],
) -> List[Datagram]:
    """One batch of Zipf-skewed AV1 ingress: sender ``i`` contributes
    ``frames_by_sender[i]`` frames.  Deterministic per sender, so replaying
    it models a steady-state load epoch (safe because the skewed workloads
    install no sequence rewriters — nothing is stateful across the replay)."""
    traffic: List[Datagram] = []
    for (address, ssrc), frames in zip(senders, frames_by_sender):
        encoder = SvcEncoder(target_bitrate_bps=2_200_000, seed=ssrc)
        packetizer = RtpPacketizer(ssrc=ssrc, seed=ssrc)
        for index in range(frames):
            for packet in packetizer.packetize(encoder.next_frame(index / 30)):
                traffic.append(Datagram(src=address, dst=SFU_ADDRESS, payload=packet))
    return traffic


@dataclass(frozen=True)
class RebalancePoint:
    """One skewed-sweep point: static CRC32 placement vs. the closed
    telemetry -> policy -> migration loop on the identical workload."""

    n_shards: int
    num_meetings: int
    num_packets: int
    batches: int
    #: Final-batch max/mean per-shard packet skew under static CRC32.
    skew_static: float
    #: Same workload and batch with the rebalancer armed.
    skew_rebalanced: float
    migrations: int
    shard_packets_static: Tuple[int, ...]
    shard_packets_rebalanced: Tuple[int, ...]

    @property
    def skew_reduction(self) -> float:
        """How many times the rebalancer cut the max/mean packet skew."""
        return self.skew_static / self.skew_rebalanced if self.skew_rebalanced else 0.0


def _final_batch_shard_packets(
    engine: ShardedScallopPipeline,
    senders: Sequence[Tuple[Address, int]],
    frames_by_sender: Sequence[int],
    batches: int,
) -> Tuple[Tuple[int, ...], int]:
    """Replay ``batches`` identical skewed batches (a steady-state load
    epoch each); return the per-shard packet counts of the final batch alone
    (counters zeroed before it) plus the total packets per batch."""
    num_packets = 0
    traffic = skewed_media_ingress(senders, frames_by_sender)
    num_packets = len(traffic)
    for batch_index in range(batches):
        if batch_index == batches - 1:
            for shard in engine.shards:
                shard.counters = PipelineCounters()
        engine.process_batch(traffic)
    return (
        tuple(int(row["data_plane_packets"]) for row in engine.shard_load()),
        num_packets,
    )


def measure_rebalance_point(
    n_shards: int = 4,
    num_meetings: int = 50,
    participants: int = 8,
    batches: int = 24,
    base_frames: int = 18,
    zipf_exponent: float = 1.2,
    colocate_hot: int = 14,
    config: Optional[RebalancerConfig] = None,
) -> RebalancePoint:
    """Measure the rebalancer's skew cut on a Zipf-skewed hot-sender workload.

    Two runs over byte-identical traffic: a static-CRC32 engine and one with
    :meth:`~repro.dataplane.sharding.ShardedScallopPipeline.enable_rebalancing`
    armed (short epochs so the loop converges within ``batches``).  Both
    figures are the max/mean per-shard packet ratio of the *final* batch —
    i.e. after the control loop has converged — so the point is deterministic
    (packet counts, not timings).
    """
    if config is None:
        # short epochs + a tight target so the loop converges (and bottoms
        # out) well within the measured window; budget 6 keeps per-epoch
        # churn bounded while still draining a 14-hot-flow pileup
        config = RebalancerConfig(
            epoch_batches=2, trigger_ratio=1.15, target_ratio=1.05, migration_budget=6
        )
    frames_by_sender = zipf_frames(num_meetings, base_frames, zipf_exponent)

    static_engine, senders = build_skewed_meeting_pipeline(
        num_meetings,
        n_shards,
        participants,
        colocate_hot=colocate_hot,
        pipeline=ShardedScallopPipeline(SFU_ADDRESS, n_shards=n_shards),
    )
    static_packets, num_packets = _final_batch_shard_packets(
        static_engine, senders, frames_by_sender, batches
    )
    static_engine.close()

    rebalanced_engine, senders = build_skewed_meeting_pipeline(
        num_meetings,
        n_shards,
        participants,
        colocate_hot=colocate_hot,
        pipeline=ShardedScallopPipeline(
            SFU_ADDRESS, n_shards=n_shards, rebalance_config=config
        ),
    )
    rebalanced_packets, _ = _final_batch_shard_packets(
        rebalanced_engine, senders, frames_by_sender, batches
    )
    migrations = rebalanced_engine.migrations_applied
    rebalanced_engine.close()

    def skew(shard_packets: Tuple[int, ...]) -> float:
        mean = sum(shard_packets) / len(shard_packets)
        return max(shard_packets) / mean if mean else 0.0

    return RebalancePoint(
        n_shards=n_shards,
        num_meetings=num_meetings,
        num_packets=num_packets,
        batches=batches,
        skew_static=skew(static_packets),
        skew_rebalanced=skew(rebalanced_packets),
        migrations=migrations,
        shard_packets_static=static_packets,
        shard_packets_rebalanced=rebalanced_packets,
    )


def format_rebalance_point(point: RebalancePoint) -> str:
    lines = [
        f"skewed workload: {point.num_meetings} meetings, {point.num_packets} packets/batch, "
        f"k={point.n_shards}",
        f"{'placement':>12} {'per-shard packets':>28} {'max/mean':>9}",
        f"{'static':>12} {str(list(point.shard_packets_static)):>28} {point.skew_static:>8.2f}x",
        f"{'rebalanced':>12} {str(list(point.shard_packets_rebalanced)):>28} "
        f"{point.skew_rebalanced:>8.2f}x",
        f"skew cut {point.skew_reduction:.2f}x via {point.migrations} migrations",
    ]
    return "\n".join(lines)


def format_batch_sweep(points: Sequence[BatchThroughputPoint]) -> str:
    lines = [
        f"{'meetings':>9} {'packets':>9} {'per-packet pps':>15} {'batched pps':>13} {'batch/pkt':>9}"
    ]
    for point in points:
        lines.append(
            f"{point.num_meetings:>9} {point.num_packets:>9} {point.per_packet_pps:>15,.0f} "
            f"{point.batched_pps:>13,.0f} {point.speedup:>8.2f}x"
        )
    return "\n".join(lines)
