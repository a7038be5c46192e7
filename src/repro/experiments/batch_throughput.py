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

# this benchmark measures the packed transport *against* pickled object
# graphs, so the pickle use here is the experiment, not a hot-path leak
import pickle  # archlint: ignore[zero-pickle]
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..dataplane.pipeline import (
    ForwardingMode,
    PipelineCounters,
    ReplicaTarget,
    ScallopPipeline,
    StreamForwardingEntry,
)
from ..dataplane.pre import L2Port
from ..dataplane.rebalance import RebalancerConfig
from ..dataplane.shardcodec import encode_ingress_batch, encode_result_batch
from ..dataplane.sharding import ShardedScallopPipeline, flow_shard
from ..netsim.datagram import Address, Datagram
from ..rtp.srtp import SrtpProfile
from ..rtp.wire import PacketView
from ..webrtc.encoder import RtpPacketizer, SvcEncoder
from .coordstats import CoordinatorStats

SFU_ADDRESS = Address("10.0.0.1", 5000)

#: Fixed master key for benchmark SRTP profiles (determinism across runs).
BENCH_SRTP_KEY = b"scallop-bench-master"


def gil_enabled() -> bool:
    """Whether this interpreter runs with the GIL engaged.

    ``sys._is_gil_enabled`` exists on 3.13+ (PEP 703); older interpreters
    always hold the GIL.  Every parallelism benchmark point records this —
    thread-executor numbers from a GIL build and a free-threaded build are
    different experiments and must never be compared as a regression.
    """
    probe = getattr(sys, "_is_gil_enabled", None)
    return True if probe is None else bool(probe())


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
class ShardThroughputPoint:
    """One shard-sweep point: the sharded engine at ``n_shards`` on a fixed
    multi-meeting workload."""

    num_meetings: int
    n_shards: int
    executor: str
    num_packets: int
    pps: float
    #: Ingress representation: "object" (RtpPacket dataclasses) or "wire"
    #: (packed PacketView buffers).
    ingress: str = "object"
    #: Per-shard skew from the final measured run (groundwork for ROADMAP's
    #: skew-aware rebalancing): packets each shard processed and its
    #: stream-tracker occupancy attribution.
    shard_packets: Tuple[int, ...] = ()
    shard_occupancy: Tuple[float, ...] = ()


def measure_shard_point(
    n_shards: int,
    num_meetings: int = 50,
    participants: int = 8,
    frames: int = 12,
    repeats: int = 3,
    executor: str = "serial",
    wire_native: bool = False,
    warmup_packets: int = 64,
) -> ShardThroughputPoint:
    """Measure ``process_batch`` throughput of the sharded engine at one
    shard count (best-of-``repeats`` with GC deferred, like
    :func:`measure_point`).

    ``warmup_packets`` ingress packets run before the clock starts so every
    backend is measured at steady state: the process executor spawns its
    per-shard worker pools and ships the (one-time) control-plane snapshot on
    first contact, costs that belong to meeting setup rather than per-batch
    forwarding.
    """
    best = float("inf")
    num_packets = 0
    shard_packets: Tuple[int, ...] = ()
    shard_occupancy: Tuple[float, ...] = ()
    for _ in range(repeats):
        engine = ShardedScallopPipeline(SFU_ADDRESS, n_shards=n_shards, executor=executor)
        try:
            engine, senders = build_meeting_pipeline(num_meetings, participants, pipeline=engine)
            traffic = media_ingress(senders, frames, wire_native=wire_native)
            num_packets = len(traffic)
            if warmup_packets:
                # replaying a slice is safe here because this workload
                # installs no sequence rewriters (nothing is stateful across
                # the replay); zero the skew tallies afterwards so the
                # shard_load() rows cover exactly the timed run
                engine.process_batch(traffic[:warmup_packets])
                for shard in engine.shards:
                    shard.counters = PipelineCounters()
            gc.collect()
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                start = time.perf_counter()
                engine.process_batch(traffic)
                best = min(best, time.perf_counter() - start)
            finally:
                if gc_was_enabled:
                    gc.enable()
            load = engine.shard_load()
            shard_packets = tuple(int(row["data_plane_packets"]) for row in load)
            shard_occupancy = tuple(row["stream_tracker_occupancy"] for row in load)
        finally:
            engine.close()
    return ShardThroughputPoint(
        num_meetings=num_meetings,
        n_shards=n_shards,
        executor=executor,
        num_packets=num_packets,
        pps=num_packets / best,
        ingress="wire" if wire_native else "object",
        shard_packets=shard_packets,
        shard_occupancy=shard_occupancy,
    )


def run_shard_throughput_sweep(
    shard_counts: Sequence[int] = (1, 2, 4),
    num_meetings: int = 50,
    participants: int = 8,
    frames: int = 12,
    repeats: int = 3,
    executor: str = "serial",
    wire_native: bool = False,
) -> List[ShardThroughputPoint]:
    """Sweep shard counts on a fixed workload.

    With the default ``serial`` executor this measures the *cost* of
    partitioning: all shards execute on one interpreter under one GIL, so
    throughput is flat-to-slightly-lower as k grows — the point of the sweep
    is to track that overhead across PRs and to catch regressions in the
    partition/reassembly path.  The ``process`` executor is the parallel
    escape hatch, fed by the zero-pickle packed shard transport; pass
    ``wire_native=True`` to feed either executor packed ingress buffers.
    """
    return [
        measure_shard_point(
            k,
            num_meetings=num_meetings,
            participants=participants,
            frames=frames,
            repeats=repeats,
            executor=executor,
            wire_native=wire_native,
        )
        for k in shard_counts
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


def measure_coordinator_profile(
    n_shards: int = 4,
    num_meetings: int = 50,
    participants: int = 8,
    frames: int = 12,
    executors: Sequence[str] = ("serial", "process"),
    wire_native: bool = True,
    warmup_packets: int = 64,
) -> Dict[str, Dict[str, object]]:
    """Amdahl stage profile of the sharded coordinator loop, per executor.

    Attaches a :class:`~repro.experiments.coordstats.CoordinatorStats` to a
    fresh engine, runs the standard multi-meeting burst once (after warmup,
    GC deferred like every timing here), and returns each executor's
    ``as_dict()`` stage breakdown — partition / encode / dispatch / replay /
    reassemble ns, per-packet rates, and the serial-fraction estimate.  The
    serial executor has no codec stages (encode/replay stay 0); the process
    executor shows the full five-stage split.
    """
    profiles: Dict[str, Dict[str, object]] = {}
    for executor in executors:
        engine = ShardedScallopPipeline(SFU_ADDRESS, n_shards=n_shards, executor=executor)
        try:
            engine, senders = build_meeting_pipeline(
                num_meetings, participants, pipeline=engine
            )
            traffic = media_ingress(senders, frames, wire_native=wire_native)
            if warmup_packets:
                engine.process_batch(traffic[:warmup_packets])
            stats = CoordinatorStats()
            engine.coordinator_stats = stats
            gc.collect()
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                engine.process_batch(traffic)
            finally:
                if gc_was_enabled:
                    gc.enable()
            profiles[executor] = stats.as_dict()
        finally:
            engine.close()
    return profiles


# --------------------------------------------------------------------------- executor parallelism / Amdahl crossover


@dataclass(frozen=True)
class ParallelismPoint:
    """One executor-matrix point: an executor at ``n_shards`` on wire-native
    ingress, optionally under SRTP-grade per-packet work."""

    executor: str
    n_shards: int
    #: 0 = plain wire-native ingress; >= 1 = SRTP profile with that many
    #: keystream-derivation rounds per packet (the per-packet work knob).
    srtp_rounds: int
    num_packets: int
    pps: float
    #: GIL regime the point was measured under (see :func:`gil_enabled`).
    gil_enabled: bool


def protect_media_ingress(traffic: Sequence[Datagram], profile: SrtpProfile) -> List[Datagram]:
    """What wire-native senders emit under SRTP: every packed buffer
    protected with the ingress session keys (tag appended, payload XORed)."""
    return [
        Datagram(
            src=datagram.src,
            dst=datagram.dst,
            payload=PacketView(profile.protect_ingress(datagram.payload)),
        )
        for datagram in traffic
    ]


def measure_parallelism_point(
    executor: str,
    n_shards: int,
    srtp_rounds: int = 0,
    num_meetings: int = 12,
    participants: int = 6,
    frames: int = 10,
    repeats: int = 2,
    warmup_packets: int = 64,
) -> ParallelismPoint:
    """Measure one executor-matrix point on wire-native ingress.

    Same hygiene as :func:`measure_shard_point` (fresh engine per repeat,
    warmup before the clock, GC deferred, best-of-``repeats``); the workload
    is always wire-native so the plain-vs-srtp delta is purely the per-packet
    crypto work, not a representation change.
    """
    profile = SrtpProfile(BENCH_SRTP_KEY, rounds=srtp_rounds) if srtp_rounds else None
    best = float("inf")
    num_packets = 0
    for _ in range(repeats):
        engine = ShardedScallopPipeline(
            SFU_ADDRESS, n_shards=n_shards, executor=executor, srtp=profile
        )
        try:
            engine, senders = build_meeting_pipeline(num_meetings, participants, pipeline=engine)
            traffic = media_ingress(senders, frames, wire_native=True)
            if profile is not None:
                traffic = protect_media_ingress(traffic, profile)
            num_packets = len(traffic)
            if warmup_packets:
                engine.process_batch(traffic[:warmup_packets])
                for shard in engine.shards:
                    shard.counters = PipelineCounters()
            gc.collect()
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                start = time.perf_counter()
                engine.process_batch(traffic)
                best = min(best, time.perf_counter() - start)
            finally:
                if gc_was_enabled:
                    gc.enable()
        finally:
            engine.close()
    return ParallelismPoint(
        executor=executor,
        n_shards=n_shards,
        srtp_rounds=srtp_rounds,
        num_packets=num_packets,
        pps=num_packets / best,
        gil_enabled=gil_enabled(),
    )


def run_parallelism_matrix(
    executors: Sequence[str] = ("serial", "thread", "process"),
    shard_counts: Sequence[int] = (1, 4),
    srtp_levels: Sequence[int] = (0, 1),
    num_meetings: int = 12,
    participants: int = 6,
    frames: int = 10,
    repeats: int = 2,
) -> List[ParallelismPoint]:
    """The executor matrix: {serial, thread, process} x k x {plain, srtp}.

    On a GIL interpreter the thread rows are expected to sit at-or-below
    serial (the executor is correct but not parallel); on a free-threaded
    build they are where flow sharding finally pays inside one process.
    Every point records its GIL regime so the two cases are never conflated.
    """
    return [
        measure_parallelism_point(
            executor,
            k,
            srtp_rounds=rounds,
            num_meetings=num_meetings,
            participants=participants,
            frames=frames,
            repeats=repeats,
        )
        for executor in executors
        for k in shard_counts
        for rounds in srtp_levels
    ]


def measure_parallelism_crossover(
    rounds_levels: Sequence[int] = (1, 2, 4, 8),
    n_shards: int = 4,
    num_meetings: int = 12,
    participants: int = 6,
    frames: int = 10,
    repeats: int = 2,
    margin: float = 1.05,
) -> Dict[str, object]:
    """Locate the Amdahl crossover: the srtp work level at which thread-k
    sharding beats the serial engine.

    Sweeps ``rounds_levels`` (keystream-derivation rounds per packet — pure
    CPU work, deterministic at every fixed level) and compares
    serial-k1 against thread-``n_shards`` at each level.  ``crossover_rounds``
    is the first level whose thread/serial ratio clears ``margin``, or
    ``None`` if the sweep never crosses — the expected outcome under a GIL,
    where added per-packet work scales both engines equally because the
    thread executor cannot overlap it.  The margin exists exactly for that
    regime: GIL-bound ratios hover around 1.0 (the executor overhead
    amortizes as srtp work grows) and scheduler jitter can nudge a level a
    percent or two past parity, which is not parallelism paying — a genuine
    free-threaded crossover clears the margin by a wide margin.  On a
    free-threaded build the crossover is the headline number: the work level
    past which parallelism pays.
    """
    levels: List[Dict[str, object]] = []
    crossover: Optional[int] = None
    for rounds in rounds_levels:
        serial = measure_parallelism_point(
            "serial", 1, srtp_rounds=rounds, num_meetings=num_meetings,
            participants=participants, frames=frames, repeats=repeats,
        )
        threaded = measure_parallelism_point(
            "thread", n_shards, srtp_rounds=rounds, num_meetings=num_meetings,
            participants=participants, frames=frames, repeats=repeats,
        )
        ratio = threaded.pps / serial.pps if serial.pps else 0.0
        levels.append(
            {
                "srtp_rounds": rounds,
                "serial_k1_pps": round(serial.pps),
                f"thread_k{n_shards}_pps": round(threaded.pps),
                "ratio": round(ratio, 3),
                "gil_enabled": serial.gil_enabled and threaded.gil_enabled,
            }
        )
        if crossover is None and ratio > margin:
            crossover = rounds
    return {
        "n_shards": n_shards,
        "rounds_levels": list(rounds_levels),
        "margin": margin,
        "levels": levels,
        "crossover_rounds": crossover,
    }


def format_parallelism_matrix(points: Sequence[ParallelismPoint]) -> str:
    lines = [
        f"{'executor':>9} {'shards':>7} {'srtp':>5} {'packets':>9} {'pps':>13} {'gil':>5}"
    ]
    for point in points:
        srtp = f"r={point.srtp_rounds}" if point.srtp_rounds else "off"
        lines.append(
            f"{point.executor:>9} {point.n_shards:>7} {srtp:>5} {point.num_packets:>9} "
            f"{point.pps:>13,.0f} {'on' if point.gil_enabled else 'OFF':>5}"
        )
    return "\n".join(lines)


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
    the rebalancer is benchmarked (and CI-gated) against.
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
    (packet counts, not timings) and safe to gate CI on.
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
        pipeline=ShardedScallopPipeline(SFU_ADDRESS, n_shards=n_shards, executor="serial"),
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
            SFU_ADDRESS, n_shards=n_shards, executor="serial", rebalance_config=config
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


def measure_shard_transport(
    n_shards: int = 4,
    num_meetings: int = 50,
    participants: int = 8,
    frames: int = 12,
) -> Dict[str, float]:
    """Quantify the packed shard transport against pickled object graphs.

    Partitions the standard 50-meeting ingress exactly the way the sharded
    engine would, encodes every partition with the packed ingress codec, runs
    the partitions through serial shards to obtain the results a worker would
    return, and encodes those with the packed result codec — then measures
    the same objects under ``pickle.dumps`` (what the process executor used
    to ship).  Returns per-batch byte totals and the shrink factors.
    """
    engine, senders = build_meeting_pipeline(
        num_meetings,
        participants,
        pipeline=ShardedScallopPipeline(SFU_ADDRESS, n_shards=n_shards, executor="serial"),
    )
    traffic = media_ingress(senders, frames)
    partitions: List[List[Datagram]] = [[] for _ in range(n_shards)]
    for datagram in traffic:
        partitions[flow_shard(datagram.src, datagram.payload.ssrc, n_shards)].append(datagram)

    packed_ingress = pickle_ingress = packed_results = pickle_results = 0
    for shard_id, partition in enumerate(partitions):
        if not partition:
            continue
        packed_ingress += len(encode_ingress_batch(partition))
        # the pickled size is the comparison baseline being measured
        pickle_ingress += len(pickle.dumps(partition, protocol=pickle.HIGHEST_PROTOCOL))  # archlint: ignore[zero-pickle]
        results = engine.shards[shard_id].process_batch(partition)
        blob, fallback = encode_result_batch(results, partition)
        packed_results += len(blob) + len(fallback)
        pickle_results += len(pickle.dumps(results, protocol=pickle.HIGHEST_PROTOCOL))  # archlint: ignore[zero-pickle]
    engine.close()
    packed_total = packed_ingress + packed_results
    pickle_total = pickle_ingress + pickle_results
    return {
        "num_packets": len(traffic),
        "packed_ingress_bytes": packed_ingress,
        "pickle_ingress_bytes": pickle_ingress,
        "packed_result_bytes": packed_results,
        "pickle_result_bytes": pickle_results,
        "ingress_shrink": pickle_ingress / packed_ingress if packed_ingress else 0.0,
        "result_shrink": pickle_results / packed_results if packed_results else 0.0,
        "total_shrink": pickle_total / packed_total if packed_total else 0.0,
    }


def format_shard_sweep(points: Sequence[ShardThroughputPoint]) -> str:
    baseline = points[0].pps if points else 0.0
    baseline_k = points[0].n_shards if points else 1
    relative = f"vs k={baseline_k}"
    lines = [
        f"{'shards':>7} {'executor':>9} {'ingress':>8} {'packets':>9} {'pps':>13} {relative:>9}"
    ]
    for point in points:
        lines.append(
            f"{point.n_shards:>7} {point.executor:>9} {point.ingress:>8} {point.num_packets:>9} "
            f"{point.pps:>13,.0f} {point.pps / baseline:>8.2f}x"
        )
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
