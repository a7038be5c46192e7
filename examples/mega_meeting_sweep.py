#!/usr/bin/env python3
"""Mega-meeting sweep: push many concurrent meetings through the data plane.

Three parts, centred on the batched fast path and the flow-sharded engine:

1. **Pipeline throughput sweep** — configure 1..50 concurrent meetings on one
   :class:`~repro.dataplane.pipeline.ScallopPipeline`, replay the same media
   ingress packet by packet (``process``) and as one burst
   (``process_batch``), and report packets/second for both.  Both run the
   same memoized implementation (forwarding resolution cached per flow, one
   immutable meta view shared across replicas); the batch additionally
   amortizes the per-call overhead, so the two stay within ~1.1x of each
   other as the meeting population grows.

2. **End-to-end burst mode** — a declarative multi-meeting
   :class:`repro.scenario.Scenario` with ``frame_bursts`` traffic and a
   4-shard SFU, where each video frame traverses the network as one
   schedule-preserving burst and the SFU ingests it through the sharded
   batch engine.  (The canned ``zipf_hotset`` scenario is the heterogeneous
   sibling: ``python -m repro.scenario zipf_hotset``.)

3. **Load-aware placement** (``--skew``) — replay a Zipf-skewed population
   (meeting sizes and per-meeting activity both Zipf-distributed, the hottest
   senders colocated by the CRC32 default the way a real hash collision pins
   them) through a 4-shard engine with the rebalancer armed, and print the
   before/after ``shard_load()`` skew table plus the migrations the placement
   loop executed.  With heterogeneous meeting sizes the policy's
   egress-weighted flow ranking balances *replica* work (the fan-out each
   packet actually costs), so watch the replica-skew line, not just packets.

Run with:  python examples/mega_meeting_sweep.py [--skew] [--profile]

``--profile`` attaches a :class:`repro.experiments.CoordinatorStats` to the
burst-mode call's 4-shard engine and prints the coordinator's stage table
(partition / dispatch / reassemble) after the run.
"""

import argparse

from repro.dataplane import PipelineCounters, RebalancerConfig, ShardedScallopPipeline
from repro.experiments import (
    CoordinatorStats,
    build_skewed_meeting_pipeline,
    format_batch_sweep,
    run_batch_throughput_sweep,
    skewed_media_ingress,
    zipf_frames,
)
from repro.netsim.datagram import Address
from repro.scenario import BackendSpec, Scenario, TrafficSpec, build_scenario

MEETING_SIZES = [1, 5, 10, 25, 50]
SFU = Address("10.0.0.1", 5000)


def format_shard_load(rows) -> str:
    lines = [
        f"{'shard':>6} {'packets':>9} {'replicas':>9} {'cpu':>6} {'occupancy':>10}"
    ]
    mean = sum(row["data_plane_packets"] for row in rows) / max(1, len(rows))
    replica_mean = sum(row["replicas_out"] for row in rows) / max(1, len(rows))
    for row in rows:
        lines.append(
            f"{int(row['shard']):>6} {int(row['data_plane_packets']):>9} "
            f"{int(row['replicas_out']):>9} {int(row['cpu_packets']):>6} "
            f"{row['stream_tracker_occupancy']:>10.6f}"
        )
    if mean:
        peak = max(row["data_plane_packets"] for row in rows)
        lines.append(f"{'':>6} max/mean packet skew: {peak / mean:.2f}x")
    if replica_mean:
        # with Zipf meeting *sizes* the egress-weighted policy balances
        # replica work, so this is the ratio the placement loop drives down
        replica_peak = max(row["replicas_out"] for row in rows)
        lines.append(f"{'':>6} max/mean replica skew: {replica_peak / replica_mean:.2f}x")
    return "\n".join(lines)


def run_skewed_rebalance_demo(num_meetings: int = 50, n_shards: int = 4) -> None:
    print(f"=== load-aware placement: Zipf-skewed workload, k={n_shards} ===")
    meeting_sizes = [max(3, round(10 / (rank + 1) ** 0.6)) for rank in range(num_meetings)]
    frames = zipf_frames(num_meetings)
    engine, senders = build_skewed_meeting_pipeline(
        num_meetings,
        n_shards,
        colocate_hot=14,
        participants_by_meeting=meeting_sizes,
        pipeline=ShardedScallopPipeline(
            SFU,
            n_shards=n_shards,
            rebalance_config=RebalancerConfig(
                epoch_batches=2, trigger_ratio=1.15, target_ratio=1.05, migration_budget=6
            ),
        ),
    )
    print(
        f"{num_meetings} meetings (sizes {max(meeting_sizes)}..{min(meeting_sizes)} "
        f"participants, Zipf), hottest senders hash-colocated on shard 0"
    )
    # one epoch of traffic under the static placement: this is the "before"
    engine.process_batch(skewed_media_ingress(senders, frames))
    print()
    print("before (static CRC32 placement, first batch):")
    print(format_shard_load(engine.shard_load()))
    # let the control loop converge, then measure one clean batch
    for batch in range(20):
        engine.process_batch(skewed_media_ingress(senders, frames))
    for shard in engine.shards:
        shard.counters = PipelineCounters()
    engine.process_batch(skewed_media_ingress(senders, frames))
    print()
    print(f"after ({engine.migrations_applied} live migrations, converged batch):")
    print(format_shard_load(engine.shard_load()))
    tracker = engine.load_tracker
    print()
    print(
        f"telemetry: {len(tracker.flows)} flows tracked over "
        f"{tracker.batches_observed} batches, EWMA skew {tracker.skew_ratio():.2f}x"
    )
    engine.close()


def run_burst_mode_call(profile: bool = False) -> None:
    print()
    print("=== end-to-end burst mode (10 meetings x 3 participants, 4 shards, 10 s) ===")
    scenario = Scenario.uniform(
        num_meetings=10,
        participants_per_meeting=3,
        name="burst-mode-call",
        backend=BackendSpec(kind="scallop", n_shards=4),
        traffic=TrafficSpec(frame_bursts=True),
        duration_s=10.0,
    )
    with build_scenario(scenario) as testbed:
        stats = None
        if profile:
            stats = testbed.sfu.pipeline.coordinator_stats = CoordinatorStats()
        testbed.run()
        sfu = testbed.sfu
        reports = [client.get_stats() for client in testbed.clients]
        rates = [s.frames_per_second for report in reports for s in report.inbound_video]
        shares = sfu.data_plane_fraction()
        print(
            f"SFU forwarded {sfu.stats.packets_out} packets from {sfu.stats.packets_in} ingress; "
            f"data plane handled {shares['packets'] * 100:.2f}% of packets"
        )
        parser = sfu.pipeline.parser_stats()
        busy = [shard.counters.data_plane_packets for shard in sfu.pipeline.shards]
        print(
            f"{len(rates)} inbound video streams at {sum(rates) / len(rates):.1f} fps mean "
            f"(parse cache hits: {parser.parse_cache_hits}; per-shard packets: {busy})"
        )
        if stats is not None:
            print()
            print(stats.format_table())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--skew",
        action="store_true",
        help="run the Zipf-skewed workload and show the rebalancer's "
        "before/after shard_load() skew table (skips the timing sweeps)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="attach CoordinatorStats to the burst-mode call's sharded engine "
        "and print its stage table",
    )
    args = parser.parse_args()
    if args.skew:
        run_skewed_rebalance_demo()
        return
    print("=== pipeline throughput, 8 participants/meeting ===")
    points = run_batch_throughput_sweep(meeting_counts=MEETING_SIZES)
    print(format_batch_sweep(points))
    run_burst_mode_call(profile=args.profile)


if __name__ == "__main__":
    main()
