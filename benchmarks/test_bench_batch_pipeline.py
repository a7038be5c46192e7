"""Batched vs. per-packet data-plane throughput across 1-50 meetings, plus
the sharded-engine throughput trajectory.

Not a paper figure: these benchmarks guard the batch fast path and the
flow-sharded engine introduced for the production-scale roadmap.
``process`` and ``process_batch`` run media on one memoized implementation,
so per-packet entry must stay within call overhead of the batch — at the
50-meeting scenario ``process`` must reach 0.7x of ``process_batch``'s
packets/sec (byte-identity of both against the unmemoized walk is
tests/test_batch_pipeline.py's job).  The shard sweep additionally
records packets/sec of ``ShardedScallopPipeline`` at k in {1, 4} into an
untracked ``BENCH_shard_throughput.local.json`` artifact (path overridable
via ``BENCH_SHARD_THROUGHPUT_JSON``) so the perf trajectory is tracked
across PRs; the committed ``BENCH_shard_throughput.json`` is the regression
baseline CI gates that fresh artifact against, refreshed only deliberately
(from a CI artifact), never by a routine bench run.

Why the shard sweep asserts *bounded overhead* rather than speedup: with the
in-process ``serial`` executor all shards execute under one CPython GIL, so
k-way sharding does the same Python work as one datapath plus
partition/reassembly — flat throughput is the expected ceiling, and the
number to watch is how little the partitioning costs.  The parallel path is
the ``executor="process"`` escape hatch behind the same API (per-shard worker
processes, exercised for correctness in tests/test_sharded_pipeline.py); its
wall-clock win materializes once per-packet work outweighs pickling, which
this behavioural model's microsecond-scale packets do not.
"""

import dataclasses
import json
import os
import platform

from benchmarks.conftest import run_once
from repro.experiments import (
    format_batch_sweep,
    format_parallelism_matrix,
    format_rebalance_point,
    format_shard_sweep,
    gil_enabled,
    measure_coordinator_profile,
    measure_obs_overhead,
    measure_parallelism_crossover,
    measure_rebalance_point,
    measure_shard_point,
    measure_shard_transport,
    run_batch_throughput_sweep,
    run_parallelism_matrix,
    run_shard_throughput_sweep,
)

MEETING_COUNTS = [1, 10, 50]
SHARD_COUNTS = [1, 4]
SHARD_ARTIFACT_ENV = "BENCH_SHARD_THROUGHPUT_JSON"
# The serial sweep feeds the committed regression baseline, and every
# headline ratio normalizes to the k=1 serial/object point — a single slow
# pass there skews all of them at once, so the serial points get best-of-5
# rather than best-of-3.  The process-executor points keep best-of-3: they
# are neither the gate reference nor plausibility-asserted, and each extra
# repeat re-spawns the per-shard worker pools.
SHARD_REPEATS = 5
PROCESS_REPEATS = 3


def test_batch_pipeline_throughput(benchmark):
    points = run_once(
        benchmark, run_batch_throughput_sweep, meeting_counts=MEETING_COUNTS, repeats=3
    )
    print()
    print(format_batch_sweep(points))
    by_meetings = {p.num_meetings: p for p in points}
    benchmark.extra_info["per_packet_pps_50m"] = round(by_meetings[50].per_packet_pps)
    benchmark.extra_info["batched_pps_50m"] = round(by_meetings[50].batched_pps)
    benchmark.extra_info["speedup_1m"] = round(by_meetings[1].speedup, 2)
    benchmark.extra_info["speedup_50m"] = round(by_meetings[50].speedup, 2)

    # default scenarios deliver per packet, so process() must not fork from
    # the batch path again: what separates them is one call frame, one cache
    # stamp check and one accounting fold per packet (~1.1x).  A ratio within
    # one run at the 50-meeting point (the paper-scale regime, and the
    # best-protected measurement thanks to best-of-3 with GC deferred);
    # smaller points are reported in extra_info but not asserted on, to keep
    # shared-runner timing noise from failing CI without a code defect
    assert by_meetings[50].per_packet_pps >= 0.7 * by_meetings[50].batched_pps


def test_obs_tracing_overhead(benchmark):
    # the telemetry plane's hot-path bargain: at the default 1-in-64 flow
    # sampling, arming repro.obs must cost the k=1 serial engine under 5%
    # of its packets/sec (unsampled flows pay one cached slot load per
    # packet, sampled ones additionally pay integer span reconstruction).
    # The gated overhead is the median of per-repeat back-to-back ratios
    # (order alternating per repeat, measure_shard_point's engine/warmup/GC
    # hygiene), so slow machine drift across the run cancels instead of
    # polluting the comparison the way a best-of-N-vs-best-of-N ratio can.
    point = run_once(benchmark, measure_obs_overhead, num_meetings=50, repeats=5)
    print()
    print(
        f"obs overhead @1-in-{point.sample_rate}: bare {point.bare_pps:,.0f} pps, "
        f"traced {point.traced_pps:,.0f} pps ({point.overhead:+.2%})"
    )
    benchmark.extra_info["bare_pps"] = round(point.bare_pps)
    benchmark.extra_info["traced_pps"] = round(point.traced_pps)
    benchmark.extra_info["overhead"] = round(point.overhead, 4)
    assert point.overhead < 0.05, (
        f"tracing at 1-in-{point.sample_rate} costs {point.overhead:.2%} of k=1 "
        "serial throughput (bar: <5%) — the disabled/unsampled path regressed"
    )


def _point_dict(point):
    data = dataclasses.asdict(point)
    data["pps"] = round(point.pps)
    data["shard_packets"] = list(point.shard_packets)
    data["shard_occupancy"] = [round(o, 6) for o in point.shard_occupancy]
    del data["num_meetings"]
    return data


def _run_full_shard_sweep():
    """The serial object-ingress sweep (regression baseline) plus the
    wire-native serial point and the packed process-executor points."""
    points = run_shard_throughput_sweep(
        shard_counts=SHARD_COUNTS, num_meetings=50, repeats=SHARD_REPEATS
    )
    points.append(
        measure_shard_point(
            1, num_meetings=50, repeats=SHARD_REPEATS, executor="serial", wire_native=True
        )
    )
    for k in SHARD_COUNTS:
        points.append(
            measure_shard_point(
                k, num_meetings=50, repeats=PROCESS_REPEATS, executor="process", wire_native=True
            )
        )
    return points


def test_shard_pipeline_throughput(benchmark):
    points = run_once(benchmark, _run_full_shard_sweep)
    print()
    print(format_shard_sweep(points))
    by_key = {(p.n_shards, p.executor, p.ingress): p for p in points}
    serial_k1 = by_key[(1, "serial", "object")]
    serial_k4 = by_key[(4, "serial", "object")]
    wire_k1 = by_key[(1, "serial", "wire")]
    process_k1 = by_key[(1, "process", "wire")]
    process_k4 = by_key[(4, "process", "wire")]
    speedup = serial_k4.pps / serial_k1.pps
    wire_speedup = wire_k1.pps / serial_k1.pps
    process_speedup = process_k4.pps / serial_k1.pps
    benchmark.extra_info["pps_k1"] = round(serial_k1.pps)
    benchmark.extra_info["pps_k4"] = round(serial_k4.pps)
    benchmark.extra_info["speedup_k4_vs_k1"] = round(speedup, 3)
    benchmark.extra_info["wire_speedup_k1"] = round(wire_speedup, 3)
    benchmark.extra_info["process_k4_vs_serial_k1"] = round(process_speedup, 3)

    transport = measure_shard_transport(n_shards=4, num_meetings=50)

    # Amdahl stage profile of the coordinator loop at k=4 (partition /
    # encode / dispatch / replay / reassemble + serial-fraction estimate);
    # the serial row is what the coordinator-overhead regression gate reads
    coordinator = measure_coordinator_profile(n_shards=4, num_meetings=50)
    for executor, profile in coordinator.items():
        per_packet = profile["stage_ns_per_packet"]
        benchmark.extra_info[f"coord_{executor}_partition_ns_per_pkt"] = round(
            per_packet["partition"]
        )
        fraction = profile["serial_fraction"]
        benchmark.extra_info[f"coord_{executor}_serial_fraction"] = (
            None if fraction is None else round(fraction, 4)
        )

    # skewed-workload sweep: hot senders colocated by the CRC32 default, the
    # placement loop migrates them apart.  Deterministic (packet counts, not
    # timings), so the "rebalance" rows are safe to gate CI on.
    rebalance = measure_rebalance_point(n_shards=4, num_meetings=50)
    print()
    print(format_rebalance_point(rebalance))
    benchmark.extra_info["rebalance_skew_static"] = round(rebalance.skew_static, 3)
    benchmark.extra_info["rebalance_skew_rebalanced"] = round(rebalance.skew_rebalanced, 3)
    benchmark.extra_info["rebalance_skew_reduction"] = round(rebalance.skew_reduction, 3)

    # executor matrix + Amdahl crossover: {serial, thread, process} x k x
    # {plain, srtp}.  Every point records its GIL regime — thread numbers
    # from a GIL build and a free-threaded build are different experiments,
    # and the regression gate refuses to compare across regimes.
    parallelism_points = run_parallelism_matrix()
    print()
    print(format_parallelism_matrix(parallelism_points))
    crossover = measure_parallelism_crossover()
    print(
        f"crossover (thread-k4 > serial-k1 by >{crossover['margin'] - 1.0:.0%}): "
        f"srtp rounds = {crossover['crossover_rounds']} "
        f"(None = never, expected under a GIL)"
    )
    par_by_key = {(p.executor, p.n_shards, p.srtp_rounds): p for p in parallelism_points}
    thread_ratio = (
        par_by_key[("thread", 4, 0)].pps / par_by_key[("serial", 1, 0)].pps
    )
    benchmark.extra_info["thread_k4_vs_serial_k1"] = round(thread_ratio, 3)
    benchmark.extra_info["gil_enabled"] = gil_enabled()

    # default to an untracked *.local.json so no bench run (local or CI) can
    # dirty the committed regression baseline; the env var exists for tools
    # that need the artifact somewhere else.  Written before the asserts on
    # purpose: the fresh measurement can never touch the committed baseline,
    # so a failing run should still leave its point data behind for
    # diagnosis (CI uploads it via if: always()).
    artifact_path = os.environ.get(SHARD_ARTIFACT_ENV, "BENCH_shard_throughput.local.json")
    with open(artifact_path, "w") as handle:
        json.dump(
            {
                "benchmark": "shard_throughput_50_meetings",
                "points": [_point_dict(point) for point in points],
                "speedup_k4_vs_k1": round(speedup, 3),
                "wire_speedup_serial_k1": round(wire_speedup, 3),
                "process_k4_vs_serial_k1": round(process_speedup, 3),
                "transport": {
                    key: (round(value, 2) if isinstance(value, float) else value)
                    for key, value in transport.items()
                },
                "coordinator": coordinator,
                "parallelism": {
                    "python": platform.python_version(),
                    "gil_enabled": gil_enabled(),
                    "thread_k4_vs_serial_k1": round(thread_ratio, 3),
                    "points": [dataclasses.asdict(point) | {"pps": round(point.pps)}
                               for point in parallelism_points],
                    "crossover": crossover,
                },
                "rebalance": {
                    "n_shards": rebalance.n_shards,
                    "num_meetings": rebalance.num_meetings,
                    "num_packets": rebalance.num_packets,
                    "batches": rebalance.batches,
                    "skew_static": round(rebalance.skew_static, 4),
                    "skew_rebalanced": round(rebalance.skew_rebalanced, 4),
                    "skew_reduction": round(rebalance.skew_reduction, 4),
                    "migrations": rebalance.migrations,
                    "shard_packets_static": list(rebalance.shard_packets_static),
                    "shard_packets_rebalanced": list(rebalance.shard_packets_rebalanced),
                },
                "note": (
                    "serial/object points track partition overhead under one GIL "
                    "(flat throughput is the expected ceiling). serial/wire measures "
                    "the wire-native PacketView datapath on the same workload. "
                    "process/wire points run the per-shard worker pools over the "
                    "zero-pickle packed shard transport; 'transport' compares that "
                    "transport's per-batch bytes against pickle.dumps of the same "
                    "object graphs (headers ship, payload bytes stay home). "
                    "'rebalance' is the skewed-workload sweep: Zipf hot senders "
                    "colocated by the CRC32 default vs the same workload with the "
                    "placement control loop armed (deterministic packet counts; "
                    "skew_rebalanced is CI-gated against this baseline). "
                    "'parallelism' is the executor matrix ({serial, thread, "
                    "process} x k x {plain, srtp}) on wire-native ingress: "
                    "srtp_rounds scales SRTP-grade per-packet crypto work, "
                    "every point records its GIL regime, and 'crossover' "
                    "sweeps that work level to find where thread-k4 first "
                    "beats serial-k1 by more than the stated margin "
                    "(crossover_rounds is None under a GIL, where ratios "
                    "hover at parity and only jitter crosses 1.0; on a "
                    "free-threaded interpreter it is the headline Amdahl "
                    "number). thread_k4_vs_serial_k1 "
                    "(plain points) is CI-gated, but only within one GIL "
                    "regime — the gate refuses cross-regime comparisons. "
                    "'coordinator' is the Amdahl stage profile of the sharded "
                    "batch loop at k=4 (per-stage ns, ns/packet, and "
                    "serial_fraction = coordinator-thread share of wall time); "
                    "the serial executor's partition+codec ns/packet is "
                    "CI-gated against this baseline."
                ),
            },
            handle,
            indent=2,
        )

    # GIL-bound by construction (see module docstring): require the
    # partition/reassembly overhead at k=4 to stay within 40% of the k=1
    # engine rather than asserting an impossible serial speedup
    assert speedup >= 0.6
    # ...and the converse plausibility check: under one GIL, k=4 serial does
    # strictly more work than k=1, so a big apparent serial "speedup" means
    # the k=1 reference pass was an outlier-slow run.  That point is both the
    # committed regression baseline and the normalizer for every headline
    # ratio, so fail loudly rather than let such a run be promoted to the
    # baseline (10% headroom for shared-runner jitter on top of best-of-5).
    assert speedup <= 1.1, (
        f"serial k=4/k=1 speedup {speedup:.3f} > 1.1 is implausible under one "
        "GIL; the k=1 serial/object baseline run was likely noise-depressed — "
        "do not promote this run's artifact to the committed baseline"
    )
    # the packed transport's whole point: per-batch serialization volume
    # must shrink by at least 5x against pickled object graphs (it is
    # typically >10x — only headers and rewrite descriptions cross)
    assert transport["total_shrink"] >= 5.0
    # the placement loop's whole point: on the Zipf hot-sender workload the
    # rebalancer must cut max/mean per-shard packet skew at least 2x vs the
    # static CRC32 map (deterministic counts — no timing noise headroom)
    assert rebalance.skew_reduction >= 2.0, (
        f"rebalancer cut skew only {rebalance.skew_reduction:.2f}x "
        f"({rebalance.skew_static:.2f}x -> {rebalance.skew_rebalanced:.2f}x)"
    )
    # srtp plausibility: the profile exists to add per-packet work, so the
    # serial engine must measurably slow down under it (if it doesn't, the
    # datapath stopped protecting and the matrix is measuring nothing)
    assert par_by_key[("serial", 1, 1)].pps < par_by_key[("serial", 1, 0)].pps, (
        "serial srtp point is not slower than the plain point — the SRTP "
        "unprotect/re-protect work is not reaching the datapath"
    )
    # thread-executor plausibility (not a perf gate — that lives in
    # tools/check_bench_regression.py, within one GIL regime): the thread
    # points must exist and be on the same order as serial, i.e. the
    # executor is doing real work, not silently falling back or deadlocking
    assert thread_ratio > 0.2, (
        f"thread-k4/serial-k1 ratio {thread_ratio:.3f} is implausibly low "
        "for an in-process executor"
    )
