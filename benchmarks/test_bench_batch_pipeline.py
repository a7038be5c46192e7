"""Batched vs. per-packet data-plane throughput across 1-50 meetings, and
the telemetry plane's hot-path overhead.

Not a paper figure: these benchmarks guard the batch fast path.
``process`` and ``process_batch`` run media on one memoized implementation,
so per-packet entry must stay within call overhead of the batch — at the
50-meeting scenario ``process`` must reach 0.7x of ``process_batch``'s
packets/sec (byte-identity of both against the unmemoized walk is
tests/test_batch_pipeline.py's job).
"""

from benchmarks.conftest import run_once
from repro.experiments import (
    format_batch_sweep,
    measure_obs_overhead,
    run_batch_throughput_sweep,
)

MEETING_COUNTS = [1, 10, 50]


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
    # (order alternating per repeat, warm engines, GC deferred), so slow
    # machine drift across the run cancels instead of polluting the
    # comparison the way a best-of-N-vs-best-of-N ratio can.
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
