"""Batched vs. per-packet data-plane throughput across 1-50 meetings, and
the telemetry plane's hot-path cost.

Not a paper figure: these benchmarks guard the batch fast path.
``process`` and ``process_batch`` run media on one memoized implementation,
so per-packet entry must stay within call overhead of the batch — at the
50-meeting scenario ``process`` must reach 0.7x of ``process_batch``'s
packets/sec (byte-identity of both against the unmemoized walk is
tests/test_batch_pipeline.py's job).
"""

import cProfile
import os
import pstats
from zlib import crc32

from benchmarks.conftest import run_once
from repro.dataplane.pipeline import ScallopPipeline
from repro.experiments import (
    build_meeting_pipeline,
    format_batch_sweep,
    measure_obs_overhead,
    media_ingress,
    run_batch_throughput_sweep,
)
from repro.experiments.batch_throughput import SFU_ADDRESS
from repro.netsim.datagram import PayloadKind
from repro.obs.hooks import ObsConfig
from repro.obs.tracing import flow_trace_key

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


def _obs_engine(obs, num_meetings=50, frames=4):
    """A warm 50-meeting pipeline (obs armed or not) and its media burst."""
    engine, senders = build_meeting_pipeline(num_meetings, pipeline=ScallopPipeline(SFU_ADDRESS, obs=obs))
    traffic = media_ingress(senders, frames)
    engine.process_batch(traffic)  # fills the flow caches
    return engine, traffic


def test_disarmed_obs_makes_no_calls_into_repro_obs():
    # the telemetry plane's hot-path bargain, stated exactly: with obs
    # disarmed, process_batch never enters repro/obs/ -- counted by cProfile,
    # not timed, so host noise cannot fail or pass it
    engine, traffic = _obs_engine(obs=None)
    profiler = cProfile.Profile()
    profiler.enable()
    engine.process_batch(traffic)
    profiler.disable()
    obs_dir = os.path.join("repro", "obs") + os.sep
    stats = pstats.Stats(profiler).stats
    obs_calls = {func: row[1] for func, row in stats.items() if obs_dir in func[0]}
    assert len(stats) > 0
    assert obs_calls == {}, f"disarmed obs still called into repro/obs/: {obs_calls}"


def test_armed_obs_samples_exactly_the_crc32_selected_flows():
    rate = 64
    engine, traffic = _obs_engine(obs=ObsConfig(trace_sample_rate=rate, max_trace_records=1 << 20))
    flows = {
        flow_trace_key(d.src.ip, d.src.port, d.payload.ssrc) for d in traffic if d.kind == PayloadKind.RTP
    }
    selected = {flow for flow in flows if crc32(flow.encode("ascii")) % rate == 0}
    traced = {record[1] for record in engine.datapath.obs.tracer.records}
    assert selected, "the burst must contain at least one sampled flow"
    assert traced == selected


def test_obs_tracing_overhead(benchmark):
    # host-time overhead of arming repro.obs at the default 1-in-64 flow
    # sampling on the k=1 serial engine, reported for the record only: shared
    # runners' host-time noise (~25 %) is far above the few-percent effect,
    # so the exact checks above are the gate
    point = run_once(benchmark, measure_obs_overhead, num_meetings=50, repeats=5)
    print()
    print(
        f"obs overhead @1-in-{point.sample_rate}: bare {point.bare_pps:,.0f} pps, "
        f"traced {point.traced_pps:,.0f} pps ({point.overhead:+.2%})"
    )
    benchmark.extra_info["bare_pps"] = round(point.bare_pps)
    benchmark.extra_info["traced_pps"] = round(point.traced_pps)
    benchmark.extra_info["overhead"] = round(point.overhead, 4)
