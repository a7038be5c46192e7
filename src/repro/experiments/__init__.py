"""One module per paper table/figure, plus shared experiment scaffolding.

Every experiment topology is built through the declarative Scenario API
(:mod:`repro.scenario`).

| Paper artifact | Module |
|---|---|
| Table 1 (control/data-plane packet split) | :mod:`repro.experiments.table_packets` |
| Table 2 (capture summary) / Figures 2, 20-24 | :mod:`repro.experiments.fig_trace` |
| Table 3 (Tofino resources) | :mod:`repro.experiments.table_resources` |
| Figures 3-4 (software SFU overload) | :mod:`repro.experiments.fig_overload` |
| Figure 14 (SVC rate adaptation) | :mod:`repro.experiments.fig_rate_adaptation` |
| Figures 15-17 (scalability) | :mod:`repro.experiments.fig_scalability` |
| Figure 18 (sequence rewriting overhead) | :mod:`repro.experiments.fig_seqrewrite` |
| Figure 19 (forwarding latency) | :mod:`repro.experiments.fig_latency` |
"""

from .coordstats import CoordinatorStats
from .batch_throughput import (
    BatchThroughputPoint,
    ObsOverheadPoint,
    RebalancePoint,
    build_meeting_pipeline,
    build_skewed_meeting_pipeline,
    format_batch_sweep,
    format_rebalance_point,
    measure_obs_overhead,
    measure_rebalance_point,
    media_ingress,
    run_batch_throughput_sweep,
    skewed_media_ingress,
    zipf_frames,
)
from .table_packets import PacketAccountingResult, format_table, run_packet_accounting
from .table_resources import ResourceReport, format_report, run_resource_report
from .fig_latency import LatencyComparisonResult, format_comparison, run_latency_comparison
from .fig_overload import OverloadConfig, OverloadResult, format_overload, run_overload_experiment
from .fig_rate_adaptation import (
    RateAdaptationConfig,
    RateAdaptationResult,
    format_rate_adaptation,
    run_rate_adaptation,
)
from .fig_scalability import (
    ScalabilityHeadline,
    format_design_space,
    format_headline,
    headline_numbers,
    run_design_space_sweep,
    run_improvement_sweep,
    run_minmax_sweep,
)
from .fig_seqrewrite import (
    RewriteOverheadPoint,
    evaluate_loss_rate,
    format_sweep,
    run_rewrite_overhead_sweep,
)
from .fig_trace import (
    AgentBytesResult,
    ConcurrencyResult,
    StreamsPerMeetingResult,
    SvcAdaptationFigures,
    build_dataset,
    run_agent_bytes,
    run_capture_summary,
    run_concurrency,
    run_streams_per_meeting,
    run_svc_adaptation_example,
)

__all__ = [
    "BatchThroughputPoint",
    "CoordinatorStats",
    "ObsOverheadPoint",
    "RebalancePoint",
    "build_meeting_pipeline",
    "build_skewed_meeting_pipeline",
    "format_batch_sweep",
    "format_rebalance_point",
    "measure_obs_overhead",
    "measure_rebalance_point",
    "media_ingress",
    "run_batch_throughput_sweep",
    "skewed_media_ingress",
    "zipf_frames",
    "PacketAccountingResult",
    "format_table",
    "run_packet_accounting",
    "ResourceReport",
    "format_report",
    "run_resource_report",
    "LatencyComparisonResult",
    "format_comparison",
    "run_latency_comparison",
    "OverloadConfig",
    "OverloadResult",
    "format_overload",
    "run_overload_experiment",
    "RateAdaptationConfig",
    "RateAdaptationResult",
    "format_rate_adaptation",
    "run_rate_adaptation",
    "ScalabilityHeadline",
    "format_design_space",
    "format_headline",
    "headline_numbers",
    "run_design_space_sweep",
    "run_improvement_sweep",
    "run_minmax_sweep",
    "RewriteOverheadPoint",
    "evaluate_loss_rate",
    "format_sweep",
    "run_rewrite_overhead_sweep",
    "AgentBytesResult",
    "ConcurrencyResult",
    "StreamsPerMeetingResult",
    "SvcAdaptationFigures",
    "build_dataset",
    "run_agent_bytes",
    "run_capture_summary",
    "run_concurrency",
    "run_streams_per_meeting",
    "run_svc_adaptation_example",
]
