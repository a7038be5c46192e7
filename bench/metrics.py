"""Names, units and directions of every ledger metric (one place).

``BENCHMARK.json`` repeats these with the regression bounds; the smoke test
asserts the two stay in step.  Host-time units are ``s``/``ms``/``ns`` of the
machine running the benchmark; metrics prefixed ``sim_`` are *simulated*
time and repeat exactly for a fixed seed and horizon.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .layers import LAYERS

#: (name, unit, better)
Metric = Tuple[str, str, str]

END_TO_END: List[Metric] = [
    ("sfu_pkts_per_wall_s", "pkts/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]

_COUNTS: List[Metric] = [
    ("netsim.events", "count", "lower"),
    ("netsim.events_per_fwd_pkt", "ratio", "lower"),
    ("netsim.link_pkts_sent", "count", "lower"),
    ("netsim.link_pkts_dropped", "count", "lower"),
    ("webrtc.pkts_received", "count", "higher"),
    ("webrtc.frames_decoded", "count", "higher"),
    ("webrtc.nacks_sent", "count", "lower"),
    ("webrtc.plis_sent", "count", "lower"),
    ("webrtc.freeze_events", "count", "lower"),
    ("dataplane.pkts_in", "count", "higher"),
    ("dataplane.replicas_out", "count", "higher"),
    ("dataplane.replication_factor", "ratio", "lower"),
    ("dataplane.cpu_punt_share", "ratio", "lower"),
    ("dataplane.adaptation_drops", "count", "lower"),
    ("dataplane.table_misses", "count", "lower"),
    ("sharding.batches", "count", "lower"),
    ("sharding.mean_batch_pkts", "pkts", "higher"),
    ("sharding.skew", "ratio", "lower"),
    ("sharding.migrations", "count", "lower"),
    ("core.rule_updates", "count", "lower"),
    ("core.decode_target_changes", "count", "lower"),
    ("core.remb_handled", "count", "lower"),
    ("core.nack_pli_handled", "count", "lower"),
    ("core.cross_meeting_streams", "count", "lower"),
    ("scenario.reconcile_problems", "count", "lower"),
    ("scenario.fingerprint_drift", "count", "lower"),
    ("cluster.trunk_pkts_in", "count", "lower"),
    ("cluster.meeting_migrations", "count", "lower"),
    ("cluster.snapshot_bytes", "bytes", "lower"),
]

#: Boundary probes: the harness calls one public function in a loop.  Each
#: belongs to the workload whose cost it isolates and reads 0 elsewhere.
PROBES: Dict[str, List[Metric]] = {
    "steady": [
        ("netsim.schedule_run_ns_per_event", "ns", "lower"),
        ("netsim.send_ns_per_pkt", "ns", "lower"),
        ("webrtc.encode_ns_per_pkt", "ns", "lower"),
        ("webrtc.decode_ns_per_pkt", "ns", "lower"),
        ("webrtc.gcc_ns_per_pkt", "ns", "lower"),
    ],
    "zipf_hotset": [
        ("netsim.send_burst_ns_per_pkt", "ns", "lower"),
        ("rtp.to_wire_ns_per_pkt", "ns", "lower"),
        ("rtp.from_wire_ns_per_pkt", "ns", "lower"),
        ("rtp.wirebatch_ns_per_pkt", "ns", "lower"),
        ("sharding.k4_serial_ns_per_pkt", "ns", "lower"),
        ("sharding.partition_ns_per_pkt", "ns", "lower"),
    ],
    "adapt_loss": [
        ("rtp.rtcp_roundtrip_ns", "ns", "lower"),
        ("seqrewrite.slm_ns_per_pkt", "ns", "lower"),
        ("seqrewrite.slr_ns_per_pkt", "ns", "lower"),
    ],
    "control_churn": [
        ("core.signaling_ms_per_join", "ms", "lower"),
        ("core.sfu_join_ms_p50", "ms", "lower"),
        ("core.sfu_leave_ms_p50", "ms", "lower"),
        ("cluster.migrate_ms_p50", "ms", "lower"),
    ],
    "dataplane_batch": [
        ("dataplane.parse_ns_per_pkt", "ns", "lower"),
        ("dataplane.process_ns_per_pkt", "ns", "lower"),
        ("dataplane.batch_obj_ns_per_pkt", "ns", "lower"),
        ("dataplane.batch_wire_ns_per_pkt", "ns", "lower"),
        ("dataplane.batch_cold_ns_per_pkt", "ns", "lower"),
        ("dataplane.pre_expand_ns_per_replica", "ns", "lower"),
    ],
}

#: Measured in the untraced half of a ``--trace 1`` run (host time) or exact
#: for a fixed seed and horizon (``sim_*``).  They are not end-to-end metrics
#: of the contract because they exist on some workloads only, or because
#: they move with the seed more than with the code (how many packets one
#: simulated second carries is decided by the congestion-control feedback
#: loop, so ``wall_s_per_sim_s`` compares runs of one seed only).
_WINDOW: List[Metric] = [
    ("wall_s_per_sim_s", "s/sim_s", "lower"),
    ("sfu_ingress_pkts_per_wall_s", "pkts/s", "higher"),
    ("op_ms_p99", "ms", "lower"),
    ("core.op_span_share", "ratio", "higher"),
    ("sim_latency_ms_p50", "ms", "lower"),
    ("sim_latency_ms_p99", "ms", "lower"),
    ("sim_recv_fps_mean", "1/s", "higher"),
    ("trace_overhead_ratio", "ratio", "lower"),
]

PER_LAYER: List[Metric] = (
    [
        (f"{layer}.{field}", unit, "lower")
        for layer in LAYERS
        for field, unit in (("self_s", "s"), ("share", "ratio"), ("calls", "count"))
    ]
    + _COUNTS
    + [metric for probes in PROBES.values() for metric in probes]
    + _WINDOW
)

UNITS: Dict[str, str] = {name: unit for name, unit, _better in END_TO_END + PER_LAYER}
