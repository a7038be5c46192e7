"""``repro.obs``: the unified telemetry plane.

One registry model (:mod:`~repro.obs.registry`), deterministic sampled
packet-lifecycle tracing (:mod:`~repro.obs.tracing`), per-shard hook state the
dataplane binds when armed (:mod:`~repro.obs.hooks`), a bus adapting every
existing stat surface into one namespaced snapshot (:mod:`~repro.obs.bus`),
and export paths — canonical JSON, Prometheus text, tables, plus the
versioned-schema validator CI gates on (:mod:`~repro.obs.export`).

Sim-side discipline: nothing in this package reads a wall clock or an RNG —
timestamps come from ``Simulator.now`` via the caller and sampling is CRC32
over the flow key, so archlint's determinism rule holds for every module here
(as it does for all of ``src/``; host time is measured only by ``bench/``).
"""

from .bus import CORE_SERIES, SCHEMA, TelemetryBus
from .export import render_prometheus, render_table, to_json, validate_snapshot
from .hooks import DatapathObs, ObsConfig
from .registry import (
    LATENCY_MS_BUCKETS,
    SIZE_BYTES_BUCKETS,
    STAGE_NS_BUCKETS,
    Histogram,
    MetricsRegistry,
)
from .tracing import STAGES, PacketTracer, flow_trace_key, sorted_trace_records

__all__ = [
    "CORE_SERIES",
    "DatapathObs",
    "Histogram",
    "LATENCY_MS_BUCKETS",
    "MetricsRegistry",
    "ObsConfig",
    "PacketTracer",
    "SCHEMA",
    "SIZE_BYTES_BUCKETS",
    "STAGES",
    "STAGE_NS_BUCKETS",
    "TelemetryBus",
    "flow_trace_key",
    "render_prometheus",
    "render_table",
    "sorted_trace_records",
    "to_json",
    "validate_snapshot",
]
