"""Telemetry bus: every existing stat surface, one namespaced snapshot.

The repo grew its observability organically — :class:`~repro.dataplane.
pipeline.PipelineCounters`, ``ShardedScallopPipeline.shard_load()``,
:class:`~repro.dataplane.loadstats.FlowLoadTracker` EWMA rows,
:class:`~repro.dataplane.resources.ResourceAccountant` utilization,
rebalancer decisions — each with its own ad-hoc dict shape.
:class:`TelemetryBus` adapts all of them into one
:class:`~repro.obs.registry.MetricsRegistry` under a stable metric namespace:

======================================  =======================================
prefix                                  source
======================================  =======================================
``repro.dataplane.*``                   merged :class:`PipelineCounters`
``repro.dataplane.shardN.*``            per-shard ``shard_load()`` rows + pps
``repro.load.*``                        :class:`FlowLoadTracker` EWMA rows
``repro.rebalance.*``                   planner tallies + migration decisions
``repro.resources.*``                   global resource-ledger utilization
``repro.trunk.*``                       inter-SFU federation counters
                                        (:class:`~repro.cluster.TrunkStats`;
                                        zero-valued on a non-federated
                                        engine, so the schema is
                                        topology-invariant)
``repro.trace.*``                       per-shard packet-lifecycle tracing
``repro.client.e2e_latency_ms``         client-side RTP latency samples
======================================  =======================================

The ``repro.transport.*`` series (the removed process shard executor's byte
counters) and the ``repro.coord.*`` series (the removed wall-clock
coordinator stage profile) are gone from ``repro.obs/v1`` snapshots.

The bus only *reads*: it introspects engines duck-typed through ``getattr``
(both :class:`ScallopPipeline` and :class:`ShardedScallopPipeline` work, and
so would any future engine exposing the same surfaces), merges the per-shard
obs registries commutatively, and restores the shard-count-invariant total
order over trace records.  Nothing here reads a clock — ``sim_time_s`` is
handed in by the caller from ``Simulator.now`` — so two runs of one seeded
scenario write byte-identical snapshots.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .registry import LATENCY_MS_BUCKETS, MetricsRegistry
from .tracing import TraceRecord, sorted_trace_records

__all__ = ["SCHEMA", "CORE_SERIES", "TRUNK_KEYS", "TelemetryBus"]

#: Version tag stamped into every snapshot; consumers (the CI gate, the
#: federation/SLA layers to come) validate against it before reading series.
SCHEMA = "repro.obs/v1"

#: The counter fields of :class:`~repro.cluster.TrunkStats`, pinned here so
#: every snapshot carries the federation series (zero-valued on a single-box
#: engine) — a dashboard built against a cluster run reads unchanged against
#: a classic one.  ``subscriptions`` is a gauge
#: accumulated across engines (each box's live subscription count sums into
#: the fleet total).
TRUNK_KEYS = (
    "packets_in",
    "bytes_in",
    "stragglers_forwarded",
    "migrations_in",
    "migrations_out",
    "snapshot_bytes",
)

#: Integer fields of :class:`PipelineCounters` exported as counters.
_COUNTER_FIELDS = (
    "data_plane_packets",
    "data_plane_bytes",
    "cpu_packets",
    "cpu_bytes",
    "replicas_out",
    "adaptation_drops",
    "table_misses",
    "srtp_auth_failures",
)

#: Series every complete SFU snapshot must carry (validated by
#: :func:`repro.obs.export.validate_snapshot`; the CI gate exits non-zero when
#: one is missing or non-finite).
CORE_SERIES = (
    "repro.dataplane.data_plane_packets",
    "repro.dataplane.shard0.pps",
    "repro.trunk.packets_in",
    "repro.trunk.subscriptions",
    "repro.client.e2e_latency_ms",
)


class TelemetryBus:
    """Adapt stat surfaces into one registry; emit versioned snapshots."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.traces: List[TraceRecord] = []
        #: Fleet-total trunk subscriptions: ``set_gauge`` overwrites per
        #: engine, so the running total accumulates here across
        #: :meth:`add_engine` calls.
        self._trunk_subscriptions = 0

    # ------------------------------------------------------------------ adapters

    def add_engine(self, engine: object, sim_time_s: float = 0.0) -> None:
        """Fold one pipeline engine's entire stat surface into the bus.

        Works on both the single-datapath and the sharded engine; every
        surface is probed with ``getattr`` so an engine lacking one (e.g. no
        rebalancer armed) simply contributes nothing under that prefix.
        """
        registry = self.registry

        counters = getattr(engine, "counters", None)
        if counters is not None:
            for name in _COUNTER_FIELDS:
                registry.inc("repro.dataplane." + name, int(getattr(counters, name, 0)))
            for label, packets in getattr(counters, "by_class_packets", {}).items():
                registry.inc(f"repro.dataplane.class.{label}.packets", int(packets))

        self._add_shard_rows(engine, counters, sim_time_s)
        self._add_trunk(engine)
        self._add_load_and_rebalance(engine)

        accountant = getattr(engine, "accountant", None)
        if accountant is not None and hasattr(accountant, "utilization"):
            for name, value in accountant.utilization().items():
                registry.set_gauge("repro.resources." + name, float(value))

        self._add_obs(engine)

    def _add_shard_rows(
        self, engine: object, counters: object, sim_time_s: float
    ) -> None:
        registry = self.registry
        shard_load = getattr(engine, "shard_load", None)
        if callable(shard_load):
            rows = shard_load()
        elif counters is not None:
            # single-datapath engine: synthesize the one-shard row so the
            # per-shard series exist for every engine kind
            rows = [
                {
                    "shard": 0,
                    "data_plane_packets": counters.data_plane_packets,
                    "cpu_packets": counters.cpu_packets,
                    "replicas_out": counters.replicas_out,
                }
            ]
        else:
            return
        for index, row in enumerate(rows):
            shard = int(row.get("shard", index))
            prefix = f"repro.dataplane.shard{shard}."
            packets = 0
            for name, value in row.items():
                if name == "shard":
                    continue
                if name == "data_plane_packets":
                    packets = int(value)
                registry.inc(prefix + name, int(value))
            pps = packets / sim_time_s if sim_time_s > 0.0 else 0.0
            registry.set_gauge(prefix + "pps", pps)

    def _add_trunk(self, engine: object) -> None:
        """Fold a federated box's trunk counters into ``repro.trunk.*``.

        A :class:`~repro.cluster.ClusterSfu` exports its
        :class:`~repro.cluster.TrunkStats` on the pipeline as
        ``trunk_stats``; a classic engine has none and contributes zeros, so
        the namespace exists in every snapshot.
        """
        registry = self.registry
        stats = getattr(engine, "trunk_stats", None)
        for key in TRUNK_KEYS:
            value = 0 if stats is None else int(getattr(stats, key, 0))
            registry.inc("repro.trunk." + key, value)
        self._trunk_subscriptions += 0 if stats is None else int(
            getattr(stats, "subscriptions", 0)
        )
        registry.set_gauge("repro.trunk.subscriptions", float(self._trunk_subscriptions))

    def _add_load_and_rebalance(self, engine: object) -> None:
        registry = self.registry
        tracker = getattr(engine, "load_tracker", None)
        if tracker is not None and hasattr(tracker, "snapshot"):
            snap = tracker.snapshot()
            registry.inc("repro.load.batches_observed", int(snap["batches_observed"]))
            registry.set_gauge("repro.load.flows_tracked", float(snap["flows_tracked"]))
            registry.set_gauge("repro.load.skew_ratio", float(snap["skew_ratio"]))
            for shard, rate in enumerate(snap["shard_rates"]):
                registry.set_gauge(f"repro.load.shard{shard}.rate", float(rate))
        rebalancer = getattr(engine, "rebalancer", None)
        if rebalancer is not None:
            registry.inc(
                "repro.rebalance.epochs_planned", int(getattr(rebalancer, "epochs_planned", 0))
            )
            registry.inc(
                "repro.rebalance.flows_migrated", int(getattr(rebalancer, "flows_migrated", 0))
            )
            registry.inc(
                "repro.rebalance.plans_with_migrations",
                int(getattr(rebalancer, "plans_with_migrations", 0)),
            )
            registry.set_gauge(
                "repro.rebalance.last_observed_skew",
                float(getattr(rebalancer, "last_observed_skew", 1.0)),
            )
            registry.set_gauge(
                "repro.rebalance.last_projected_skew",
                float(getattr(rebalancer, "last_projected_skew", 1.0)),
            )
            registry.inc(
                "repro.rebalance.migrations_applied",
                int(getattr(engine, "migrations_applied", 0)),
            )

    def _add_obs(self, engine: object) -> None:
        """Merge per-shard obs registries and restore trace-record order.

        The merge is read-only (per-shard registries are untouched) and
        commutative, and the final :func:`sorted_trace_records` pass erases
        shard order — the shard-count-invariance contract.
        """
        shards = getattr(engine, "shards", None)
        if shards:
            obs_list = [shard.obs for shard in shards if getattr(shard, "obs", None) is not None]
        else:
            datapath = getattr(engine, "datapath", None)
            obs = getattr(datapath, "obs", None) if datapath is not None else None
            obs_list = [obs] if obs is not None else []
        records: List[TraceRecord] = []
        for obs in obs_list:
            self.registry.merge(obs.registry)
            if obs.tracer is not None:
                records.extend(obs.tracer.records)
        if records:
            self.traces.extend(sorted_trace_records(records))

    def add_latency_samples(
        self, samples_ms: Sequence[float], name: str = "repro.client.e2e_latency_ms"
    ) -> None:
        """Fold end-to-end latency samples (milliseconds) into the standard
        latency histogram.  Registers the series even for zero samples so the
        core-series schema holds on traffic-free runs."""
        histogram = self.registry.histogram(name, LATENCY_MS_BUCKETS)
        for sample in samples_ms:
            histogram.observe(float(sample))

    # ------------------------------------------------------------------ export

    def snapshot(self, sim_time_s: float = 0.0) -> Dict[str, object]:
        """The versioned snapshot: schema tag, sim clock, series, traces.

        Plain builtins only (JSON round-trips to an equal object), with the
        trace timeline rendered as nested lists in the total order
        :func:`sorted_trace_records` defines.
        """
        return {
            "schema": SCHEMA,
            "sim_time_s": float(sim_time_s),
            "series": self.registry.snapshot_series(),
            "traces": [
                [arrival_ns, flow, seq, [[stage, offset, duration] for stage, offset, duration in spans]]
                for arrival_ns, flow, seq, spans in self.traces
            ],
        }
