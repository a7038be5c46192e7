"""Hot-path hook objects the dataplane binds when observability is armed.

``ObsConfig`` is a tiny frozen dataclass carried by
:class:`~repro.dataplane.pipeline.PipelineControlPlane`; every datapath the
control plane serves arms its own per-shard obs state from it, so all shards
are instrumented identically and metric folds stay shard-count-invariant.

``DatapathObs`` is the per-shard bundle: one private
:class:`~repro.obs.registry.MetricsRegistry` plus one
:class:`~repro.obs.tracing.PacketTracer`.  It is datapath-private state
(never aliased across shards, never part of the control plane), so the
shard-isolation sanitizer has nothing to wrap and the share-nothing rule has
nothing to flag.  The disabled path costs the datapath one attribute load
and branch per packet; the enabled-but-unsampled path adds one memo-dict
probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .registry import MetricsRegistry
from .tracing import PacketTracer

__all__ = ["ObsConfig", "DatapathObs"]


@dataclass(frozen=True)
class ObsConfig:
    """Declarative observability knobs, snapshot-safe by construction."""

    #: Trace 1 flow in N (deterministic CRC32 over the flow key); 0 disables
    #: lifecycle tracing while keeping the registry armed.
    trace_sample_rate: int = 64
    #: Upper bound on retained raw trace records (histograms keep absorbing
    #: sampled packets after the buffer fills).
    max_trace_records: int = 512


class DatapathObs:
    """Per-shard observability state: one registry, one tracer."""

    __slots__ = ("registry", "tracer", "trace_memo", "shard_id")

    def __init__(
        self,
        config: ObsConfig,
        shard_id: int = 0,
        forwarding_delay_s: float = 12e-6,
    ) -> None:
        self.registry = MetricsRegistry()
        self.shard_id = shard_id
        if config.trace_sample_rate > 0:
            self.tracer: Optional[PacketTracer] = PacketTracer(
                self.registry,
                sample_rate=config.trace_sample_rate,
                max_records=config.max_trace_records,
                forwarding_delay_s=forwarding_delay_s,
            )
            #: Aliased from the tracer so the datapath's per-packet probe is
            #: a single attribute load away from the decision dict.
            self.trace_memo: Dict[object, bool] = self.tracer.trace_memo
        else:
            self.tracer = None
            self.trace_memo = {}

    # -- hot-path entry points ---------------------------------------------

    def classify(self, memo_key: object, ip: str, port: int, ssrc: int) -> bool:
        tracer = self.tracer
        if tracer is None:
            memo = self.trace_memo
            if len(memo) >= PacketTracer.MEMO_LIMIT:
                memo.clear()
            memo[memo_key] = False
            return False
        return tracer.classify(memo_key, ip, port, ssrc)

    def record_media(
        self,
        ip: str,
        port: int,
        ssrc: int,
        seq: int,
        arrived_at: Optional[float],
        size: int,
        parse_hit: bool,
        flow_hit: bool,
        replicas: int,
        dropped: int,
        adapted: bool,
    ) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.record_media(
                ip, port, ssrc, seq, arrived_at, size,
                parse_hit, flow_hit, replicas, dropped, adapted,
            )

    # -- folding ------------------------------------------------------------

    def merge_from(self, other: "DatapathObs") -> None:
        """Read-only fold of another shard's obs state into this one
        (used by snapshot-time merges)."""
        self.registry.merge(other.registry)
        if self.tracer is not None and other.tracer is not None:
            self.tracer.fold_records(list(other.tracer.records))
