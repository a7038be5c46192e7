"""Sampled packet-lifecycle tracing in simulator time.

A :class:`PacketTracer` follows 1-in-N *flows* (not 1-in-N packets: a flow
is either fully traced or not at all, so a traced flow's timeline has no
gaps).  The sampling decision is deterministic — CRC32 over the canonical
``ip:port/ssrc`` flow string, the same keying :func:`repro.dataplane.sharding.
flow_shard` uses — and memoized per flow, so the steady-state cost for an
unsampled flow is one dict probe.  ``random.*`` never appears here; archlint's
determinism rule holds for this module like any ``repro.*`` module.

For each sampled packet the tracer reconstructs the
``ingress -> parse -> table-lookup -> PRE-expand -> rewrite -> egress``
span timeline.  The simulated switch charges one fixed forwarding delay per
packet (``SWITCH_FORWARDING_DELAY_S``), so the per-stage spans are that
delay apportioned by deterministic integer work weights derived from what
the datapath actually did to the packet: a parse-cache miss widens the parse
span, the PRE-expand span grows with the replica count, the rewrite span
grows when rate adaptation rewrote per-target copies.  All span arithmetic
is integer nanoseconds anchored at the datagram's simulated arrival time —
byte-identical across runs and across shard counts.

Per-stage durations also feed fixed-bucket histograms in the owning
:class:`~repro.obs.registry.MetricsRegistry` (``repro.trace.stage_ns.*``),
which is how the p50/p95/p99 stage profile lands in snapshots even after the
bounded raw-record buffer fills up.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple
from zlib import crc32

from .registry import MetricsRegistry, SIZE_BYTES_BUCKETS, STAGE_NS_BUCKETS

__all__ = ["STAGES", "PacketTracer", "flow_trace_key", "sorted_trace_records"]

#: The packet lifecycle stages, in pipeline order.
STAGES: Tuple[str, ...] = (
    "ingress",
    "parse",
    "table_lookup",
    "pre_expand",
    "rewrite",
    "egress",
)

#: One trace record: (arrival ns, flow, seq, ((stage, offset ns, duration ns), ...)).
TraceRecord = Tuple[int, str, int, Tuple[Tuple[str, int, int], ...]]


def flow_trace_key(ip: str, port: int, ssrc: int) -> str:
    """The canonical flow string — identical to the sharding key string."""
    return f"{ip}:{port}/{ssrc}"


def sorted_trace_records(records: List[TraceRecord]) -> List[TraceRecord]:
    """Deterministic record order for snapshots: by arrival, flow, seq.

    Shard-merged record lists arrive in shard order; sorting on the
    (integer, string, integer) prefix restores a total order that is
    identical for every shard count over the same traffic.
    """
    return sorted(records)


class PacketTracer:
    """Deterministic 1-in-N flow sampler plus span-timeline recorder."""

    #: Bound on the sampling memo (junk traffic mints unbounded flow keys;
    #: same limit as the datapath's flow-resolution cache, same clear-on-full
    #: policy — decisions are pure functions of the flow key, so re-deriving
    #: after a clear cannot change any sampling outcome).
    MEMO_LIMIT = 1 << 16

    __slots__ = (
        "sample_rate",
        "max_records",
        "forwarding_delay_ns",
        "records",
        "trace_memo",
        "_stage_hists",
        "_packet_bytes",
        "_registry",
    )

    def __init__(
        self,
        registry: MetricsRegistry,
        sample_rate: int = 64,
        max_records: int = 512,
        forwarding_delay_s: float = 12e-6,
    ) -> None:
        if sample_rate < 1:
            raise ValueError("sample_rate must be >= 1 (1 traces every flow)")
        self.sample_rate = sample_rate
        self.max_records = max_records
        self.forwarding_delay_ns = int(round(forwarding_delay_s * 1e9))
        self.records: List[TraceRecord] = []
        #: flow key -> sampling decision; the only state consulted per packet.
        self.trace_memo: Dict[object, bool] = {}
        self._registry = registry
        self._stage_hists = tuple(
            registry.histogram(f"repro.trace.stage_ns.{stage}", STAGE_NS_BUCKETS)
            for stage in STAGES
        )
        self._packet_bytes = registry.histogram(
            "repro.trace.packet_bytes", SIZE_BYTES_BUCKETS
        )

    # -- sampling -----------------------------------------------------------

    def classify(self, memo_key: object, ip: str, port: int, ssrc: int) -> bool:
        """Decide (and memoize under ``memo_key``) whether a flow is traced."""
        memo = self.trace_memo
        if len(memo) >= self.MEMO_LIMIT:
            memo.clear()
        decision = crc32(flow_trace_key(ip, port, ssrc).encode("ascii")) % self.sample_rate == 0
        memo[memo_key] = decision
        return decision

    def wants(self, memo_key: object, ip: str, port: int, ssrc: int) -> bool:
        cached = self.trace_memo.get(memo_key)
        if cached is None:
            return self.classify(memo_key, ip, port, ssrc)
        return cached

    # -- recording ----------------------------------------------------------

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
        """Record one sampled media packet's lifecycle.

        All inputs are facts the datapath already holds at its return site;
        nothing here reads a clock.  ``arrived_at`` is the simulated arrival
        time in seconds (None for clockless direct ``process()`` calls).
        """
        # Integer work weights per stage: deterministic, derived purely from
        # what happened to the packet.
        weights = (
            1,                                        # ingress
            1 if parse_hit else 4,                    # parse (miss = full header walk)
            1 if flow_hit else 3,                     # table lookup (miss = 3 tables)
            1 + replicas,                             # PRE expand
            1 + (2 * replicas if adapted else 0) + (1 if dropped else 0),  # rewrite
            1 + replicas,                             # egress
        )
        total_weight = 0
        for weight in weights:
            total_weight += weight
        budget = self.forwarding_delay_ns
        registry_hists = self._stage_hists
        arrival_ns = 0 if arrived_at is None else int(round(arrived_at * 1e9))
        spans: List[Tuple[str, int, int]] = []
        offset = 0
        spent = 0
        for index, stage in enumerate(STAGES):
            if index == len(STAGES) - 1:
                duration = budget - spent  # remainder: spans always sum to the delay
            else:
                duration = budget * weights[index] // total_weight
            spans.append((stage, offset, duration))
            registry_hists[index].observe(float(duration))
            offset += duration
            spent += duration
        self._packet_bytes.observe(float(size))
        self._registry.inc("repro.trace.sampled_packets")
        if len(self.records) < self.max_records:
            self.records.append((arrival_ns, flow_trace_key(ip, port, ssrc), seq, tuple(spans)))
        else:
            self._registry.inc("repro.trace.records_dropped")

    # -- folding ------------------------------------------------------------

    def fold_records(self, records: List[TraceRecord]) -> None:
        budget = self.max_records - len(self.records)
        if budget >= len(records):
            self.records.extend(records)
        else:
            if budget > 0:
                self.records.extend(records[:budget])
            self._registry.inc("repro.trace.records_dropped", len(records) - max(budget, 0))
