"""Per-flow / per-shard load telemetry for the placement control loop.

The sharded engine (:class:`~repro.dataplane.sharding.ShardedScallopPipeline`)
partitions ingress bursts across share-nothing datapath shards with a static
CRC32 flow hash.  That hash knows nothing about load: a handful of hot senders
(big meetings, high frame rates) can pin one shard at a multiple of its
siblings' packet rate while the hash keeps feeding it.  This module is the
*telemetry* leg of the closed telemetry -> policy -> migration loop that fixes
that: it observes every batch at the partitioning point, folds the counts into
exponentially-weighted moving averages, and exposes the smoothed per-flow and
per-shard rates that the placement policy
(:mod:`repro.dataplane.rebalance`) decides over.

Design notes:

* **EWMA over raw counts.**  Batch sizes follow instantaneous simulation load
  (NIC-style moderation upstream), so raw per-batch counts are spiky.  The
  tracker smooths with ``rate = alpha * batch_count + (1 - alpha) * rate``
  per observed batch, which converges on the per-batch packet rate while
  damping one-off bursts; ``alpha`` trades reactivity against stability and
  is owned by the policy config.
* **Flows are the unit of placement.**  A flow is the partition key the engine
  already routes on — ``(source address, SSRC)`` for RTP media, ``(source
  address, -1)`` for a sender's control traffic — so the tracker's per-flow
  rows are directly actionable: every row *can* be migrated.
* **Shard rows are traffic only.**  ``shard_rates`` is derived from the same
  flow observations the policy ranks (so policy math is self-consistent).
  Resource occupancy is not per shard: every charge lands on the switch's
  one global ledger.
* **Bounded.**  Junk traffic mints unknown flow keys; the tracker keeps at
  most ``max_flows`` rows and evicts the coldest when full, which is safe
  because a flow cold enough to be evicted is by definition not a migration
  candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..netsim.datagram import Address

#: A placement-addressable flow: ``(source address, ssrc)`` with ``ssrc=-1``
#: for non-RTP control traffic of that source.
FlowKey = Tuple[Address, int]


@dataclass
class FlowLoadRow:
    """Smoothed load state of one flow."""

    shard: int
    rate: float = 0.0           # EWMA packets per batch (ingress)
    #: EWMA *replicas* per batch: the flow's egress fan-out.  A sender in a
    #: 10-participant meeting costs ~3x the egress work of one in a
    #: 3-participant meeting at equal ingress rate; this term is what lets
    #: the placement policy balance egress work, not just ingress packets.
    egress_rate: float = 0.0
    packets_total: int = 0      # lifetime packet count (diagnostics)
    last_seen_batch: int = 0    # batch index of the last observation
    #: Batch index of the flow's last migration (policy cooldown input).
    last_migrated_batch: int = -1

    def weight(self, egress_weight: float = 0.0) -> float:
        """The flow's load contribution: ingress rate plus weighted fan-out."""
        return self.rate + egress_weight * self.egress_rate


class FlowLoadTracker:
    """EWMA-smoothed per-flow and per-shard packet-load telemetry.

    Fed by the sharded engine once per processed batch with the per-flow
    packet counts it already computed while partitioning (so telemetry costs
    one dict pass per batch, not per packet).  All rates are in packets per
    observed batch.
    """

    def __init__(self, n_shards: int, alpha: float = 0.3, max_flows: int = 4096) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = n_shards
        self.alpha = alpha
        self.max_flows = max_flows
        self.batches_observed = 0
        self.flows: Dict[FlowKey, FlowLoadRow] = {}
        #: EWMA packets per batch per shard, derived from the same per-flow
        #: observations the policy ranks, so the two views cannot disagree.
        self.shard_rates: List[float] = [0.0] * n_shards

    # ------------------------------------------------------------------ feeding

    def observe_batch(
        self,
        flow_counts: Mapping[FlowKey, int],
        flow_shards: Mapping[FlowKey, int],
        flow_replicas: Optional[Mapping[FlowKey, int]] = None,
    ) -> None:
        """Fold one batch's per-flow packet counts into the moving averages.

        ``flow_counts`` maps each flow seen this batch to its packet count;
        ``flow_shards`` maps it to the shard that processed it (the engine's
        current placement); ``flow_replicas`` (optional) maps it to the
        egress replicas the batch produced for it, feeding the per-flow
        fan-out EWMA the policy's egress weighting reads.  Flows *not* seen
        this batch decay toward zero.
        """
        self.batches_observed += 1
        batch = self.batches_observed
        alpha = self.alpha
        decay = 1.0 - alpha
        flows = self.flows

        shard_totals = [0.0] * self.n_shards
        for key, count in flow_counts.items():
            shard = flow_shards[key]
            replicas = flow_replicas.get(key, 0) if flow_replicas is not None else 0
            row = flows.get(key)
            if row is None:
                if len(flows) >= self.max_flows:
                    self._evict_coldest()
                row = flows[key] = FlowLoadRow(shard=shard)
                row.rate = float(count)
                row.egress_rate = float(replicas)
            else:
                row.rate = alpha * count + decay * row.rate
                row.egress_rate = alpha * replicas + decay * row.egress_rate
                row.shard = shard
            row.packets_total += count
            row.last_seen_batch = batch
        # decay flows silent this batch (they contributed 0 packets)
        for key, row in flows.items():
            if row.last_seen_batch != batch:
                row.rate *= decay
                row.egress_rate *= decay
            shard_totals[row.shard] += row.rate
        for shard in range(self.n_shards):
            self.shard_rates[shard] = shard_totals[shard]

    def forget_flows(self, src: Address) -> int:
        """Drop every tracked flow of ``src`` (participant leave); the rows
        would only decay toward zero otherwise, and a later joiner reusing
        the address must start from fresh telemetry."""
        stale = [key for key in self.flows if key[0] == src]
        for key in stale:
            del self.flows[key]
        return len(stale)

    def note_migration(self, key: FlowKey, to_shard: int) -> None:
        """Record that a flow was just migrated (policy cooldown anchor)."""
        row = self.flows.get(key)
        if row is not None:
            row.shard = to_shard
            row.last_migrated_batch = self.batches_observed

    def _evict_coldest(self) -> None:
        coldest = min(self.flows, key=lambda key: self.flows[key].rate)
        del self.flows[coldest]

    # ------------------------------------------------------------------ reading

    def skew_ratio(self) -> float:
        """Max/mean per-shard smoothed packet rate (1.0 = perfectly even)."""
        total = sum(self.shard_rates)
        if total <= 0.0 or self.n_shards < 2:
            return 1.0
        mean = total / self.n_shards
        return max(self.shard_rates) / mean

    def shard_weights(self, egress_weight: float = 0.0) -> List[float]:
        """Per-shard load including the egress fan-out term.

        With ``egress_weight=0`` this equals :attr:`shard_rates` (ingress
        packets only); a positive weight folds each flow's replica fan-out
        in, so the policy balances the work the SFU actually performs —
        egress replication — not just ingress packet counts.
        """
        totals = [0.0] * self.n_shards
        for row in self.flows.values():
            totals[row.shard] += row.weight(egress_weight)
        return totals

    def hottest_flows(
        self, shard: int, min_rate: float = 0.0, egress_weight: float = 0.0
    ) -> List[Tuple[FlowKey, FlowLoadRow]]:
        """Flows currently placed on ``shard``, heaviest first.

        Ranking and the noise floor both use :meth:`FlowLoadRow.weight`, so
        with an egress weight a modest-ingress/huge-fan-out sender outranks
        a chattier sender whose meeting is small.
        """
        rows = [
            (key, row)
            for key, row in self.flows.items()
            if row.shard == shard and row.weight(egress_weight) > min_rate
        ]
        rows.sort(key=lambda item: item[1].weight(egress_weight), reverse=True)
        return rows

    def snapshot(self) -> Dict[str, object]:
        """Diagnostic snapshot (benchmarks and the example CLI print this)."""
        return {
            "batches_observed": self.batches_observed,
            "flows_tracked": len(self.flows),
            "shard_rates": [round(rate, 3) for rate in self.shard_rates],
            "skew_ratio": round(self.skew_ratio(), 4),
        }
