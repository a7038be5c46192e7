"""Flow-sharded Scallop pipeline: N share-nothing datapaths, one control plane.

Scallop's scaling argument is that per-flow packet operations are independent
(the Scalable Commutativity Rule): two packets of different ``(src, ssrc)``
flows touch disjoint forwarding, adaptation, and rewriter state.  The sharded
engine exploits that by partitioning every ingress burst with a deterministic
``hash(src, ssrc) % n_shards`` and running each partition through its own
:class:`~repro.dataplane.pipeline.PipelineDatapath` — private parser, private
counters, private flow-resolution caches, private sequence-rewriter register
view — while a single :class:`~repro.dataplane.pipeline.PipelineControlPlane`
remains the only shared state (tables and PRE configuration are read-mostly;
control-plane writes fan out and bump generations that each shard observes
independently).  Results are reassembled in input order, byte-identical to
the unsharded pipeline; resource charges land in the one global
:class:`~repro.dataplane.resources.ResourceAccountant` ledger, because the
Tofino budget belongs to the switch, not to a shard.

Serial sharding
---------------

The shards run in-process, one after another, on the calling thread.  This
models a multi-pipe switch — each pipe owns a disjoint slice of the flows, and
the partition, placement and migration logic is the part worth reproducing —
but it buys no wall-clock speedup: k shards do the work of one datapath plus
the partitioning.  In Scallop the parallelism belongs to the switch hardware,
not to the software model of it.  Input-order reassembly behind a per-batch
barrier also makes the coordinator a point where all shards meet, so running
shards on thread or process pools does not pay here (measured at 0.84x and
0.13x of one shard).

Load-aware placement
--------------------

The flow -> shard map is a **two-level lookup**: a generation-stamped
placement exception table owned by the control plane
(:attr:`~repro.dataplane.pipeline.PipelineControlPlane.placement_table`)
consulted first, with the deterministic CRC32 hash as the default for every
flow not pinned there.  :meth:`ShardedScallopPipeline.enable_rebalancing`
closes the loop around it: per-flow packet counts collected while
partitioning feed an EWMA tracker (:mod:`repro.dataplane.loadstats`), a
greedy hysteresis-damped policy (:mod:`repro.dataplane.rebalance`) turns
observed skew into migration plans, and :meth:`ShardedScallopPipeline.migrate_flow`
executes them at batch boundaries — the migrating sender's rewriter register
state follows the flow (every shard's register view aliases the same rewriter
objects), so outputs remain byte-identical to the unsharded pipeline across
every migration epoch.  The policy ranks flows by packet and egress rate;
nothing here reads a clock.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..netsim.datagram import Address, Datagram
from ..obs.hooks import DatapathObs, ObsConfig
from ..rtp.packet import RtpPacket
from ..rtp.wire import PacketView
from ..rtp.wirebatch import WireBatchView
from .loadstats import FlowKey, FlowLoadTracker
from .rebalance import MigrationPlan, RebalancerConfig, ShardRebalancer
from .pipeline import (
    ControlPlaneFacade,
    PipelineControlPlane,
    PipelineCounters,
    PipelineDatapath,
    PipelineResult,
)
from .resources import DEFAULT_CAPACITIES, TofinoCapacities
from .sanitize import IsolationViolation, resolve_sanitize
from .tables import RegisterArray


def flow_shard(src: Address, ssrc: int, n_shards: int) -> int:
    """Deterministic flow -> shard mapping.

    Uses CRC32 over the canonical flow string rather than Python's ``hash``:
    string hashing is randomized per interpreter (PYTHONHASHSEED), and the
    partitioning must be the same across runs.
    """
    return zlib.crc32(f"{src.ip}:{src.port}/{ssrc}".encode("ascii")) % n_shards


@dataclass(frozen=True)
class ShardParserStats:
    """Aggregated ingress-parser tallies across all shards."""

    packets_parsed: int
    cpu_punts: int
    parse_cache_hits: int


class ShardedScallopPipeline(ControlPlaneFacade):
    """N flow-partitioned datapaths behind the one-pipeline API.

    Drop-in replacement for :class:`~repro.dataplane.pipeline.ScallopPipeline`:
    the whole control surface (table installs, adaptation lifecycle, feedback
    rules) and both data-path entry points (``process``/``process_batch``)
    behave identically, and the outputs are byte-for-byte the same as the
    single-datapath engine for any shard count.  ``counters`` aggregates the
    per-shard tallies on read; ``accountant`` is the single global resource
    ledger.
    """

    def __init__(
        self,
        sfu_address: Address,
        n_shards: int = 2,
        capacities: TofinoCapacities = DEFAULT_CAPACITIES,
        rebalance: bool = False,
        rebalance_config: Optional[RebalancerConfig] = None,
        sanitize: Optional[bool] = None,
        obs: Union[bool, ObsConfig, None] = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.sfu_address = sfu_address
        self.n_shards = n_shards
        #: Shard-isolation sanitizer switch (``None`` defers to
        #: ``REPRO_SANITIZE``); resolved once so every shard agrees.
        self.sanitize = resolve_sanitize(sanitize)
        # observability knob: True arms the defaults, an ObsConfig arms it
        # verbatim; the config rides the control plane, which every shard
        # arms its obs state from
        if obs is True:
            obs_config: Optional[ObsConfig] = ObsConfig()
        elif obs:
            obs_config = obs
        else:
            obs_config = None
        self.control = PipelineControlPlane(sfu_address, capacities, obs=obs_config)
        self.shards: List[PipelineDatapath] = []
        for shard_id in range(n_shards):
            datapath = PipelineDatapath(
                self.control,
                trackers=RegisterArray(
                    f"stream_tracker/shard{shard_id}", size=capacities.stream_tracker_cells
                ),
                shard_id=shard_id,
                sanitize=self.sanitize,
            )
            self.control.attach_datapath(datapath)
            self.shards.append(datapath)
        # control API and table/register/ledger delegation shared with
        # ScallopPipeline via ControlPlaneFacade, so the switch agent and
        # replication manager are oblivious to sharding
        self._bind_control_api()

        self._flow_shard_cache: Dict[Tuple[Address, int], int] = {}
        #: Memoized CRC32 of each flow's canonical string.  Placement-blind,
        #: so it survives migration-driven cache drops: the per-flow f-string
        #: encode + crc is paid once per engine lifetime, not once per
        #: placement epoch (bounded like the routing cache).
        self._crc_cache: Dict[Tuple[Address, int], int] = {}
        #: Flows with a placement-table exception; rebuilt on version bump so
        #: the partitioner consults the placement dict only for pinned flows
        #: and default-routed flows stay on the pure CRC path.
        self._pinned_flows: Set[Tuple[Address, int]] = set()
        #: Placement-table generation the flow-routing cache was built at;
        #: a migration bumps the table version and the cache drops wholesale
        #: at the next batch boundary (two-level lookups are cheap to rebuild).
        self._placement_version = self.control.placement_table.version
        self._rebuild_pinned_flows()

        # telemetry -> policy -> migration loop (off by default: telemetry
        # costs one per-flow tally pass per batch on the partitioning path)
        self.load_tracker: Optional[FlowLoadTracker] = None
        self.rebalancer: Optional[ShardRebalancer] = None
        self.migrations_applied = 0
        if rebalance or rebalance_config is not None:
            self.enable_rebalancing(rebalance_config)

    # ------------------------------------------------------------------ partitioning

    def shard_for_flow(self, src: Address, ssrc: int) -> int:
        """The shard that currently owns flow ``(src, ssrc)``.

        Two-level lookup: the control plane's placement exception table wins
        (flows the rebalancer has migrated), everything else falls through to
        the deterministic CRC32 default.  Per-flow rewriter state follows the
        owner across migrations (see :meth:`migrate_flow`).
        """
        pinned = self.control.placement_table.peek((src, ssrc))
        if pinned is not None and 0 <= pinned < self.n_shards:
            return pinned
        return self._crc_shard(src, ssrc)

    #: Bound on the flow->shard cache (junk traffic must not grow it forever).
    FLOW_SHARD_CACHE_LIMIT = 1 << 16

    @staticmethod
    def _flow_key(datagram: Datagram) -> Tuple[Address, int]:
        payload = datagram.payload
        # non-RTP traffic (RTCP compounds, STUN, junk) has no media SSRC; it
        # partitions by source only, which keeps one sender's control traffic
        # ordered within a shard.  Wire-native views partition exactly like
        # their object twins (same SSRC off the buffer), so mixed-encoding
        # traffic of one flow always lands on one shard.
        ssrc = payload.ssrc if isinstance(payload, (RtpPacket, PacketView)) else -1
        return (datagram.src, ssrc)

    def _crc_shard(self, src: Address, ssrc: int) -> int:
        """CRC32 default shard, served from the memoized per-flow hash.

        Identical to :func:`flow_shard` for every flow (asserted in
        ``tests/test_wirebatch.py``): only the f-string encode + CRC is
        memoized, the modulus is applied on read.
        """
        key = (src, ssrc)
        cache = self._crc_cache
        crc = cache.get(key)
        if crc is None:
            if len(cache) >= self.FLOW_SHARD_CACHE_LIMIT:
                cache.clear()
            crc = cache[key] = zlib.crc32(f"{src.ip}:{src.port}/{ssrc}".encode("ascii"))
        return crc % self.n_shards

    def _shard_of_key(self, key: Tuple[Address, int]) -> int:
        shard = self._flow_shard_cache.get(key)
        if shard is None:
            if len(self._flow_shard_cache) >= self.FLOW_SHARD_CACHE_LIMIT:
                self._flow_shard_cache.clear()
            if key in self._pinned_flows:
                # placement exception: consult the table (validated bounds)
                shard = self.shard_for_flow(key[0], key[1])
            else:
                # default route: pure CRC, the placement dict is never probed
                shard = self._crc_shard(key[0], key[1])
            self._flow_shard_cache[key] = shard
        return shard

    def _shard_of(self, datagram: Datagram) -> int:
        return self._shard_of_key(self._flow_key(datagram))

    def _rebuild_pinned_flows(self) -> None:
        self._pinned_flows = {key for key, _shard in self.control.placement_table.entries()}

    def _sync_placement_cache(self) -> None:
        """Drop the flow-routing cache if the placement table moved (its
        version stamps every migration, exactly like the match-action
        tables' write generations stamp datapath caches).  The pinned-flow
        set rebuilds from the same trigger; the CRC memo is placement-blind
        and survives."""
        version = self.control.placement_table.version
        if version != self._placement_version:
            self._flow_shard_cache.clear()
            self._rebuild_pinned_flows()
            self._placement_version = version

    # ------------------------------------------------------------------ data path

    def process(self, datagram: Datagram) -> PipelineResult:
        """Run one packet through the shard that owns its flow."""
        self._sync_placement_cache()
        return self.shards[self._shard_of(datagram)].process(datagram)

    def process_batch(self, datagrams: Sequence[Datagram]) -> List[PipelineResult]:
        """Partition a burst by flow, process per shard, reassemble in input
        order (byte-identical to the unsharded pipeline).

        When rebalancing is enabled the batch is also a telemetry sample and
        a migration opportunity: per-flow packet counts collected during
        partitioning feed the EWMA tracker, and every ``epoch_batches``-th
        batch the policy may migrate flows — strictly *after* this batch's
        results are complete, so a flow is never split across shards within
        one batch and outputs stay byte-identical across placement changes.
        """
        shards = self.shards
        if self.n_shards == 1:
            return shards[0].process_batch(datagrams)
        self._sync_placement_cache()
        # Columnar partition: one bulk pass lifts src/ssrc off every record,
        # then bucketing runs on per-burst interned ints.  The burst-local
        # memo resolves each unique (source, ssrc) pair exactly once per
        # burst — Address hashing and the engine-level caches are consulted
        # per flow, not per packet.
        view = WireBatchView.from_datagrams(datagrams)
        sources = view.sources
        src_index = view.src_index
        ssrc_col = view.ssrc
        shard_of_key = self._shard_of_key
        partitions: List[List[Datagram]] = [[] for _ in range(self.n_shards)]
        slots: List[List[int]] = [[] for _ in range(self.n_shards)]
        tracker = self.load_tracker
        if tracker is None:
            burst_shards: Dict[Tuple[int, int], int] = {}
            get_shard = burst_shards.get
            for index, datagram in enumerate(datagrams):
                bkey = (src_index[index], ssrc_col[index])
                shard = get_shard(bkey)
                if shard is None:
                    shard = burst_shards[bkey] = shard_of_key(
                        (sources[bkey[0]], bkey[1])
                    )
                partitions[shard].append(datagram)
                slots[shard].append(index)
        else:
            # telemetry folds into the same pass: per-flow packet counts and
            # owner shards accumulate as the burst buckets, keyed by the same
            # burst-local memo (one flow-key tuple built per flow per burst)
            resolved: Dict[Tuple[int, int], Tuple[FlowKey, int]] = {}
            get_resolved = resolved.get
            flow_counts: Dict[FlowKey, int] = {}
            flow_shards: Dict[FlowKey, int] = {}
            #: flow key of every partitioned datagram, parallel to the
            #: partitions, so the post-run replica tally needs no re-hash
            keys_by_shard: List[List[FlowKey]] = [[] for _ in range(self.n_shards)]
            for index, datagram in enumerate(datagrams):
                bkey = (src_index[index], ssrc_col[index])
                entry = get_resolved(bkey)
                if entry is None:
                    fkey = (sources[bkey[0]], bkey[1])
                    shard = shard_of_key(fkey)
                    resolved[bkey] = (fkey, shard)
                    flow_counts[fkey] = 1
                    flow_shards[fkey] = shard
                else:
                    fkey, shard = entry
                    flow_counts[fkey] += 1
                partitions[shard].append(datagram)
                slots[shard].append(index)
                keys_by_shard[shard].append(fkey)
        shard_results = [
            shards[shard].process_batch(partition) if partition else []
            for shard, partition in enumerate(partitions)
        ]
        results: List[Optional[PipelineResult]] = [None] * len(datagrams)
        for shard, indices in enumerate(slots):
            for slot, result in zip(indices, shard_results[shard]):
                results[slot] = result
        if tracker is not None:
            # egress telemetry: replicas each flow's packets produced this
            # batch (one zip pass over results already in hand), feeding the
            # policy's egress-weighted flow ranking
            flow_replicas: Dict[FlowKey, int] = {}
            for shard, keys in enumerate(keys_by_shard):
                for key, result in zip(keys, shard_results[shard]):
                    replicas = len(result.outputs)
                    if replicas:
                        flow_replicas[key] = flow_replicas.get(key, 0) + replicas
            tracker.observe_batch(flow_counts, flow_shards, flow_replicas)
            self._maybe_rebalance()
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------ placement control loop

    def enable_rebalancing(self, config: Optional[RebalancerConfig] = None) -> None:
        """Arm the telemetry -> policy -> migration loop on this engine."""
        config = config or RebalancerConfig()
        self.load_tracker = FlowLoadTracker(self.n_shards, alpha=config.ewma_alpha)
        self.rebalancer = ShardRebalancer(self.n_shards, config)

    #: Smoothed packets/batch below which a *pinned* flow counts as silent
    #: and its placement exception is garbage-collected (see
    #: :meth:`_gc_stale_placements`).  Reaching it from any real rate takes
    #: dozens of silent batches, so a live-but-bursty flow is never swept.
    STALE_PIN_RATE = 0.01

    def _maybe_rebalance(self) -> None:
        """Run the placement policy at epoch boundaries (between batches)."""
        rebalancer = self.rebalancer
        tracker = self.load_tracker
        if rebalancer is None or tracker is None:
            return
        if tracker.batches_observed % rebalancer.config.epoch_batches:
            return
        plan = rebalancer.plan(tracker)
        if plan:
            self.apply_migrations(plan)
        self._gc_stale_placements()

    def _gc_stale_placements(self) -> None:
        """Drop placement exceptions whose flows have gone silent.

        A departed participant's flow can be pinned moments before (or, via
        in-flight traffic, moments after) its leave; the leave path purges
        pins by address, but a pin minted from the decaying tail would
        otherwise live forever.  Silent pins are released by *migrating the
        flow back to its hash-default shard* rather than deleting the table
        entry, so its load-tracker row follows it home.
        """
        tracker = self.load_tracker
        if tracker is None:
            return
        stale: List[Tuple[Address, int]] = []
        for key, _shard in self.control.placement_table.entries():
            row = tracker.flows.get(key)
            if row is None or row.rate < self.STALE_PIN_RATE:
                stale.append(key)
        for src, ssrc in stale:
            self.migrate_flow(src, ssrc, flow_shard(src, ssrc, self.n_shards))

    def apply_migrations(self, plan: MigrationPlan) -> int:
        """Execute a migration plan; returns how many flows actually moved."""
        applied = 0
        for migration in plan.migrations:
            src, ssrc = migration.flow
            if self.migrate_flow(src, ssrc, migration.to_shard):
                applied += 1
        return applied

    def migrate_flow(self, src: Address, ssrc: int, to_shard: int) -> bool:
        """Live-migrate flow ``(src, ssrc)`` to ``to_shard`` at the next batch
        boundary.

        Installs (or, when the target is the flow's CRC32 default, removes)
        the placement exception — bumping the placement generation, which
        drops the flow-routing cache.  Rewriter state needs no move: every
        shard's register view aliases the same rewriter objects, and resource
        charges stay on the one global ledger.  Safe while traffic is in
        flight because routing is only read at batch partitioning time: the
        current batch completed with the old placement, the next one sees
        the new placement.
        """
        if not 0 <= to_shard < self.n_shards:
            raise ValueError(f"shard {to_shard} out of range for {self.n_shards} shards")
        if self.shard_for_flow(src, ssrc) == to_shard:
            return False
        if flow_shard(src, ssrc, self.n_shards) == to_shard:
            # moving "back home": the default hash already says to_shard, so
            # the exception entry is redundant — drop it instead of pinning
            self.control.remove_placement(src, ssrc)
        else:
            self.control.install_placement(src, ssrc, to_shard)
        if self.load_tracker is not None:
            self.load_tracker.note_migration((src, ssrc), to_shard)
        self.migrations_applied += 1
        return True

    def forget_endpoint(self, src: Address) -> int:
        """Release per-flow placement state of a departed endpoint: its
        placement-table pins (the exception table would otherwise grow
        without bound under join/leave churn) and its load-tracker rows.
        Returns the number of placement exceptions removed."""
        removed = self.control.remove_placements_for(src)
        if self.load_tracker is not None:
            self.load_tracker.forget_flows(src)
        return removed

    # ------------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """No backend resources to release (API parity with
        :class:`~repro.dataplane.pipeline.ScallopPipeline`)."""

    def __enter__(self) -> "ShardedScallopPipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ aggregated datapath state

    @property
    def counters(self) -> PipelineCounters:
        """Merged snapshot of all shard counters (equals the unsharded
        pipeline's counters for identical traffic)."""
        merged = PipelineCounters()
        for shard in self.shards:
            merged.merge(shard.counters)
        return merged

    @property
    def parser(self) -> ShardParserStats:
        """Aggregated parser tallies (``packets_parsed``/``cpu_punts`` match
        the unsharded pipeline; cache hits depend on the partitioning)."""
        return self.parser_stats()

    def parser_stats(self) -> ShardParserStats:
        return ShardParserStats(
            packets_parsed=sum(shard.parser.packets_parsed for shard in self.shards),
            cpu_punts=sum(shard.parser.cpu_punts for shard in self.shards),
            parse_cache_hits=sum(shard.parser.parse_cache_hits for shard in self.shards),
        )

    def shard_load(self) -> List[Dict[str, int]]:
        """Per-shard traffic report: one row of packet/replica counts per
        shard, the skew the placement control loop
        (:meth:`enable_rebalancing`) acts on."""
        return [
            {
                "shard": shard.shard_id,
                "data_plane_packets": shard.counters.data_plane_packets,
                "cpu_packets": shard.counters.cpu_packets,
                "replicas_out": shard.counters.replicas_out,
            }
            for shard in self.shards
        ]

    def merged_obs(self) -> Optional[DatapathObs]:
        """Snapshot-time merge of every shard's observability state.

        Read-only fold into a fresh :class:`~repro.obs.hooks.DatapathObs`
        (the shards keep accumulating); ``None`` when observability is not
        armed.  Safe to call between batches, when every shard is quiescent.
        """
        armed = [shard.obs for shard in self.shards if shard.obs is not None]
        if not armed:
            return None
        merged = DatapathObs(self.control.obs_config)
        for obs in armed:
            merged.merge_from(obs)
        return merged

    def isolation_findings(self) -> List[IsolationViolation]:
        """Blocked control-plane mutation attempts across all shards, as
        recorded by the shard-isolation sanitizer (empty when it is off or
        nothing fired)."""
        findings: List[IsolationViolation] = []
        for shard in self.shards:
            log = shard.isolation_log
            if log is not None:
                findings.extend(log.violations)
        return findings
