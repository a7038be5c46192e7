"""The Scallop switch pipeline: ingress parsing/matching, PRE replication, and
egress rewriting.

This is the behavioural model of the ~2000 lines of P4 the paper describes
(§6): per packet it can only

* parse the bounded set of fields in :class:`~repro.dataplane.parser.IngressParser`,
* look up exact-match tables that the control plane installed beforehand,
* invoke the :class:`~repro.dataplane.pre.PacketReplicationEngine`, and
* in egress, rewrite addresses and sequence numbers using per-stream register
  state and drop packets whose SVC template id the receiver's decode target
  excludes.

Everything else (STUN, RTCP feedback analysis, extended AV1 descriptors) is
copied or punted to the switch CPU, which is exactly the split Table 1
quantifies.

Architecturally the model is split the way the paper splits the system:

* :class:`PipelineControlPlane` owns everything the switch agent writes —
  match-action tables, the PRE configuration, stream-index allocation, the
  sequence-rewriter register file, and the one global resource ledger.
* :class:`PipelineDatapath` is the per-packet engine: it holds only
  read-mostly references into the control plane (the register file
  included) plus private state (parser, counters, memoized flow
  resolution).  Per-flow operations commute (the Scalable Commutativity
  Rule), so datapaths can be replicated into shards that share nothing but
  the control plane — see
  :class:`~repro.dataplane.sharding.ShardedScallopPipeline`, whose output
  is byte-identical to one datapath at every shard count.
* :class:`ScallopPipeline` is the single-datapath composition of the two,
  preserving the original one-object API used throughout the repo.

The datapath can be driven per packet (:meth:`PipelineDatapath.process`) or
per burst (:meth:`PipelineDatapath.process_batch`).  Both run media on one
memoized implementation with byte-identical outputs: parsing and table-lookup
work sits behind caches that are invalidated on every control-plane write
(tracked through per-table write generations, compared against the datapath's
own generation stamp); a burst pays the stamp check and accounting fold once.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterator, List, Optional, Protocol, Sequence, Set, Tuple

from ..netsim.datagram import Address, Datagram, PayloadKind
from ..obs.hooks import DatapathObs, ObsConfig
from ..rtp.packet import RTP_HEADER_LEN, RtpPacket
from ..rtp.wire import _EXT_HEADER, _FIXED_HEADER, PacketView
from ..rtp.rtcp import (
    Nack,
    PictureLossIndication,
    ReceiverReport,
    Remb,
    RtcpPacket,
    SenderReport,
    SourceDescription,
)
from .parser import IngressParser, PacketClass, ParseResult
from .pre import L2Port, PacketReplicationEngine, Replica
from .resources import DEFAULT_CAPACITIES, ResourceAccountant, TofinoCapacities
from .sanitize import IsolationViolation, resolve_sanitize, sanitize_datapath
from .tables import ExactMatchTable, IndexAllocator, RegisterArray

#: Fixed pipeline traversal latency of the switch (ingress + PRE + egress).
#: Tofino-class devices forward in well under a microsecond; the slightly
#: larger constant accounts for port serialization of ~1 KB packets and keeps
#: the Figure 19 comparison conservative.
SWITCH_FORWARDING_DELAY_S = 12e-6

#: Version stamp on exported control-plane flow snapshots
#: (:meth:`PipelineControlPlane.export_flow_state`).  Bumped whenever the
#: record layout changes; :meth:`~PipelineControlPlane.import_flow_state`
#: refuses a mismatched snapshot loudly rather than guessing at field
#: semantics across versions.
CONTROL_SNAPSHOT_VERSION = 1

#: The media payloads :meth:`PipelineDatapath._process_media` reads: object
#: packets and wire views.
_MEDIA_PAYLOADS = (RtpPacket, PacketView)

#: The meta every replica of a meta-less ingress packet (and every SR/SDES
#: replica) shares.
_NO_META = MappingProxyType({})


class SnapshotVersionError(RuntimeError):
    """A control-plane flow snapshot was produced under a different layout
    version than the restoring pipeline understands."""


def decode_flow_state(payload: dict) -> List[Tuple[Address, int, FrozenSet[int], "SequenceRewriter"]]:
    """Validate and decode a flow snapshot produced by
    :meth:`PipelineControlPlane.export_flow_state`.

    The single version-enforcement point for every restore path (direct
    :meth:`~PipelineControlPlane.import_flow_state` and the cluster
    migration's agent-level adoption): a mismatched version raises
    :class:`SnapshotVersionError` naming both versions.  Returns
    ``(sender_ssrc, receiver, allowed_templates, rewriter)`` tuples with the
    rewriters rebuilt from their packed register images.
    """
    from ..core.seqrewrite import unpack_rewriter_state

    version = payload.get("version")
    if version != CONTROL_SNAPSHOT_VERSION:
        raise SnapshotVersionError(
            f"flow snapshot version {version!r} does not match this control "
            f"plane's CONTROL_SNAPSHOT_VERSION {CONTROL_SNAPSHOT_VERSION!r}"
        )
    records = []
    for record in payload["flows"]:
        records.append(
            (
                record["sender_ssrc"],
                Address(record["receiver_ip"], record["receiver_port"]),
                frozenset(record["allowed_templates"]),
                unpack_rewriter_state(record["rewriter"]),
            )
        )
    return records


class SequenceRewriter(Protocol):
    """Per-stream sequence-number rewriting state machine (S-LM / S-LR).

    The pipeline calls :meth:`on_packet` for every packet of a rate-adapted
    (sender -> receiver) stream in arrival order.  ``forward`` is False when
    the SFU is suppressing the packet for rate adaptation.  The return value
    is the rewritten sequence number, or ``None`` if the packet must not be
    forwarded (either because it was suppressed or because forwarding it would
    risk emitting a duplicate sequence number).
    """

    def on_packet(self, sequence_number: int, frame_number: int, forward: bool) -> Optional[int]:
        ...

    @property
    def state_cells(self) -> int:
        """Register cells this rewriter occupies per stream (Table 3)."""
        ...


class ForwardingMode(str, Enum):
    """How a sender's media stream is distributed."""

    UNICAST = "unicast"                  # two-party optimization, no PRE
    REPLICATE = "replicate"              # single tree (NRA)
    REPLICATE_BY_LAYER = "replicate_by_layer"  # per-quality trees (RA-R / RA-SR)


@dataclass(frozen=True)
class StreamForwardingEntry:
    """Ingress match-action entry for one sender media stream."""

    mode: ForwardingMode
    meeting_id: str
    sender: Address
    mgid: Optional[int] = None
    mgid_by_layer: Optional[Dict[int, int]] = None
    l1_xid: Optional[int] = None
    rid: Optional[int] = None
    l2_xid: Optional[int] = None
    unicast_receiver: Optional[Address] = None


@dataclass(frozen=True)
class ReplicaTarget:
    """Egress mapping from a PRE replica to the receiver it addresses."""

    address: Address
    participant_id: str


@dataclass(frozen=True)
class AdaptationEntry:
    """Egress match-action entry controlling rate adaptation per receiver."""

    stream_index: int
    allowed_templates: FrozenSet[int]


@dataclass(frozen=True)
class FeedbackRule:
    """Forwarding rule for receiver feedback about one media SSRC."""

    sender: Address
    forward_remb: bool = False   # set by the switch agent's filter function
    forward_nack_pli: bool = True


@dataclass
class PipelineCounters:
    """Packet/byte accounting used by Table 1, Figure 22 and the tests.

    Both the per-packet path (:meth:`account`) and the batch path (a tally
    accumulated with :meth:`accumulate` and folded in with
    :meth:`account_tally`) route through the single :meth:`_add` helper, so
    the two accounting paths cannot drift apart.
    """

    data_plane_packets: int = 0
    data_plane_bytes: int = 0
    cpu_packets: int = 0
    cpu_bytes: int = 0
    replicas_out: int = 0
    adaptation_drops: int = 0
    table_misses: int = 0
    #: Always 0: the model does not terminate SRTP (neither does the paper's
    #: prototype).  Kept because the ``bench/`` ledger and the telemetry
    #: snapshot read it.
    srtp_auth_failures: int = 0
    by_class_packets: Dict[str, int] = field(default_factory=dict)
    by_class_bytes: Dict[str, int] = field(default_factory=dict)

    def account(self, packet_class: PacketClass, size: int, to_cpu: bool) -> None:
        self._add(packet_class.value, to_cpu, 1, size)

    @staticmethod
    def accumulate(
        tally: Dict[Tuple[str, bool], List[int]], label: str, to_cpu: bool, size: int
    ) -> None:
        """Accumulate one packet into a batch accounting tally (the batch
        path's deferred equivalent of :meth:`account`)."""
        entry = tally.get((label, to_cpu))
        if entry is None:
            tally[(label, to_cpu)] = [1, size]
        else:
            entry[0] += 1
            entry[1] += size

    def account_tally(self, tally: Dict[Tuple[str, bool], List[int]]) -> None:
        """Fold a batch's accumulated ``(label, to_cpu) -> [packets, bytes]``
        tallies in; equivalent to calling :meth:`account` per packet."""
        for (label, to_cpu), (packets, size) in tally.items():
            self._add(label, to_cpu, packets, size)

    def merge(self, other: "PipelineCounters") -> None:
        """Fold another counter set in (used to aggregate shard counters)."""
        self.data_plane_packets += other.data_plane_packets
        self.data_plane_bytes += other.data_plane_bytes
        self.cpu_packets += other.cpu_packets
        self.cpu_bytes += other.cpu_bytes
        self.replicas_out += other.replicas_out
        self.adaptation_drops += other.adaptation_drops
        self.table_misses += other.table_misses
        for label, packets in other.by_class_packets.items():
            self.by_class_packets[label] = self.by_class_packets.get(label, 0) + packets
        for label, size in other.by_class_bytes.items():
            self.by_class_bytes[label] = self.by_class_bytes.get(label, 0) + size

    def _add(self, label: str, to_cpu: bool, packets: int, size: int) -> None:
        self.by_class_packets[label] = self.by_class_packets.get(label, 0) + packets
        self.by_class_bytes[label] = self.by_class_bytes.get(label, 0) + size
        if to_cpu:
            self.cpu_packets += packets
            self.cpu_bytes += size
        else:
            self.data_plane_packets += packets
            self.data_plane_bytes += size


@dataclass
class PipelineResult:
    """The outcome of processing one ingress packet."""

    parse: ParseResult
    outputs: List[Datagram] = field(default_factory=list)
    cpu_copies: List[Datagram] = field(default_factory=list)
    dropped_replicas: int = 0
    forwarding_delay_s: float = SWITCH_FORWARDING_DELAY_S


class _CachedResolution:
    """Memoized outcome of ingress match + PRE replication for one flow.

    ``addressed`` pairs every egress target's address with its rate-adaptation
    entry (or ``None``), saving the per-replica adaptation-table lookup on the
    hot path.
    ``raw_replicas`` is the PRE copy count before egress filtering (``None``
    for unicast flows, which never enter the PRE) and ``replica_misses`` the
    number of replica-table misses; both are replayed into the counters on
    every cache hit so the accounting is indistinguishable from the uncached
    per-packet path.

    ``addresses``/``has_adaptation`` are derived once at build time: when no
    target of the flow carries an adaptation entry (or the packet is audio,
    which adaptation never touches), the fan-out loop iterates the bare
    address tuple with none of the per-replica adaptation checks.
    """

    __slots__ = (
        "addressed",
        "raw_replicas",
        "replica_misses",
        "addresses",
        "has_adaptation",
    )

    def __init__(
        self,
        addressed: Tuple[Tuple[Address, Optional[AdaptationEntry]], ...],
        raw_replicas: Optional[int],
        replica_misses: int,
    ) -> None:
        self.addressed = addressed
        self.raw_replicas = raw_replicas
        self.replica_misses = replica_misses
        self.addresses = tuple(address for address, _adaptation in addressed)
        self.has_adaptation = any(adaptation is not None for _address, adaptation in addressed)


class _FlowFastState:
    """Per-flow slot of the batch fast path's merged lookup cache.

    One ``(src, ssrc)`` dictionary probe per packet serves what used to be
    two (entry cache, then ``(src, ssrc, layer)`` resolution cache): the
    stream-table entry, whether the flow replicates by layer at all, and the
    per-layer cached resolutions.  ``entry is None`` memoizes a table miss
    (every packet of an unknown flow still bumps ``table_misses``, exactly
    like the uncached path).  Non-layered flows — every flow whose entry does
    not replicate by per-layer multicast groups — keep their single
    resolution in ``res0`` with no layer computation at all.
    """

    __slots__ = ("entry", "layered", "res0", "by_layer", "traced")

    def __init__(self, entry: Optional["StreamForwardingEntry"]) -> None:
        self.entry = entry
        self.layered = bool(
            entry is not None
            and entry.mode == ForwardingMode.REPLICATE_BY_LAYER
            and entry.mgid_by_layer
        )
        self.res0: Optional[_CachedResolution] = None
        self.by_layer: Optional[Dict[int, _CachedResolution]] = {} if self.layered else None
        # lifecycle-tracer sampling decision, a pure function of the flow
        # key: stamped at cache-fill time so the steady-state per-packet
        # probe is one slot load, not a memo-dict lookup
        self.traced = False


def _discard(index: Dict, key, member) -> None:
    """Drop ``member`` from ``index[key]``, and the key once it is empty."""
    members = index.get(key)
    if members is not None:
        members.pop(member, None)
        if not members:
            del index[key]


class PipelineControlPlane:
    """Everything the switch agent writes: tables, PRE, registers, resources.

    The control plane is the single writer of all match-action and register
    state.  Datapaths (one for :class:`ScallopPipeline`, N for the sharded
    engine) read it: the tables, the PRE and the one sequence-rewriter
    register file, at the collision-free indices the control plane assigns.
    Every table/PRE write bumps the corresponding write generation so
    datapath caches invalidate on their next batch.

    Resource charges land in one global :class:`ResourceAccountant` ledger,
    whatever the number of datapaths: the Tofino budget belongs to the
    switch.
    """

    def __init__(
        self,
        sfu_address: Address,
        capacities: TofinoCapacities = DEFAULT_CAPACITIES,
        obs: Optional[ObsConfig] = None,
    ) -> None:
        self.sfu_address = sfu_address
        self.capacities = capacities
        self.accountant = ResourceAccountant(capacities)
        self.pre = PacketReplicationEngine(self.accountant)
        #: Optional observability config; every datapath arms its
        #: obs state from it, so instrumentation is shard-count-invariant.
        self.obs_config = obs

        self.stream_table: ExactMatchTable[Tuple[Address, int], StreamForwardingEntry] = ExactMatchTable(
            "stream_forwarding", max_entries=capacities.exact_match_entries
        )
        self.replica_table: ExactMatchTable[Tuple[int, int], ReplicaTarget] = ExactMatchTable(
            "replica_targets", max_entries=capacities.exact_match_entries
        )
        self.adaptation_table: ExactMatchTable[Tuple[int, Address], AdaptationEntry] = ExactMatchTable(
            "rate_adaptation", max_entries=capacities.stream_tracker_cells
        )
        self.feedback_table: ExactMatchTable[Tuple[Address, int], FeedbackRule] = ExactMatchTable(
            "feedback_rules", max_entries=capacities.exact_match_entries
        )
        self.ssrc_table: ExactMatchTable[int, Address] = ExactMatchTable(
            "ssrc_owner", max_entries=capacities.exact_match_entries
        )
        #: Placement exception table for the sharded engine's two-level flow
        #: routing: flows absent here follow the default CRC32 hash, flows
        #: present are pinned to the recorded shard id.  Owned by the control
        #: plane and generation-stamped like the match-action tables, so the
        #: engine's flow-routing cache invalidates on every placement write;
        #: deliberately *not* part of :meth:`write_stamp` — datapath packet
        #: processing never reads placement, only the partitioner does, so a
        #: migration must not invalidate datapath caches.
        self.placement_table: ExactMatchTable[Tuple[Address, int], int] = ExactMatchTable(
            "flow_placement", max_entries=capacities.exact_match_entries
        )
        #: Per-address and per-SSRC indexes of the feedback and placement
        #: keys, in table order: a leave finds its own rows without a scan.
        self._feedback_by_receiver: Dict[Address, Dict[int, None]] = {}
        self._feedback_by_ssrc: Dict[int, Dict[Address, None]] = {}
        self._placements_by_src: Dict[Address, Dict[int, None]] = {}

        self.stream_indices = IndexAllocator(capacities.stream_tracker_cells)
        #: The rewriter register file; every datapath reads this one array.
        self.stream_trackers: RegisterArray[SequenceRewriter] = RegisterArray(
            "stream_tracker", size=capacities.stream_tracker_cells
        )
        #: Nesting depth of :meth:`batched_writes`.
        self._write_batch_depth = 0

    def write_stamp(self) -> Tuple[int, int, int, int]:
        """Aggregate write generation over all cache-relevant control state."""
        return (
            self.stream_table.version,
            self.replica_table.version,
            self.adaptation_table.version,
            self.pre.generation,
        )

    # ------------------------------------------------------------------ write batching

    @contextmanager
    def batched_writes(self) -> Iterator["PipelineControlPlane"]:
        """Coalesce a burst of control-plane writes into one generation bump.

        Meeting setup installs dozens of table entries, PRE nodes, and
        rewriter registers back to back; outside this context every table or
        PRE write bumps a write generation (invalidating every datapath's
        memoized flow resolution).  Inside the context, each touched
        table/PRE bumps its generation exactly once at exit.

        All writes remain immediately visible to control-plane *reads*
        (``peek``/allocator state); only the change *notifications* are
        deferred.  The context is therefore not meant to be held across
        datapath batches — it brackets pure control-plane sections such as a
        meeting join, which is how :class:`~repro.core.switch_agent.SwitchAgent`
        uses it.  Reentrant: nested contexts commit at the outermost exit.
        """
        self._begin_write_batch()
        try:
            yield self
        finally:
            self._end_write_batch()

    def install_many(self):
        """Alias for :meth:`batched_writes` (reads better at call sites that
        batch a known plural of installs)."""
        return self.batched_writes()

    def _all_tables(self) -> Tuple[ExactMatchTable, ...]:
        return (
            self.stream_table,
            self.replica_table,
            self.adaptation_table,
            self.feedback_table,
            self.ssrc_table,
            self.placement_table,
        )

    def _begin_write_batch(self) -> None:
        self._write_batch_depth += 1
        if self._write_batch_depth > 1:
            return
        for table in self._all_tables():
            table.defer_version_bumps()
        self.pre.defer_generation_bumps()

    def _end_write_batch(self) -> None:
        self._write_batch_depth -= 1
        if self._write_batch_depth:
            return
        for table in self._all_tables():
            table.commit_version_bumps()
        self.pre.commit_generation_bumps()

    # ------------------------------------------------------------------ control API

    def install_stream(self, key: Tuple[Address, int], entry: StreamForwardingEntry) -> None:
        """Install ingress forwarding state for a sender stream (addr, ssrc)."""
        self.stream_table.install(key, entry)
        self.ssrc_table.install(key[1], key[0])

    def remove_stream(self, key: Tuple[Address, int]) -> None:
        self.stream_table.remove(key)
        self.ssrc_table.remove(key[1])

    def install_stream_route(self, key: Tuple[Address, int], entry: StreamForwardingEntry) -> None:
        """Install an ingress forwarding entry *without* claiming SSRC
        ownership.

        Trunk ingress uses this for remote senders: the subscribing SFU
        forwards ``(origin_sfu, ssrc)`` traffic through its own PRE, but the
        SSRC's owner row stays with whichever box terminates the sender's
        uplink — so tearing a trunk down can never clobber the ownership a
        freshly migrated-in participant just installed.
        """
        self.stream_table.install(key, entry)

    def remove_stream_route(self, key: Tuple[Address, int]) -> None:
        """Remove a route installed via :meth:`install_stream_route`
        (``ssrc_table`` untouched, unlike :meth:`remove_stream`)."""
        self.stream_table.remove(key)

    def install_replica_target(self, mgid: int, rid: int, target: ReplicaTarget) -> None:
        self.replica_table.install((mgid, rid), target)

    def remove_replica_target(self, mgid: int, rid: int) -> None:
        self.replica_table.remove((mgid, rid))

    def install_adaptation(
        self,
        sender_ssrc: int,
        receiver: Address,
        allowed_templates: FrozenSet[int],
        rewriter: SequenceRewriter,
    ) -> int:
        """Install per-receiver rate adaptation and its rewriting state.

        Returns the allocated stream index.  Stream-tracker occupancy is
        charged with the rewriter's real register footprint (3 cells for S-LM,
        6 for S-LR), so the Table 3 resource numbers reflect the variant in
        use; reinstalling over an existing entry swaps the charge rather than
        leaking it.
        """
        key = (sender_ssrc, receiver)
        cells = rewriter.state_cells
        existing_index = self.stream_indices.lookup(key)
        old_cells = 0
        if existing_index is not None:
            old = self.stream_trackers.peek(existing_index)
            if old is not None:
                old_cells = old.state_cells
        # charge only the net growth, so a same-size swap succeeds even at
        # full occupancy; unwind the charge (and a freshly allocated index)
        # if the index pool or the table turns out to be exhausted
        grown = max(0, cells - old_cells)
        if grown:
            self.accountant.allocate_stream_state(grown)
        try:
            index = self.stream_indices.allocate(key)
            self.adaptation_table.install(
                key, AdaptationEntry(stream_index=index, allowed_templates=allowed_templates)
            )
        except Exception:
            if existing_index is None:
                self.stream_indices.release(key)
            if grown:
                self.accountant.release_stream_state(grown)
            raise
        if cells < old_cells:
            self.accountant.release_stream_state(old_cells - cells)
        self.stream_trackers.write(index, rewriter)
        return index

    def update_adaptation_templates(
        self, sender_ssrc: int, receiver: Address, allowed_templates: FrozenSet[int]
    ) -> None:
        existing = self.adaptation_table.peek((sender_ssrc, receiver))
        if existing is None:
            raise KeyError("no adaptation entry installed for this stream")
        self.adaptation_table.install(
            (sender_ssrc, receiver),
            AdaptationEntry(stream_index=existing.stream_index, allowed_templates=allowed_templates),
        )

    def remove_adaptation(self, sender_ssrc: int, receiver: Address) -> None:
        key = (sender_ssrc, receiver)
        entry = self.adaptation_table.peek(key)
        if entry is not None:
            rewriter = self.stream_trackers.peek(entry.stream_index)
            if rewriter is not None:
                self.accountant.release_stream_state(rewriter.state_cells)
            self.stream_trackers.write(entry.stream_index, None)
            self.stream_indices.release(key)
            self.adaptation_table.remove(key)

    def install_feedback_rule(self, receiver: Address, media_ssrc: int, rule: FeedbackRule) -> None:
        self.feedback_table.install((receiver, media_ssrc), rule)
        self._feedback_by_receiver.setdefault(receiver, {})[media_ssrc] = None
        self._feedback_by_ssrc.setdefault(media_ssrc, {})[receiver] = None

    def remove_feedback_rule(self, receiver: Address, media_ssrc: int) -> None:
        self.feedback_table.remove((receiver, media_ssrc))
        _discard(self._feedback_by_receiver, receiver, media_ssrc)
        _discard(self._feedback_by_ssrc, media_ssrc, receiver)

    def feedback_rules_for(
        self, address: Optional[Address], media_ssrcs: Sequence[int] = ()
    ) -> List[Tuple[Address, int]]:
        """Keys of the feedback rules addressed to ``address`` (if given) or
        about one of ``media_ssrcs`` — an index read, not a table scan."""
        keys = [(address, ssrc) for ssrc in self._feedback_by_receiver.get(address, ())]
        for ssrc in media_ssrcs:
            keys += [(receiver, ssrc) for receiver in self._feedback_by_ssrc.get(ssrc, ()) if receiver != address]
        return keys

    # ------------------------------------------------------------------ placement (shard migration)

    def install_placement(self, src: Address, ssrc: int, shard_id: int) -> None:
        """Pin flow ``(src, ssrc)`` to ``shard_id`` (placement exception)."""
        self.placement_table.install((src, ssrc), shard_id)
        self._placements_by_src.setdefault(src, {})[ssrc] = None

    def remove_placement(self, src: Address, ssrc: int) -> None:
        """Drop a placement exception; the flow reverts to the CRC32 default."""
        self.placement_table.remove((src, ssrc))
        _discard(self._placements_by_src, src, ssrc)

    def placement_of(self, src: Address, ssrc: int) -> Optional[int]:
        """Control-plane read of a flow's pinned shard (``None`` = hashed)."""
        return self.placement_table.peek((src, ssrc))

    def remove_placements_for(self, src: Address) -> int:
        """Drop every placement exception pinned for flows of ``src``.

        Called on participant leave: a migrated-then-departed flow must not
        leak its pin forever (nor hand it to a later joiner that reuses the
        deterministic address/SSRC pair).  Returns how many were removed.
        """
        stale = list(self._placements_by_src.pop(src, ()))
        for ssrc in stale:
            self.placement_table.remove((src, ssrc))
        return len(stale)

    # ------------------------------------------------------------------ flow snapshot (cross-SFU migration)

    def export_flow_state(self, receivers: Optional[Set[Address]] = None) -> dict:
        """Image the per-flow adaptation state as a versioned, zero-pickle
        snapshot.

        One record per adaptation entry — ``(sender_ssrc, receiver)`` key,
        the allowed-template set, and the rewriter's packed register image
        (:func:`~repro.core.seqrewrite.pack_rewriter_state`, the PR 4 wire
        format generalized across boxes).  ``receivers`` filters the export
        to entries whose receiver address is in the set (a meeting migration
        ships only its own participants' flows).  Deterministic record order
        (sorted by key) so identical control planes export identical
        snapshots.
        """
        from ..core.seqrewrite import pack_rewriter_state

        records: List[dict] = []
        entries = sorted(
            self.adaptation_table.entries(),
            key=lambda item: (item[0][0], item[0][1].ip, item[0][1].port),
        )
        for (sender_ssrc, receiver), entry in entries:
            if receivers is not None and receiver not in receivers:
                continue
            rewriter = self.stream_trackers.peek(entry.stream_index)
            if rewriter is None:
                continue
            records.append(
                {
                    "sender_ssrc": sender_ssrc,
                    "receiver_ip": receiver.ip,
                    "receiver_port": receiver.port,
                    "allowed_templates": sorted(entry.allowed_templates),
                    "rewriter": pack_rewriter_state(rewriter),
                }
            )
        return {"version": CONTROL_SNAPSHOT_VERSION, "flows": records}

    def import_flow_state(self, payload: dict) -> int:
        """Restore flows imaged by :meth:`export_flow_state` into this
        control plane.  Returns the number of flows installed.

        Rejects a snapshot whose version stamp differs from
        :data:`CONTROL_SNAPSHOT_VERSION` by raising
        :class:`SnapshotVersionError` — a silent best-effort restore of a
        mismatched layout would corrupt rewriter state noiselessly, which is
        the one failure mode a migration must never have.
        """
        records = decode_flow_state(payload)
        with self.batched_writes():
            for sender_ssrc, receiver, allowed, rewriter in records:
                self.install_adaptation(sender_ssrc, receiver, allowed, rewriter)
        return len(records)

    # ------------------------------------------------------------------ box state

    def state(self) -> "BoxState":
        """What this control plane has installed, as one canonical value: a
        frozenset of ``(section, key, value)`` triples, ``frozenset()`` when
        empty.  Allocation ids are replaced by what they point to: a PRE node
        and its replica target by ``(participant id, address, L1 XID, prune
        flag)``, a stream entry's MGIDs by per-layer sets of those and its
        (RID, L2 XID) by the participant whose copy it suppresses, a stream
        index by its rewriter's class.  No counter, generation or datapath
        cache moves."""
        targets = dict(self.replica_table.entries())
        pre_trees = self.pre._trees
        nodes = {
            (mgid, node.rid): node
            for mgid, tree in pre_trees.items()
            for node in tree.nodes.values()
        }

        def member(slot: Tuple[int, int]) -> tuple:
            node, target = nodes.get(slot), targets.get(slot)
            pid, address = (target.participant_id, target.address) if target else (None, None)
            if node is None:
                return (pid, address, None, None)
            return (pid, address, node.l1_xid, node.prune_enabled)

        trees = {
            mgid: frozenset(member((mgid, rid)) for rid in tree.used_rids)
            for mgid, tree in pre_trees.items()
        }
        streams = {}
        for key, entry in self.stream_table.entries():
            own = nodes.get((entry.mgid, entry.rid))
            suppressed = own is not None and any(port.l2_xid == entry.l2_xid for port in own.ports)
            layers = sorted((entry.mgid_by_layer or {None: entry.mgid}).items())
            streams[key] = (
                entry.mode,
                entry.meeting_id,
                entry.sender,
                entry.unicast_receiver,
                entry.l1_xid,
                member((entry.mgid, entry.rid))[0] if suppressed else None,
                tuple((layer, trees.get(mgid)) for layer, mgid in layers),
            )
        trackers, accountant = self.stream_trackers, self.accountant
        cells = sum(rewriter.state_cells for _index, rewriter in trackers.used_entries())
        resources = (
            ("trees", self.pre.num_trees, accountant.trees_allocated),
            ("l1_nodes", self.pre.total_l1_nodes(), accountant.l1_nodes_allocated),
            ("tracker_cells", cells, accountant.stream_tracker_cells_used),
            ("stream_indices", self.stream_indices.in_use, len(self.adaptation_table)),
        )
        return box_state(
            {
                "stream": streams,
                "l1_node": Counter(member(slot) for slot in nodes.keys() | targets.keys()),
                "adaptation": {
                    key: (entry.allowed_templates, type(trackers.peek(entry.stream_index)).__name__)
                    for key, entry in self.adaptation_table.entries()
                },
                "feedback": dict(self.feedback_table.entries()),
                "feedback_by_receiver": index_pairs(self._feedback_by_receiver),
                "feedback_by_ssrc": {(r, s): True for s, r in index_pairs(self._feedback_by_ssrc)},
                "ssrc_owner": dict(self.ssrc_table.entries()),
                "placement": dict(self.placement_table.entries()),
                "placement_by_src": index_pairs(self._placements_by_src),
                # (in use, accounted for): the accountant's charge, or the
                # adaptation entries a stream index serves
                "resource": {name: (used, held) for name, used, held in resources if used or held},
            }
        )


#: A box's state (:meth:`PipelineControlPlane.state`): ``(section, key, value)`` triples.
BoxState = FrozenSet[Tuple[str, object, object]]


def index_pairs(index: Dict) -> Dict[tuple, bool]:
    """A two-level ``key -> {member: ...}`` index as a set of pairs."""
    return {(key, member): True for key, members in index.items() for member in members}


def box_state(sections: Dict[str, Dict]) -> BoxState:
    """Fold ``section -> {key: value}`` mappings into a :data:`BoxState`."""
    return frozenset(
        (name, key, value) for name, pairs in sections.items() for key, value in pairs.items()
    )


def state_sections(state: BoxState) -> Dict[str, Dict]:
    """Unfold a :data:`BoxState` into ``section -> {key: value}``; a
    section the state lacks reads as empty."""
    sections: Dict[str, Dict] = defaultdict(dict)
    for name, key, value in state:
        sections[name][key] = value
    return sections


_ABSENT = object()


def mapping_diff(a: Dict, b: Dict) -> Optional[str]:
    """``[key]: value != value`` for the first key, in ``repr`` order, whose
    value differs between two mappings ("absent" where one lacks it), or
    ``None`` when they are equal."""
    differing = [k for k in a.keys() | b.keys() if a.get(k, _ABSENT) != b.get(k, _ABSENT)]
    if not differing:
        return None
    first = min(differing, key=repr)
    values = [repr(side[first]) if first in side else "absent" for side in (a, b)]
    return f"[{first!r}]: {values[0]} != {values[1]}"


def state_diff(a: BoxState, b: BoxState) -> Optional[str]:
    """The first ``section[key]`` whose value differs between two box
    states, with both values, or ``None`` when they are equal.  The
    ``resource`` counts come last, so the key named is the most specific
    one."""
    mine, theirs = state_sections(a), state_sections(b)
    for name in sorted(mine.keys() | theirs.keys(), key=lambda name: (name == "resource", name)):
        diff = mapping_diff(mine[name], theirs[name])
        if diff is not None:
            return name + diff
    return None


class PipelineDatapath:
    """The per-packet engine: parses, matches, replicates, rewrites.

    Holds only private state (parser, counters, flow-resolution caches) plus
    read-mostly references into the shared :class:`PipelineControlPlane`,
    its rewriter register file included.  Per-flow operations commute, so
    multiple datapaths over one control plane process disjoint flow
    partitions with results identical to a single datapath (see
    :class:`~repro.dataplane.sharding.ShardedScallopPipeline`).
    """

    #: Hard bound on the memoized-flow caches (misses are cached too, so junk
    #: traffic with random flow keys must not grow them without limit; 64k
    #: entries keeps the worst case in the tens of megabytes while covering
    #: every legitimate flow the stream tracker can hold).
    RESOLUTION_CACHE_LIMIT = 1 << 16

    def __init__(
        self,
        control: PipelineControlPlane,
        shard_id: int = 0,
        sanitize: Optional[bool] = None,
    ) -> None:
        self.control = control
        self.shard_id = shard_id
        self.sfu_address = control.sfu_address
        self.parser = IngressParser()
        self.counters = PipelineCounters()
        #: Per-shard observability bundle (metrics registry + packet tracer),
        #: armed iff the control plane carries an :class:`ObsConfig`.  Private
        #: to this datapath — never aliased across shards, never written by
        #: the control plane — so it needs no sanitizer wrapping and merges
        #: commutatively at snapshot time.
        obs_config = getattr(control, "obs_config", None)
        self.obs: Optional[DatapathObs] = (
            DatapathObs(
                obs_config,
                shard_id=shard_id,
                forwarding_delay_s=SWITCH_FORWARDING_DELAY_S,
            )
            if obs_config is not None
            else None
        )

        # read-mostly bindings into the control plane (hot-path aliases)
        self.trackers: RegisterArray[SequenceRewriter] = control.stream_trackers
        self.pre = control.pre
        self.stream_table = control.stream_table
        self.replica_table = control.replica_table
        self.adaptation_table = control.adaptation_table
        self.feedback_table = control.feedback_table

        # Batch fast-path state: forwarding resolution memoized per flow and
        # invalidated whenever the control plane touches the stream table, the
        # replica table, or the PRE (detected via their write generations, so
        # even direct `pipeline.pre` mutations are caught).  The stamp is this
        # datapath's private generation counter — shards resynchronize with
        # the control plane independently.
        # One probe per packet: the flow's entry, layer mode, and cached
        # resolutions live behind a single (src, ssrc) key (_FlowFastState)
        # instead of the former entry-cache + (src, ssrc, layer) pair.
        self._flow_cache: Dict[Tuple[Address, int], _FlowFastState] = {}
        self._cache_stamp: Tuple[int, int, int, int] = (-1, -1, -1, -1)
        #: The media path's deferred accounting (see
        #: :meth:`_fold_batch_accounting`), emptied by every fold.
        self._tally: Dict[Tuple[str, bool], List[int]] = {}
        self._acc = [0, 0, 0, 0, 0]
        self._layer_by_template: Dict[int, int] = {}

        #: Shard-isolation sanitizer (opt-in debug mode): wraps the aliases
        #: bound above in write-barrier proxies that raise
        #: :class:`~repro.dataplane.sanitize.ShardIsolationError` on any
        #: mutation through a datapath-held reference.  ``sanitize=None``
        #: defers to ``REPRO_SANITIZE`` in the environment.
        self.isolation_log = None
        if resolve_sanitize(sanitize):
            self.isolation_log = sanitize_datapath(self)

    # ------------------------------------------------------------------ data path

    def process(self, datagram: Datagram) -> PipelineResult:
        """Run one ingress packet through the pipeline."""
        payload = datagram.payload
        if datagram.kind is PayloadKind.RTP and isinstance(payload, _MEDIA_PAYLOADS):
            # media runs the memoized implementation as a batch of one, its
            # accounting folded in immediately, so per-packet and batch
            # processing stay indistinguishable (the unmemoized walk lives on
            # as the test suites' oracle, tests/reference_datapath.py)
            self._ensure_resolution_cache_fresh()
            result = self._process_media(datagram, self._tally, self._acc)
            self._fold_batch_accounting()
            return result
        parse = self.parser.parse(datagram)
        result = PipelineResult(parse=parse)
        if parse.packet_class == PacketClass.RTCP_FEEDBACK:
            self._handle_feedback(datagram, parse, result)
        elif parse.packet_class == PacketClass.RTCP_SENDER:
            self._handle_sender_rtcp(datagram, parse, result)
        else:
            # STUN / UNKNOWN (the parser classifies only RtpPacket and
            # PacketView payloads as media, and those returned above)
            self._punt(datagram, parse, result)
        return result

    def process_batch(self, datagrams: Sequence[Datagram]) -> List[PipelineResult]:
        """Run a burst of ingress packets through the pipeline.

        Per-packet operations on independent streams commute, so a burst can
        be processed as a batch without changing any observable result: the
        outputs are byte-identical to calling :meth:`process` on each datagram
        in order, and the packet/byte accounting (:class:`PipelineCounters`),
        parser, and PRE counters advance identically.  Both entry points
        avoid the Python-level overhead that dominates the behavioural
        model: RTP parses are memoized on the raw extension bytes, the
        ``(src, ssrc) -> (entry, resolved targets)`` lookup chain is served
        from a cache invalidated on every control-plane write, and replicas
        share one immutable meta view instead of copying the dict per copy.
        The per-table ``lookups``/``hits`` tallies are the one observable
        that legitimately differs from an unmemoized walk: served-from-cache
        packets never touch the tables.
        """
        self._ensure_resolution_cache_fresh()
        results: List[PipelineResult] = []
        append = results.append
        media = self._process_media
        rtp_kind = PayloadKind.RTP
        # the accounting tally and accumulator are folded into the
        # counters/parser/PRE once at the end; the counter state after the
        # batch equals per-packet accounting
        tally, acc = self._tally, self._acc
        for datagram in datagrams:
            if datagram.kind is rtp_kind and isinstance(datagram.payload, _MEDIA_PAYLOADS):
                append(media(datagram, tally, acc))
            else:
                append(self.process(datagram))
        self._fold_batch_accounting()
        return results

    def _fold_batch_accounting(self) -> None:
        """Fold and empty the media path's deferred per-packet accounting.

        ``self._acc`` carries ``[parse cache hits, punts on those hits,
        memoized replication replays, copies those replays produced, replicas
        out]`` and ``self._tally`` the ``(label, to_cpu) -> [packets, bytes]``
        tallies, accumulated as plain increments on the hot path and folded
        here in one pass — the parser, PRE, and pipeline counters end the
        batch exactly where per-packet accounting would leave them.
        """
        acc = self._acc
        hits, punts, replays, copies, replicas = acc
        if hits:
            parser = self.parser
            parser.packets_parsed += hits
            parser.parse_cache_hits += hits
            parser.cpu_punts += punts
        if replays:
            self.pre.note_replications(replays, copies)
        if replicas:
            self.counters.replicas_out += replicas
        acc[:] = (0, 0, 0, 0, 0)
        tally = self._tally
        if tally:
            self.counters.account_tally(tally)
            tally.clear()

    def _ensure_resolution_cache_fresh(self) -> None:
        """Drop memoized forwarding state if the control plane wrote anything."""
        stamp = self.control.write_stamp()
        if stamp != self._cache_stamp:
            self._flow_cache.clear()
            self._cache_stamp = stamp

    def _process_media(
        self, datagram: Datagram, tally: Dict[Tuple[str, bool], List[int]], acc: List[int]
    ) -> PipelineResult:
        """Media path of :meth:`process` and :meth:`process_batch` for one
        ``RtpPacket`` or :class:`~repro.rtp.wire.PacketView` datagram.

        The representation is read once, in the header step: a wire packet
        gets one unpack of its 12-byte fixed header plus a bounds-checked
        slice of its extension block, an object packet its fields; both
        yield the SSRC, the sequence number and the parse-memo key, and
        nothing after that step knows which representation it holds.  No
        ``RtpPacket`` or extension object is built.  Structured for
        per-packet cost: one flow-cache probe serves the entry, the layer
        mode, and the memoized resolution together; the result and the
        replica datagrams are minted through ``__new__`` plus a prepared
        ``__dict__`` carrying every field; replicas that need no rewrite
        alias the ingress payload, a rewritten one is one
        ``with_sequence_number`` copy.  Outputs and counters stay
        byte-for-byte those of the unmemoized table walk
        (``tests/reference_datapath.py``), and wire egress serializes
        byte-identically to object egress (``tests/test_wire_packet_view.py``).
        """
        payload = datagram.payload
        if isinstance(payload, PacketView):
            buf = payload.buf
            first, second, sequence_number, _timestamp, ssrc = _FIXED_HEADER.unpack_from(buf, 0)
            # PacketView.parse_key inlined on the fields just unpacked
            if first & 0x10:
                base = RTP_HEADER_LEN + 4 * (first & 0x0F)
                if base + 4 > len(buf):
                    pkey: tuple = (ssrc, second & 0x7F, None, None)
                else:
                    profile, ext_words = _EXT_HEADER.unpack_from(buf, base)
                    stop = base + 4 + 4 * ext_words
                    pkey = (
                        ssrc,
                        second & 0x7F,
                        profile,
                        bytes(buf[base + 4 : stop]) if stop <= len(buf) else None,
                    )
            else:
                pkey = (ssrc, second & 0x7F)
        else:
            # rtp_parse_key's object arm inlined
            ssrc = payload.ssrc
            sequence_number = payload.sequence_number
            extension = payload.extension
            if extension is None:
                pkey = (ssrc, payload.payload_type)
            else:
                pkey = (ssrc, payload.payload_type, extension.profile, extension.data)
        # the memo probe with the hit accounting of
        # IngressParser.parse_rtp_cached inlined (a miss goes to its
        # _parse_and_memoize)
        parser = self.parser
        parse = parser._rtp_parse_cache.get(pkey)
        parse_hit = parse is not None
        if parse is None:
            parse = parser._parse_and_memoize(pkey)
            if parse.packet_class is PacketClass.UNKNOWN:
                return self._punt_damaged(datagram, parse, tally)
        else:
            acc[0] += 1
            if parse.needs_cpu:
                acc[1] += 1
        result = PipelineResult.__new__(PipelineResult)
        outputs: List[Datagram] = []
        cpu_copies: List[Datagram] = []
        result.__dict__ = {
            "parse": parse,
            "outputs": outputs,
            "cpu_copies": cpu_copies,
            "dropped_replicas": 0,
            "forwarding_delay_s": SWITCH_FORWARDING_DELAY_S,
        }
        counters = self.counters
        size = datagram.size

        flow = (datagram.src, ssrc)
        flow_cache = self._flow_cache
        state = flow_cache.get(flow)
        flow_hit = state is not None
        if state is None:
            if len(flow_cache) >= self.RESOLUTION_CACHE_LIMIT:
                flow_cache.clear()
            state = flow_cache[flow] = _FlowFastState(self.stream_table.lookup(flow))
            # lifecycle tracing decision: a pure function of the flow key,
            # stamped once at cache-fill time (classify() memoizes per flow
            # lifetime) — the steady-state per-packet probe below is a
            # single slot load, free when observability is off
            obs = self.obs
            if obs is not None:
                state.traced = obs.classify(flow, datagram.src.ip, datagram.src.port, ssrc)
        traced = state.traced
        entry = state.entry
        if entry is None:
            counters.table_misses += 1
            key = (parse.class_value, False)
            slot = tally.get(key)
            if slot is None:
                tally[key] = [1, size]
            else:
                slot[0] += 1
                slot[1] += size
            if traced:
                self.obs.record_media(
                    datagram.src.ip, datagram.src.port, ssrc, sequence_number,
                    datagram.arrived_at, size, parse_hit, flow_hit, 0, 0, False,
                )
            return result

        to_cpu = parse.cpu_copy
        key = (parse.class_value, to_cpu)
        slot = tally.get(key)
        if slot is None:
            tally[key] = [1, size]
        else:
            slot[0] += 1
            slot[1] += size
        if to_cpu:
            cpu_copies.append(datagram)

        if state.layered:
            layer = self._media_layer(entry, parse)
            resolution = state.by_layer.get(layer)
        else:
            layer = 0
            resolution = state.res0
        if resolution is None:
            resolution = self._resolve_and_cache(state, entry, layer, ssrc)
        else:
            # replay the per-packet accounting the uncached path would do
            # (deferred through acc; folded at the batch boundary)
            raw = resolution.raw_replicas
            if raw is not None:
                acc[2] += 1
                acc[3] += raw
            if resolution.replica_misses:
                counters.table_misses += resolution.replica_misses

        arrived_at = datagram.arrived_at
        schedule = None if arrived_at is None else arrived_at + SWITCH_FORWARDING_DELAY_S
        meta = MappingProxyType(datagram.meta) if datagram.meta else _NO_META
        # every replica is a C-level copy of this prepared field dict made
        # the instance __dict__ of a bare Datagram (no __init__, no size or
        # kind derivation; a sequence-number rewrite does not change size)
        base_copy = {
            "src": self.sfu_address,
            "dst": None,
            "payload": payload,
            "size": size,
            "kind": PayloadKind.RTP,
            "arrived_at": schedule,
            "meta": meta,
        }.copy
        new_datagram = Datagram.__new__
        set_state = object.__setattr__
        append = outputs.append

        if not (resolution.has_adaptation and parse.is_video):
            # no replica of this flow is rate-adapted (or the packet is
            # audio, which adaptation never touches): every target receives
            # the ingress payload unchanged
            addresses = resolution.addresses
            for address in addresses:
                out = new_datagram(Datagram)
                instance = base_copy()
                instance["dst"] = address
                set_state(out, "__dict__", instance)
                append(out)
            acc[4] += len(addresses)
            if traced:
                self.obs.record_media(
                    datagram.src.ip, datagram.src.port, ssrc, sequence_number,
                    arrived_at, size, parse_hit, flow_hit, len(addresses), 0, False,
                )
            return result

        # rate-adapted video: per-replica rewrite decisions (the stateful path)
        template_id = parse.template_id
        frame_number = parse.frame_number if parse.frame_number is not None else 0
        trackers_read = self.trackers.read
        dropped = 0
        for address, adaptation in resolution.addressed:
            out_payload = payload
            if adaptation is not None:
                # _apply_adaptation inlined with the table lookup pre-resolved
                forward = template_id is None or template_id in adaptation.allowed_templates
                rewriter = trackers_read(adaptation.stream_index)
                if rewriter is None:
                    out_payload = payload if forward else None
                else:
                    new_seq = rewriter.on_packet(sequence_number, frame_number, forward)
                    if new_seq is None:
                        out_payload = None
                    elif new_seq != sequence_number:
                        out_payload = payload.with_sequence_number(new_seq)
                    # else: a byte-identical rewrite aliases the ingress payload
                if out_payload is None:
                    dropped += 1
                    continue
            out = new_datagram(Datagram)
            instance = base_copy()
            instance["dst"] = address
            instance["payload"] = out_payload
            set_state(out, "__dict__", instance)
            append(out)
        if dropped:
            result.dropped_replicas = dropped
            counters.adaptation_drops += dropped
        acc[4] += len(outputs)
        if traced:
            self.obs.record_media(
                datagram.src.ip, datagram.src.port, ssrc, sequence_number,
                arrived_at, size, parse_hit, flow_hit, len(outputs), dropped, True,
            )
        return result

    def _resolve_and_cache(
        self, state: _FlowFastState, entry: StreamForwardingEntry, layer: int, ssrc: int
    ) -> _CachedResolution:
        """Resolve a flow's egress targets (PRE walk, replica and adaptation
        lookups) and memoize them in its fast-path slot."""
        targets, raw_replicas, misses = self._resolve_targets_detail(entry, layer)
        adaptation_lookup = self.adaptation_table.lookup
        resolution = _CachedResolution(
            tuple((target.address, adaptation_lookup((ssrc, target.address))) for target in targets),
            raw_replicas,
            misses,
        )
        if state.layered:
            state.by_layer[layer] = resolution
        else:
            state.res0 = resolution
        return resolution

    def _punt_damaged(
        self, datagram: Datagram, parse: ParseResult, tally: Dict[Tuple[str, bool], List[int]]
    ) -> PipelineResult:
        """A media packet whose header extension cannot be decoded: counted
        as a CPU punt (as :meth:`_punt` does), no replica."""
        PipelineCounters.accumulate(tally, parse.class_value, True, datagram.size)
        return PipelineResult(parse=parse, cpu_copies=[datagram])

    @staticmethod
    def _egress_schedule(datagram: Datagram) -> Optional[float]:
        """Per-packet departure time of this packet's replicas under
        schedule-preserving burst delivery: the ingress arrival plus the fixed
        traversal latency (``None`` outside burst mode, where the simulator's
        per-packet events carry the timing)."""
        arrived_at = datagram.arrived_at
        return None if arrived_at is None else arrived_at + SWITCH_FORWARDING_DELAY_S

    # -- media -------------------------------------------------------------------

    def _resolve_targets(self, entry: StreamForwardingEntry, parse: ParseResult) -> List[ReplicaTarget]:
        targets, _raw_replicas, _misses = self._resolve_targets_detail(
            entry, self._media_layer(entry, parse)
        )
        return list(targets)

    def _media_layer(self, entry: StreamForwardingEntry, parse: ParseResult) -> int:
        """Temporal layer selecting the per-quality tree (RA-R / RA-SR)."""
        if entry.mode != ForwardingMode.REPLICATE_BY_LAYER or not entry.mgid_by_layer:
            return 0
        template_id = parse.template_id
        if template_id is None:
            return 0
        layer = self._layer_by_template.get(template_id)
        if layer is None:
            from ..rtp.av1 import temporal_layer_for_template

            try:
                layer = temporal_layer_for_template(template_id)
            except ValueError:
                layer = 0
            self._layer_by_template[template_id] = layer
        return layer

    def _resolve_targets_detail(
        self, entry: StreamForwardingEntry, layer: int
    ) -> Tuple[Tuple[ReplicaTarget, ...], Optional[int], int]:
        """Resolve egress targets, also reporting the raw PRE copy count and
        replica-table miss count (bumping the per-packet counters once)."""
        if entry.mode == ForwardingMode.UNICAST:
            if entry.unicast_receiver is None:
                return (), None, 0
            return (ReplicaTarget(address=entry.unicast_receiver, participant_id="peer"),), None, 0

        if entry.mode == ForwardingMode.REPLICATE_BY_LAYER and entry.mgid_by_layer:
            mgid = entry.mgid_by_layer.get(layer, entry.mgid_by_layer.get(0))
        else:
            mgid = entry.mgid
        if mgid is None:
            return (), None, 0
        replicas = self.pre.replicate(
            mgid, l1_xid=entry.l1_xid, rid=entry.rid, l2_xid=entry.l2_xid
        )
        targets: List[ReplicaTarget] = []
        misses = 0
        for replica in replicas:
            target = self.replica_table.lookup((mgid, replica.rid))
            if target is None:
                self.counters.table_misses += 1
                misses += 1
                continue
            if target.address == entry.sender:
                # belt-and-braces: L2 pruning should already have removed this
                continue
            targets.append(target)
        return tuple(targets), len(replicas), misses

    # -- RTCP ----------------------------------------------------------------------

    def _handle_sender_rtcp(self, datagram: Datagram, parse: ParseResult, result: PipelineResult) -> None:
        """SR/SDES: replicated to the sender's receivers through the data plane.

        Once the flow's media has filled its fast-path slot, the targets are
        its layer-0 resolution there, the PRE and replica-table accounting
        replayed as on a media hit; until then the tables are walked and
        nothing is cached, so the slot's first fill (and the trace sampling
        decision stamped on it) stays with the media.  Replicas carry the
        ingress compound unchanged, so they reuse its ``size`` and ``kind``
        instead of re-serializing it per copy.
        """
        counters = self.counters
        counters.account(parse.packet_class, datagram.size, to_cpu=False)
        if parse.ssrc is None:
            return
        self._ensure_resolution_cache_fresh()
        flow = (datagram.src, parse.ssrc)
        state = self._flow_cache.get(flow)
        entry = self.stream_table.lookup(flow) if state is None else state.entry
        if entry is None:
            counters.table_misses += 1
            return
        if state is None:
            addresses = tuple(target.address for target in self._resolve_targets(entry, parse))
        else:
            # sender reports carry no template id: the layer-0 tree
            resolution = state.by_layer.get(0) if state.layered else state.res0
            if resolution is None:
                resolution = self._resolve_and_cache(state, entry, 0, parse.ssrc)
            else:
                if resolution.raw_replicas is not None:
                    self.pre.note_replication(resolution.raw_replicas)
                counters.table_misses += resolution.replica_misses
            addresses = resolution.addresses
        base_copy = {
            "src": self.sfu_address,
            "dst": None,
            "payload": datagram.payload,
            "size": datagram.size,
            "kind": datagram.kind,
            "arrived_at": self._egress_schedule(datagram),
            "meta": _NO_META,
        }.copy
        for address in addresses:
            out = Datagram.__new__(Datagram)
            instance = base_copy()
            instance["dst"] = address
            object.__setattr__(out, "__dict__", instance)
            result.outputs.append(out)
        counters.replicas_out += len(addresses)

    def _handle_feedback(self, datagram: Datagram, parse: ParseResult, result: PipelineResult) -> None:
        """RR/REMB/NACK/PLI: forwarded per rules, always copied to the CPU."""
        self.counters.account(parse.packet_class, datagram.size, to_cpu=True)
        result.cpu_copies.append(datagram)

        packets: Tuple[RtcpPacket, ...] = tuple(datagram.payload)  # type: ignore[arg-type]
        forwarded: Dict[Address, List[RtcpPacket]] = {}
        for packet in packets:
            media_ssrcs: List[int] = []
            forward_needs_selection = False
            if isinstance(packet, Remb):
                media_ssrcs = list(packet.media_ssrcs)
                forward_needs_selection = True
            elif isinstance(packet, ReceiverReport):
                media_ssrcs = [block.ssrc for block in packet.report_blocks]
                forward_needs_selection = True
            elif isinstance(packet, (Nack, PictureLossIndication)):
                media_ssrcs = [packet.media_ssrc]
            for media_ssrc in media_ssrcs:
                rule = self.feedback_table.lookup((datagram.src, media_ssrc))
                if rule is None:
                    continue
                if forward_needs_selection and not rule.forward_remb:
                    continue
                if not forward_needs_selection and not rule.forward_nack_pli:
                    continue
                forwarded.setdefault(rule.sender, []).append(packet)
        egress_schedule = self._egress_schedule(datagram)
        for sender, packet_list in forwarded.items():
            result.outputs.append(
                Datagram(
                    src=self.sfu_address,
                    dst=sender,
                    payload=tuple(packet_list),
                    arrived_at=egress_schedule,
                )
            )
            self.counters.replicas_out += 1

    # -- punting ---------------------------------------------------------------------

    def _punt(self, datagram: Datagram, parse: ParseResult, result: PipelineResult) -> None:
        self.counters.account(parse.packet_class, datagram.size, to_cpu=True)
        result.cpu_copies.append(datagram)


class ControlPlaneFacade:
    """Shared delegation surface over ``self.control``.

    Both the single-datapath :class:`ScallopPipeline` and the sharded engine
    expose the control plane's tables/registers/ledger and its write API as
    their own attributes; keeping the delegation in one mixin means a new
    control-plane capability surfaces on both engines at once (the "drop-in
    replacement" contract between them cannot silently diverge).
    """

    control: PipelineControlPlane

    def _bind_control_api(self) -> None:
        """Bind the control plane's write API as instance methods."""
        control = self.control
        self.install_stream = control.install_stream
        self.remove_stream = control.remove_stream
        self.install_stream_route = control.install_stream_route
        self.remove_stream_route = control.remove_stream_route
        self.install_replica_target = control.install_replica_target
        self.remove_replica_target = control.remove_replica_target
        self.install_adaptation = control.install_adaptation
        self.update_adaptation_templates = control.update_adaptation_templates
        self.remove_adaptation = control.remove_adaptation
        self.install_feedback_rule = control.install_feedback_rule
        self.remove_feedback_rule = control.remove_feedback_rule
        self.feedback_rules_for = control.feedback_rules_for
        self.batched_writes = control.batched_writes
        self.install_many = control.install_many
        self.export_flow_state = control.export_flow_state
        self.import_flow_state = control.import_flow_state

    @property
    def capacities(self) -> TofinoCapacities:
        return self.control.capacities

    @property
    def accountant(self) -> ResourceAccountant:
        return self.control.accountant

    @property
    def pre(self) -> PacketReplicationEngine:
        return self.control.pre

    @property
    def stream_table(self) -> ExactMatchTable:
        return self.control.stream_table

    @property
    def replica_table(self) -> ExactMatchTable:
        return self.control.replica_table

    @property
    def adaptation_table(self) -> ExactMatchTable:
        return self.control.adaptation_table

    @property
    def feedback_table(self) -> ExactMatchTable:
        return self.control.feedback_table

    @property
    def ssrc_table(self) -> ExactMatchTable:
        return self.control.ssrc_table

    @property
    def placement_table(self) -> ExactMatchTable:
        return self.control.placement_table

    @property
    def stream_indices(self) -> IndexAllocator:
        return self.control.stream_indices

    @stream_indices.setter
    def stream_indices(self, allocator: IndexAllocator) -> None:
        self.control.stream_indices = allocator

    @property
    def stream_trackers(self) -> RegisterArray:
        return self.control.stream_trackers


class ScallopPipeline(ControlPlaneFacade):
    """One control plane driving one datapath: the original single-engine API.

    Everything external code touched on the pre-split pipeline is still here —
    tables, PRE, accountant, counters, parser, the control methods and the
    ``process``/``process_batch`` entry points — now delegating to the
    composed :class:`PipelineControlPlane` and :class:`PipelineDatapath`.
    """

    RESOLUTION_CACHE_LIMIT = PipelineDatapath.RESOLUTION_CACHE_LIMIT

    def __init__(
        self,
        sfu_address: Address,
        capacities: TofinoCapacities = DEFAULT_CAPACITIES,
        sanitize: Optional[bool] = None,
        obs: Optional[ObsConfig] = None,
    ) -> None:
        self.control = PipelineControlPlane(sfu_address, capacities, obs=obs)
        self.datapath = PipelineDatapath(self.control, sanitize=sanitize)
        self.sfu_address = sfu_address

        # hot entry points bound directly (no wrapper frame on the data path)
        self.process = self.datapath.process
        self.process_batch = self.datapath.process_batch
        self._bind_control_api()

    # -- datapath state ------------------------------------------------------------

    @property
    def parser(self) -> IngressParser:
        return self.datapath.parser

    @property
    def counters(self) -> PipelineCounters:
        return self.datapath.counters

    def isolation_findings(self) -> List[IsolationViolation]:
        """Blocked control-plane mutation attempts recorded by the
        shard-isolation sanitizer (empty when it is off or nothing fired)."""
        log = self.datapath.isolation_log
        return list(log.violations) if log is not None else []

    def close(self) -> None:
        """No backend resources to release (API parity with the sharded
        engine, so SFU teardown can close either pipeline uniformly)."""
