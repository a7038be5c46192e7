"""Replication-tree construction and meeting installation.

This module is the piece of the switch agent that maps VCA entities (meetings,
senders, receivers) onto the PRE hierarchy (§6.1 of the paper):

* **TWO_PARTY** — no replication tree; the sender's stream is unicast to its
  single peer.
* **NRA** — one tree shared by up to ``m`` meetings; every participant is an
  L1 node, L1 XIDs separate the meetings, L2 XIDs suppress the sender's own
  copy.
* **RA_R** — one tree per media quality per meeting group; a packet of
  temporal layer ``l`` is replicated through the layer-``l`` tree, which
  contains the receivers whose decode target includes that layer.
* **RA_SR** — per (sender-pair, quality) trees, the least aggregated design.

:meth:`ReplicationManager.sync_meeting` is the one way a meeting's trees and
ingress entries change; the caller (the switch agent) names the design.  A
join or leave that keeps the meeting's design patches its trees in place:
the meeting keeps its tree group and L1 XID slot, the departed
participants' L1 nodes, replica targets and stream entries go, and the
newcomers' are added.  The meeting's own state then equals a fresh install
of it at that group and slot.  A design change (or a first install) re-lays
the trees make-before-break: build the new trees, repoint the ingress
entries, then release the old trees.  A meeting entering a group takes the
lowest free XID slot.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..dataplane.pipeline import (
    FeedbackRule,
    ForwardingMode,
    ReplicaTarget,
    ScallopPipeline,
    StreamForwardingEntry,
)
from ..dataplane.pre import L2Port
from ..netsim.datagram import Address
from .capacity import ReplicationDesign


@dataclass
class ParticipantEndpoint:
    """What the replication layer needs to know about one participant."""

    participant_id: str
    address: Address
    #: assigned by the replication manager when the participant enters a
    #: meeting and kept while it stays, so it is not part of what makes two
    #: endpoints the same participant
    egress_port: int = field(compare=False)
    audio_ssrc: Optional[int] = None
    video_ssrc: Optional[int] = None
    #: Inter-SFU trunk endpoint (``repro.cluster``): the "participant" is a
    #: peer SFU subscribing to this meeting's media.  It contributes no media
    #: of its own (no SSRCs, so no ingress stream entry is ever installed for
    #: it) and receives exactly one copy of every local sender's stream; the
    #: peer's own PRE fans that copy out to its local receivers.
    trunk: bool = False

    def media_ssrcs(self) -> List[Tuple[str, int]]:
        ssrcs: List[Tuple[str, int]] = []
        if self.audio_ssrc is not None:
            ssrcs.append(("audio", self.audio_ssrc))
        if self.video_ssrc is not None:
            ssrcs.append(("video", self.video_ssrc))
        return ssrcs


def same_endpoint(held: Optional[ParticipantEndpoint], participant: ParticipantEndpoint) -> bool:
    """Endpoint equality with an identity fast path (a participant's
    endpoint is built once, so an unchanged one is the same object)."""
    return held is participant or held == participant


def population_delta(
    installed: Mapping[str, ParticipantEndpoint], wanted: Sequence[ParticipantEndpoint]
) -> Tuple[List[ParticipantEndpoint], List[ParticipantEndpoint]]:
    """``(arriving, leaving)`` from the ``installed`` population (by
    participant id) to ``wanted``: the wanted endpoints not installed as
    they are, in ``wanted`` order, and the installed ones not kept, in
    installed order.  A participant whose endpoint changed is in both.  The
    installed side is walked only when something it holds is not kept."""
    arriving = [p for p in wanted if not same_endpoint(installed.get(p.participant_id), p)]
    leaving: List[ParticipantEndpoint] = []
    if len(wanted) - len(arriving) != len(installed):
        kept = {p.participant_id: p for p in wanted}
        leaving = [p for pid, p in installed.items() if not same_endpoint(kept.get(pid), p)]
    return arriving, leaving


def add_replica_node(
    pipeline: ScallopPipeline,
    mgid: int,
    participant: ParticipantEndpoint,
    l1_xid: Optional[int] = None,
    prune_enabled: bool = False,
) -> Tuple[int, int]:
    """Append ``participant``'s L1 node to tree ``mgid`` under the tree's
    lowest free RID, with the replica target the RID resolves to; returns
    ``(node id, rid)``."""
    rid = pipeline.pre.free_rid(mgid)
    node_id = pipeline.pre.add_node(
        mgid,
        rid=rid,
        ports=[L2Port(port=participant.egress_port, l2_xid=participant.egress_port)],
        l1_xid=l1_xid,
        prune_enabled=prune_enabled,
    )
    pipeline.install_replica_target(
        mgid, rid, ReplicaTarget(address=participant.address, participant_id=participant.participant_id)
    )
    return node_id, rid


def remove_replica_node(pipeline: ScallopPipeline, mgid: int, node_id: int, rid: int) -> None:
    """Undo :func:`add_replica_node`."""
    pipeline.pre.remove_node(mgid, node_id)
    pipeline.remove_replica_target(mgid, rid)


def write_feedback_rows(
    pipeline: ScallopPipeline,
    ssrcs: Sequence[int],
    next_hop: Address,
    receivers: Sequence[ParticipantEndpoint],
    remb_to: Optional[str] = None,
) -> int:
    """Send the feedback ``receivers`` give about a sender's media ``ssrcs``
    to ``next_hop``: NACK/PLI from every receiver, REMB only from the one
    ``remb_to`` names.  Writes the rows receiver by receiver and returns
    how many it wrote."""
    for receiver in receivers:
        rule = FeedbackRule(sender=next_hop, forward_remb=receiver.participant_id == remb_to)
        for ssrc in ssrcs:
            pipeline.install_feedback_rule(receiver.address, ssrc, rule)
    return len(receivers) * len(ssrcs)


@dataclass
class _TreeState:
    """One allocated multicast tree and its membership bookkeeping."""

    mgid: int
    layer: Optional[int] = None                       # RA designs: temporal layer
    node_ids: Dict[str, int] = field(default_factory=dict)   # participant -> node id
    rids: Dict[str, int] = field(default_factory=dict)        # participant -> RID
    senders: Tuple[str, ...] = ()                     # RA-SR: the sender pair it serves


@dataclass
class _TreeGroup:
    """NRA / RA-R trees shared by up to ``meetings_per_tree`` meetings."""

    design: ReplicationDesign
    trees: List[_TreeState]
    #: member meeting -> its L1 XID slot in every tree of the group
    meetings: Dict[str, int] = field(default_factory=dict)


#: ``(tree, node id, rid)`` of PRE nodes taken out of a tree's bookkeeping
_DetachedNodes = List[Tuple[_TreeState, int, int]]


@dataclass
class MeetingReplicationState:
    """Everything the agent tracks about one installed meeting."""

    meeting_id: str
    design: ReplicationDesign
    participants: Dict[str, ParticipantEndpoint] = field(default_factory=dict)
    trees: List[_TreeState] = field(default_factory=list)
    l1_xid: Optional[int] = None       # this meeting's XID inside shared trees
    tree_group: Optional[str] = None   # id of the NRA/RA-R group this meeting shares
    #: the exclusion XID its stream entries carry (:meth:`ReplicationManager._other_meeting_xid`)
    stamped_xid: Optional[int] = None


class ReplicationManager:
    """Builds and maintains replication trees for meetings on one pipeline."""

    def __init__(self, pipeline: ScallopPipeline) -> None:
        if pipeline.capacities.meetings_per_tree > 2:
            # a packet carries one L1 exclusion XID, which prunes one other meeting
            raise ValueError("shared trees hold at most two meetings (meetings_per_tree <= 2)")
        self.pipeline = pipeline
        self.meetings: Dict[str, MeetingReplicationState] = {}
        self._next_port = 1
        # NRA / RA-R tree groups with a free meeting slot, in the order a new
        # meeting tries them
        self._open_groups: Dict[ReplicationDesign, List[str]] = {ReplicationDesign.NRA: [], ReplicationDesign.RA_R: []}
        self._groups: Dict[str, _TreeGroup] = {}
        self._group_counter = itertools.count(1)

    # ------------------------------------------------------------------ membership

    def install_meeting(
        self, meeting_id: str, participants: Sequence[ParticipantEndpoint], design: ReplicationDesign
    ) -> MeetingReplicationState:
        """Install a new meeting under ``design``."""
        if meeting_id in self.meetings:
            raise ValueError(f"meeting already installed: {meeting_id}")
        return self.sync_meeting(meeting_id, participants, design)

    def sync_meeting(
        self, meeting_id: str, participants: Sequence[ParticipantEndpoint], design: ReplicationDesign
    ) -> MeetingReplicationState:
        """Bring a meeting's trees and ingress entries to ``participants``
        under ``design``.

        A shared-tree meeting that keeps its design is patched in place: it
        keeps its tree group, its surviving nodes and its XID slot, and ends
        up as a fresh install of the new population at that group and slot
        would leave it.  A design change (or a first install) re-lays its
        trees instead (:meth:`_relay`).  A single remaining participant has
        nobody to forward to: the meeting record stays, with no forwarding
        state installed.  A participant the meeting holds keeps its egress
        port and a newcomer takes the next one; ports are never reused, so
        nobody present changes port.
        """
        state = self.meetings.get(meeting_id)
        installed = state.participants if state is not None else {}
        wanted: Dict[str, ParticipantEndpoint] = {}
        for participant in participants:
            held = installed.get(participant.participant_id)
            if held is None:
                participant.egress_port = self._next_port
                self._next_port += 1
            else:
                participant.egress_port = held.egress_port
            wanted[participant.participant_id] = participant
        if state is None:
            state = MeetingReplicationState(meeting_id=meeting_id, design=design)
            self.meetings[meeting_id] = state
        elif design == state.design:
            arriving, leaving = population_delta(state.participants, participants)
            if self._patchable(state, len(wanted), bool(arriving or leaving)):
                self._patch(state, wanted, arriving, leaving)
                return state
        self._relay(state, design, wanted)
        return state

    def remove_meeting(self, meeting_id: str) -> None:
        """Tear down a meeting's trees and ingress entries."""
        state = self.meetings.pop(meeting_id, None)
        if state is None:
            return
        for participant in state.participants.values():
            self._remove_sender_entries(participant)
        self._release(*self._detach(state))

    # ------------------------------------------------------------------ incremental membership

    def _patchable(self, state: MeetingReplicationState, size: int, changed: bool) -> bool:
        """Whether a meeting that keeps its design can be patched in place: a
        shared-tree meeting of two or more, or any meeting whose population
        did not change (the patch then writes nothing)."""
        if state.tree_group is not None:
            return size >= 2
        return not changed

    def _patch(
        self,
        state: MeetingReplicationState,
        wanted: Dict[str, ParticipantEndpoint],
        arriving: List[ParticipantEndpoint],
        leaving: List[ParticipantEndpoint],
    ) -> None:
        """Rewrite only what changed: drop the departed participants' nodes,
        targets and entries, add the newcomers', and re-stamp the survivors'
        entries only if the exclusion XID moved since they were written."""
        for participant in leaving:
            self._remove_sender_entries(participant)
        for tree in state.trees:
            for participant in leaving:
                self._remove_node(tree, f"{state.meeting_id}:{participant.participant_id}")
            for participant in arriving:
                self._add_node(tree, state.meeting_id, participant, state.l1_xid, prune_enabled=True)
        state.participants = wanted
        xid = self._other_meeting_xid(state)
        if xid != state.stamped_xid:
            state.stamped_xid = xid
            arriving = list(wanted.values())
        for participant in arriving:
            self._install_sender_entries(state, participant)

    def _relay(
        self, state: MeetingReplicationState, design: ReplicationDesign, wanted: Dict[str, ParticipantEndpoint]
    ) -> None:
        """Lay the meeting's trees out anew, make-before-break (paper §6.1):
        build the new trees, repoint the ingress entries, then release the
        old trees.  The meeting gives up its old group slot before the
        build, so the new trees may be laid in its current group."""
        forwarded = wanted if len(wanted) >= 2 else {}
        for pid, participant in state.participants.items():
            if not same_endpoint(forwarded.get(pid), participant):
                self._remove_sender_entries(participant)
        old = self._detach(state)
        state.design = design
        state.participants = wanted
        # 1. create the new replication trees
        self._build(state)
        # 2. point the ingress entries at them
        self._install_stream_entries(state)
        # 3. release the old trees
        self._release(*old)

    # ------------------------------------------------------------------ design construction

    def _build(self, state: MeetingReplicationState) -> None:
        if len(state.participants) < 2:
            return  # nothing to forward yet
        if state.design == ReplicationDesign.TWO_PARTY:
            if len(state.participants) != 2:
                raise ValueError("the two-party design requires exactly two participants")
            return  # no trees at all
        if state.design == ReplicationDesign.NRA:
            self._build_shared_group(state, layers=[None])
        elif state.design == ReplicationDesign.RA_R:
            self._build_shared_group(state, layers=list(range(self.pipeline.capacities.num_qualities)))
        else:  # RA_SR
            self._build_ra_sr(state)

    def _build_shared_group(self, state: MeetingReplicationState, layers: List[Optional[int]]) -> None:
        """NRA / RA-R: join (or open) a tree group shared by up to m meetings."""
        design = state.design
        meetings_per_tree = self.pipeline.capacities.meetings_per_tree
        open_groups = self._open_groups[design]
        if open_groups:
            group_id = open_groups[0]
        else:
            group_id = f"{design.value}-group-{next(self._group_counter)}"
            trees = [_TreeState(mgid=self.pipeline.pre.create_tree(), layer=layer) for layer in layers]
            self._groups[group_id] = _TreeGroup(design=design, trees=trees)
            open_groups.append(group_id)
        group = self._groups[group_id]
        taken = set(group.meetings.values())
        group.meetings[state.meeting_id] = next(xid for xid in itertools.count(1) if xid not in taken)
        if len(group.meetings) >= meetings_per_tree:
            open_groups.remove(group_id)

        state.tree_group = group_id
        state.l1_xid = group.meetings[state.meeting_id]
        state.trees = list(group.trees)

        for tree in state.trees:
            for participant in state.participants.values():
                self._add_node(tree, state.meeting_id, participant, state.l1_xid, prune_enabled=True)

    def _build_ra_sr(self, state: MeetingReplicationState) -> None:
        """RA-SR: one tree per (pair of senders, quality)."""
        participants = list(state.participants.values())
        sender_pairs = [participants[i : i + 2] for i in range(0, len(participants), 2)]
        for pair in sender_pairs:
            for layer in range(self.pipeline.capacities.num_qualities):
                tree = _TreeState(
                    mgid=self.pipeline.pre.create_tree(),
                    layer=layer,
                    senders=tuple(p.participant_id for p in pair),
                )
                for participant in participants:
                    self._add_node(tree, state.meeting_id, participant, None, prune_enabled=False)
                state.trees.append(tree)

    def _add_node(
        self,
        tree: _TreeState,
        meeting_id: str,
        participant: ParticipantEndpoint,
        l1_xid: Optional[int],
        prune_enabled: bool,
    ) -> None:
        key = f"{meeting_id}:{participant.participant_id}"
        tree.node_ids[key], tree.rids[key] = add_replica_node(
            self.pipeline, tree.mgid, participant, l1_xid, prune_enabled
        )

    def _remove_node(self, tree: _TreeState, key: str) -> None:
        remove_replica_node(self.pipeline, tree.mgid, tree.node_ids.pop(key), tree.rids.pop(key))

    # ------------------------------------------------------------------ ingress entries

    def _install_stream_entries(self, state: MeetingReplicationState) -> None:
        state.stamped_xid = self._other_meeting_xid(state)
        if len(state.participants) < 2:
            return  # a lone participant has no receivers to forward to
        for participant in state.participants.values():
            self._install_sender_entries(state, participant)

    def _install_sender_entries(self, state: MeetingReplicationState, participant: ParticipantEndpoint) -> None:
        for _kind, ssrc in participant.media_ssrcs():
            entry = self._entry_for_sender(state, participant)
            self.pipeline.install_stream((participant.address, ssrc), entry)

    def _remove_sender_entries(self, participant: ParticipantEndpoint) -> None:
        for _kind, ssrc in participant.media_ssrcs():
            self.pipeline.remove_stream((participant.address, ssrc))

    def _entry_for_sender(
        self, state: MeetingReplicationState, sender: ParticipantEndpoint
    ) -> StreamForwardingEntry:
        if state.design == ReplicationDesign.TWO_PARTY:
            peer = next(
                p for p in state.participants.values() if p.participant_id != sender.participant_id
            )
            return StreamForwardingEntry(
                mode=ForwardingMode.UNICAST,
                meeting_id=state.meeting_id,
                sender=sender.address,
                unicast_receiver=peer.address,
            )

        key = f"{state.meeting_id}:{sender.participant_id}"
        if state.design == ReplicationDesign.NRA:
            tree = state.trees[0]
            return StreamForwardingEntry(
                mode=ForwardingMode.REPLICATE,
                meeting_id=state.meeting_id,
                sender=sender.address,
                mgid=tree.mgid,
                l1_xid=self._other_meeting_xid(state),
                rid=tree.rids.get(key),
                l2_xid=sender.egress_port,
            )

        if state.design == ReplicationDesign.RA_R:
            mgid_by_layer = {tree.layer: tree.mgid for tree in state.trees if tree.layer is not None}
            base_tree = state.trees[0]
            return StreamForwardingEntry(
                mode=ForwardingMode.REPLICATE_BY_LAYER,
                meeting_id=state.meeting_id,
                sender=sender.address,
                mgid=base_tree.mgid,
                mgid_by_layer=mgid_by_layer,
                l1_xid=self._other_meeting_xid(state),
                rid=base_tree.rids.get(key),
                l2_xid=sender.egress_port,
            )

        # RA_SR: use the trees whose sender pair contains this sender
        own_trees = [tree for tree in state.trees if sender.participant_id in tree.senders] or state.trees
        mgid_by_layer = {tree.layer: tree.mgid for tree in own_trees if tree.layer is not None}
        base_tree = own_trees[0]
        return StreamForwardingEntry(
            mode=ForwardingMode.REPLICATE_BY_LAYER,
            meeting_id=state.meeting_id,
            sender=sender.address,
            mgid=base_tree.mgid,
            mgid_by_layer=mgid_by_layer,
            rid=base_tree.rids.get(f"{state.meeting_id}:{sender.participant_id}"),
            l2_xid=sender.egress_port,
        )

    def xid_current(self, state: MeetingReplicationState) -> bool:
        """Whether the meeting's stream entries stamp its partner's current
        XID slot (a partner that entered or left the group since they were
        written makes them stale until the meeting's next sync)."""
        return state.stamped_xid == self._other_meeting_xid(state)

    def _other_meeting_xid(self, state: MeetingReplicationState) -> Optional[int]:
        """The L1 XID to stamp on packets so the *other* meeting's nodes are
        pruned: the partner meeting's slot, or none while the group holds
        this meeting alone."""
        if state.tree_group is None:
            return None
        for meeting_id, xid in self._groups[state.tree_group].meetings.items():
            if meeting_id != state.meeting_id:
                return xid
        return None

    # ------------------------------------------------------------------ teardown helpers

    def _detach(self, state: MeetingReplicationState) -> Tuple[List[_TreeState], Optional[str], _DetachedNodes]:
        """Take the meeting out of its trees: give up its group slot and drop
        its nodes from the trees' bookkeeping.  The PRE nodes themselves stay
        until :meth:`_release`, so entries pointing at them keep forwarding."""
        prefix = f"{state.meeting_id}:"
        nodes: _DetachedNodes = []
        for tree in state.trees:
            for key in [k for k in tree.node_ids if k.startswith(prefix)]:
                nodes.append((tree, tree.node_ids.pop(key), tree.rids.pop(key)))
        if state.tree_group is not None:
            del self._groups[state.tree_group].meetings[state.meeting_id]
        detached = (state.trees, state.tree_group, nodes)
        state.trees = []
        state.tree_group = None
        state.l1_xid = None
        return detached

    def _release(self, trees: List[_TreeState], group_id: Optional[str], nodes: _DetachedNodes) -> None:
        """Remove detached nodes, then destroy the trees nobody holds: a
        private (RA-SR) tree always, a shared group once its last meeting
        left — otherwise the group is open to a meeting again."""
        for tree, node_id, rid in nodes:
            remove_replica_node(self.pipeline, tree.mgid, node_id, rid)
        if group_id is None:
            for tree in trees:
                self.pipeline.pre.destroy_tree(tree.mgid)
            return
        group = self._groups[group_id]
        open_groups = self._open_groups[group.design]
        if not group.meetings:
            for tree in group.trees:
                self.pipeline.pre.destroy_tree(tree.mgid)
            if group_id in open_groups:
                open_groups.remove(group_id)
            del self._groups[group_id]
        elif len(group.meetings) < self.pipeline.capacities.meetings_per_tree and group_id not in open_groups:
            open_groups.append(group_id)
