"""Inter-SFU trunks: one SFU subscribes to a remote meeting's media once.

A trunk is the cascading primitive of the federation layer (SRMCA's
multi-node shape): for every meeting a box co-hosts with a peer, the peer's
replication layer sends exactly one copy of each remote sender's stream to
this box (the trunk endpoint is an ordinary
:class:`~repro.core.replication.ParticipantEndpoint` with ``trunk=True`` and
no media of its own), and this box fans that copy out to its local receivers
through its *own* PRE tree — trunk ingress rides the wire-native
:class:`~repro.rtp.wire.PacketView` path like any other media, and all
per-receiver sequence rewriting stays local to the egress box.

The manager owns three kinds of subscriber-side state per subscription:

* an ingress route ``(origin SFU, remote ssrc) -> REPLICATE(mgid)`` installed
  via :meth:`~repro.dataplane.pipeline.PipelineControlPlane.install_stream_route`
  (route only — SSRC *ownership* stays with the box terminating the sender's
  uplink, so trunk teardown can never clobber a migrated-in sender's row),
* a dedicated PRE tree whose nodes are the local receivers, and
* feedback plumbing: remote senders registered with the agent (SSRC
  resolution for REMB/descriptor punts; flagged ``remote`` so the filter
  function never points REMB rules at the remote client) and NACK/PLI
  forwarding rules whose next hop is the origin SFU.  REMB is never forwarded
  over a trunk — each box runs the paper's filter function over its own
  receiver population, which is exactly the cascaded-SFU semantic.

Teardown is guard-checked (route still points at this trunk's tree, rule
still points at the origin, sender still registered as remote) so a lingering
teardown scheduled behind a migration drain window can never tear down state
a newer sync or a migrated-in participant has since installed under the same
keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..core.replication import (
    ParticipantEndpoint,
    add_replica_node,
    population_delta,
    remove_replica_node,
    write_feedback_rows,
)
from ..dataplane.pipeline import ForwardingMode, StreamForwardingEntry
from ..netsim.datagram import Address

#: Datagram meta key carrying the original source address of a straggler
#: forwarded over a trunk after a migration cutover.  A meta key, never a new
#: Datagram field (the pipeline and ``Datagram.restamped`` mint datagrams from
#: field dicts that hold exactly the dataclass's fields) — the receiving box
#: restores the original source before pipeline ingress, so stragglers hit
#: the real stream entries of the migrated-in flows.
TRUNK_FORWARD_SRC_META = "trunk_fwd_src"


@dataclass
class TrunkStats:
    """Per-box trunk telemetry (the ``repro.trunk.*`` metric namespace)."""

    packets_in: int = 0            #: datagrams received from peer SFUs
    bytes_in: int = 0              #: payload bytes received from peer SFUs
    stragglers_forwarded: int = 0  #: post-cutover in-flight packets forwarded to the new home
    migrations_in: int = 0         #: meetings adopted by this box
    migrations_out: int = 0        #: meetings shipped away from this box
    snapshot_bytes: int = 0        #: total packed snapshot bytes shipped (both directions)
    subscriptions: int = 0         #: live trunk subscriptions (gauge)


@dataclass
class SfuTrunk:
    """One live subscription: this box receives ``meeting_id`` media from
    ``origin`` and fans it out locally through tree ``mgid``."""

    meeting_id: str
    origin: Address
    mgid: int
    #: remote senders registered with the local agent, by participant id
    senders: Dict[str, ParticipantEndpoint] = field(default_factory=dict)
    #: local receivers in PRE node order, by participant id
    receivers: Dict[str, ParticipantEndpoint] = field(default_factory=dict)
    #: each local receiver's (PRE node id, rid) in the trunk tree
    nodes: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: set once the trunk's state has been released (idempotent teardown:
    #: a lingering drain-window event may fire after an explicit flush)
    released: bool = False

    @property
    def key(self) -> Tuple[str, Address]:
        return (self.meeting_id, self.origin)

    @property
    def ssrcs(self) -> Tuple[int, ...]:
        """Remote media SSRCs routed through this trunk."""
        return tuple(ssrc for sender in self.senders.values() for _kind, ssrc in sender.media_ssrcs())


class TrunkManager:
    """Subscriber-side trunk state of one :class:`~repro.cluster.ClusterSfu`."""

    def __init__(self, sfu) -> None:
        self.sfu = sfu
        self.subscriptions: Dict[Tuple[str, Address], SfuTrunk] = {}
        #: the same subscriptions indexed by meeting, then origin
        self._by_meeting: Dict[str, Dict[Address, SfuTrunk]] = {}
        #: stale trunks waiting out a migration drain window before teardown
        self._pending: List[SfuTrunk] = []

    # ------------------------------------------------------------------ sync

    def sync_meeting(
        self,
        meeting_id: str,
        remote_senders: Dict[Address, Sequence[ParticipantEndpoint]],
        local_receivers: Sequence[ParticipantEndpoint],
        linger_s: float = 0.0,
    ) -> None:
        """Reconcile this box's subscriptions for one meeting.

        ``remote_senders`` maps each peer origin to the sender endpoints
        (true client addresses + SSRCs) whose media must arrive over that
        trunk; ``local_receivers`` are this box's own meeting participants
        (post-:meth:`~repro.core.switch_agent.SwitchAgent.configure_meeting`,
        so their egress ports are assigned).  An op writes only its change:
        a live subscription, found through the per-meeting index, is patched
        for the senders and receivers that joined, left or changed — receiver
        nodes, sender registrations, routes and rules of those alone — and a
        call that changes nothing writes nothing.
        Stale subscriptions are torn down after ``linger_s`` seconds — a
        migration keeps the old tree alive for its drain window so trunk-era
        in-flight replicas still reach the pre-cutover local population,
        while the guard checks keep the delayed teardown from touching state
        the cutover re-installed.
        """
        live = self._by_meeting.get(meeting_id, {})
        desired = {
            origin: senders for origin, senders in remote_senders.items() if senders and local_receivers
        }
        stale = [trunk for origin, trunk in live.items() if origin not in desired]
        departed: List[Tuple[SfuTrunk, List[ParticipantEndpoint]]] = []
        with self.sfu.pipeline.batched_writes():
            for origin in sorted(desired, key=lambda address: (address.ip, address.port)):
                trunk = live.get(origin)
                if trunk is None:
                    trunk = self._subscribe(meeting_id, origin)
                departed.append((trunk, self._patch(trunk, desired[origin], local_receivers)))
            # what the subscriptions no longer carry is released once every
            # patch is in
            for trunk, senders in departed:
                if senders:
                    self._release_senders(trunk, senders)
        for trunk in stale:
            self._unsubscribe(trunk)
            if linger_s > 0.0:
                self._pending.append(trunk)
                self.sfu.simulator.schedule(linger_s, lambda t=trunk: self._teardown_batched(t))
            else:
                self._teardown_batched(trunk)
        self.sfu.trunk_stats.subscriptions = len(self.subscriptions)

    def teardown_meeting(self, meeting_id: str, linger_s: float = 0.0) -> None:
        """Drop every subscription of a meeting (last local participant left
        or the meeting migrated away)."""
        self.sync_meeting(meeting_id, {}, [], linger_s=linger_s)

    def flush_lingering(self) -> None:
        """Force-run any teardown still waiting on a drain window (end-of-run
        reconciliation: the simulator will not advance past the horizon, so
        pending windows would otherwise never expire)."""
        for trunk in list(self._pending):
            self._teardown_batched(trunk)

    # ------------------------------------------------------------------ internals

    def _subscribe(self, meeting_id: str, origin: Address) -> SfuTrunk:
        """A new, empty subscription with its own PRE tree."""
        trunk = SfuTrunk(meeting_id=meeting_id, origin=origin, mgid=self.sfu.pipeline.pre.create_tree())
        self.subscriptions[trunk.key] = trunk
        self._by_meeting.setdefault(meeting_id, {})[origin] = trunk
        return trunk

    def _unsubscribe(self, trunk: SfuTrunk) -> None:
        del self.subscriptions[trunk.key]
        live = self._by_meeting[trunk.meeting_id]
        del live[trunk.origin]
        if not live:
            del self._by_meeting[trunk.meeting_id]

    def _patch(
        self,
        trunk: SfuTrunk,
        senders: Sequence[ParticipantEndpoint],
        local_receivers: Sequence[ParticipantEndpoint],
    ) -> List[ParticipantEndpoint]:
        """Bring a subscription to the new population in place, writing only
        for the receivers and senders that joined, left or changed
        (:func:`~repro.core.replication.population_delta`); returns the
        senders it no longer carries, for :meth:`_release_senders`."""
        arriving, gone = population_delta(trunk.receivers, local_receivers)
        for receiver in gone:
            self._remove_receiver(trunk, receiver.participant_id)
        for receiver in arriving:
            self._add_receiver(trunk, receiver)
        joining, departed = population_delta(trunk.senders, senders)
        if joining or departed:
            trunk.senders = {sender.participant_id: sender for sender in senders}
        for sender in joining:
            self.sfu.agent.register_remote_sender(trunk.meeting_id, sender)
        self._route(trunk, joining)
        self._point_feedback(trunk, joining, local_receivers)
        if arriving:
            joined = {sender.participant_id for sender in joining}
            staying = [sender for sender in senders if sender.participant_id not in joined]
            self._point_feedback(trunk, staying, arriving)
        return departed

    def _add_receiver(self, trunk: SfuTrunk, receiver: ParticipantEndpoint) -> None:
        trunk.nodes[receiver.participant_id] = add_replica_node(self.sfu.pipeline, trunk.mgid, receiver)
        trunk.receivers[receiver.participant_id] = receiver

    def _remove_receiver(self, trunk: SfuTrunk, participant_id: str) -> None:
        del trunk.receivers[participant_id]
        node_id, rid = trunk.nodes.pop(participant_id)
        remove_replica_node(self.sfu.pipeline, trunk.mgid, node_id, rid)

    def _route(self, trunk: SfuTrunk, senders: Sequence[ParticipantEndpoint]) -> None:
        """Ingress routes ``(origin, ssrc) -> REPLICATE(trunk tree)``."""
        for sender in senders:
            for _kind, ssrc in sender.media_ssrcs():
                self.sfu.pipeline.install_stream_route(
                    (trunk.origin, ssrc),
                    StreamForwardingEntry(
                        mode=ForwardingMode.REPLICATE,
                        meeting_id=trunk.meeting_id,
                        sender=trunk.origin,
                        mgid=trunk.mgid,
                    ),
                )

    def _point_feedback(
        self,
        trunk: SfuTrunk,
        senders: Sequence[ParticipantEndpoint],
        receivers: Sequence[ParticipantEndpoint],
    ) -> None:
        """NACK/PLI from ``receivers`` about ``senders``' media go to the origin
        (one SSRC at a time, toward every receiver)."""
        for sender in senders:
            for _kind, ssrc in sender.media_ssrcs():
                write_feedback_rows(self.sfu.pipeline, (ssrc,), trunk.origin, receivers)

    def _teardown_batched(self, trunk: SfuTrunk) -> None:
        if trunk.released:
            return
        with self.sfu.pipeline.batched_writes():
            self._teardown(trunk)
        if trunk in self._pending:
            self._pending.remove(trunk)

    def _teardown(self, trunk: SfuTrunk) -> None:
        """Release a trunk's state, skipping anything re-owned since."""
        if trunk.released:
            return
        trunk.released = True
        self._release_senders(trunk, list(trunk.senders.values()))
        for pid in list(trunk.receivers):
            self._remove_receiver(trunk, pid)
        self.sfu.pipeline.pre.destroy_tree(trunk.mgid)
        self.sfu.trunk_stats.subscriptions = len(self.subscriptions)

    def _release_senders(self, trunk: SfuTrunk, senders: Sequence[ParticipantEndpoint]) -> None:
        """Release the routes, feedback rules and registrations of ``senders``.

        The guards make a delayed (post-drain-window) teardown safe: a route
        is removed only while it still points at this trunk's tree, a
        feedback rule only while its next hop is still the origin and no
        active subscription covers the SSRC, and a sender registration only
        while it is still marked remote (a migrated-in participant re-registers
        the same id as local).  The rules about an SSRC are found through the
        control plane's per-SSRC index, not a scan of the feedback table.
        """
        pipeline = self.sfu.pipeline
        active = self.subscriptions.get(trunk.key)
        active_ssrcs = set(active.ssrcs) if active is not None else set()
        active_senders = active.senders if active is not None else {}
        for sender in senders:
            for _kind, ssrc in sender.media_ssrcs():
                if ssrc in active_ssrcs:
                    continue
                entry = pipeline.stream_table.peek((trunk.origin, ssrc))
                if entry is not None and entry.mgid == trunk.mgid:
                    pipeline.remove_stream_route((trunk.origin, ssrc))
                for receiver, media_ssrc in pipeline.feedback_rules_for(None, (ssrc,)):
                    if pipeline.feedback_table.peek((receiver, media_ssrc)).sender == trunk.origin:
                        pipeline.remove_feedback_rule(receiver, media_ssrc)
        for sender in senders:
            if sender.participant_id not in active_senders:
                self.sfu.agent.forget_remote_sender(sender.participant_id)
