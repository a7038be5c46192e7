"""Multi-SFU federation: cluster-aware SFUs and the placement coordinator.

:class:`ClusterSfu` is a :class:`~repro.core.scallop.ScallopSfu` that knows
its peers: trunk traffic from peer boxes is counted, straggler forwards are
decapsulated back to their original source before pipeline ingress, and a
post-migration drain window forwards in-flight packets of migrated-away
clients to their new home (tagged via datagram meta — the packet itself is
untouched, so the forward rides the wire-native path end to end).

:class:`SfuCluster` places meetings across 2+ boxes inside one netsim,
maintains the inter-SFU trunks through every membership change, and performs
cross-SFU meeting migration: snapshot at a batch boundary, move the clients,
adopt the versioned snapshot (packed rewriter register images included) on
the destination, arm straggler routes, and re-sync trunks with the old state
lingering for the drain window.  Following the cluster live-migration pattern
of the related work: migrating to a box outside the cluster raises, and a
meeting already home is a no-op.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Collection, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.replication import ParticipantEndpoint
from ..core.scallop import ScallopSfu
from ..dataplane.pipeline import (
    SWITCH_FORWARDING_DELAY_S,
    BoxState,
    box_state,
    mapping_diff,
    state_diff,
    state_sections,
)
from ..netsim.datagram import Address, Datagram
from ..netsim.simulator import Simulator
from ..netsim.link import Network
from .snapshot import restore_meeting, snapshot_meeting, snapshot_size_bytes
from .trunk import TRUNK_FORWARD_SRC_META, TrunkManager, TrunkStats

#: How long migration-stale trunk state and straggler routes stay armed after
#: a cutover.  Covers the inter-SFU hop (~0.4 ms) plus client access latency
#: with two orders of magnitude of slack, while staying far below meeting
#: timescales.
DEFAULT_DRAIN_WINDOW_S = 0.05


def trunk_participant_id(meeting_id: str, address: Address) -> str:
    """Stable participant id of a peer box's trunk endpoint in one meeting
    (SRMCA keys a subscription per session, not per peer)."""
    return f"trunk:{meeting_id}:{address}"


class ClusterSfu(ScallopSfu):
    """A Scallop SFU participating in a federation.

    Everything on the packet path is inherited; the overrides only reroute
    at ingress: straggler-routed sources are forwarded to the flow's new
    home, trunk forwards from peers are decapsulated, and trunk traffic is
    counted into :class:`~repro.cluster.trunk.TrunkStats` (exported on the
    pipeline as ``trunk_stats`` so the telemetry bus lifts it with the other
    engine namespaces).
    """

    def __init__(self, address: Address, simulator: Simulator, network: Network, **kwargs) -> None:
        super().__init__(address, simulator, network, **kwargs)
        self.trunk_stats = TrunkStats()
        #: duck-typed probe point for TelemetryBus.add_engine
        self.pipeline.trunk_stats = self.trunk_stats
        self.trunks = TrunkManager(self)
        self._peer_addresses: Set[Address] = set()
        #: migrated-away client address -> its new home box (drain window)
        self._straggler_routes: Dict[Address, Address] = {}

    def set_peers(self, addresses: Sequence[Address]) -> None:
        self._peer_addresses = {a for a in addresses if a != self.address}

    def state(self) -> BoxState:
        """The box's state with its trunk subscriptions: who sends through
        each and who receives from it."""
        trunks = self.trunks.subscriptions.items()
        return super().state() | box_state(
            {"trunk": {key: (frozenset(t.senders), frozenset(t.receivers)) for key, t in trunks}}
        )

    # ------------------------------------------------------------------ ingress rerouting

    def _route_ingress(self, datagram: Datagram) -> Optional[Datagram]:
        route = self._straggler_routes.get(datagram.src)
        if route is not None and datagram.dst == self.address:
            # in-flight packet of a migrated-away client: forward to its new
            # home, original source tucked into meta so the peer restores it
            # before pipeline ingress (exactly-once: this box's own state for
            # the flow is already gone, so nothing is processed locally)
            meta = dict(datagram.meta)
            meta[TRUNK_FORWARD_SRC_META] = datagram.src
            forwarded = replace(datagram, src=self.address, dst=route, meta=meta)
            self.trunk_stats.stragglers_forwarded += 1
            self.stats.packets_out += 1
            self.stats.bytes_out += forwarded.size
            self.simulator.schedule(
                SWITCH_FORWARDING_DELAY_S, lambda d=forwarded: self.network.send(d)
            )
            return None
        if datagram.src in self._peer_addresses:
            self.trunk_stats.packets_in += 1
            self.trunk_stats.bytes_in += datagram.size
            forwarded_src = datagram.meta.get(TRUNK_FORWARD_SRC_META)
            if forwarded_src is not None:
                meta = {k: v for k, v in datagram.meta.items() if k != TRUNK_FORWARD_SRC_META}
                return replace(datagram, src=forwarded_src, meta=meta)
        return datagram

    def handle_datagram(self, datagram: Datagram) -> None:
        routed = self._route_ingress(datagram)
        if routed is not None:
            super().handle_datagram(routed)

    def handle_datagram_batch(self, datagrams: Sequence[Datagram]) -> None:
        routed = []
        for datagram in datagrams:
            out = self._route_ingress(datagram)
            if out is not None:
                routed.append(out)
        if routed:
            super().handle_datagram_batch(routed)

    # ------------------------------------------------------------------ straggler routes

    def add_straggler_route(self, client: Address, new_home: Address, expire_s: float) -> None:
        self._straggler_routes[client] = new_home
        self.simulator.schedule(expire_s, lambda: self._expire_straggler_route(client, new_home))

    def _expire_straggler_route(self, client: Address, new_home: Address) -> None:
        if self._straggler_routes.get(client) == new_home:
            del self._straggler_routes[client]

    def flush_straggler_routes(self) -> None:
        self._straggler_routes.clear()


class SfuCluster:
    """Coordinator placing meetings across the federation's boxes.

    The coordinator is control-plane-only: it never sees a packet.  It signs
    clients into their home box, keeps every co-hosted meeting's trunks in
    sync after each membership change (each box's controller configures the
    meeting with its trunk endpoints, which the coordinator keeps current),
    and drives cross-SFU migration.
    """

    def __init__(
        self,
        simulator: Simulator,
        network: Network,
        n_sfus: int = 2,
        drain_window_s: float = DEFAULT_DRAIN_WINDOW_S,
        **sfu_kwargs,
    ) -> None:
        if n_sfus < 1:
            raise ValueError("a cluster needs at least one SFU")
        self.simulator = simulator
        self.network = network
        self.drain_window_s = drain_window_s
        self.members: List[ClusterSfu] = [
            ClusterSfu(Address(f"10.0.0.{1 + index}", 5000), simulator, network, **sfu_kwargs)
            for index in range(n_sfus)
        ]
        addresses = [member.address for member in self.members]
        for member in self.members:
            member.set_peers(addresses)
        self._home: Dict[str, int] = {}
        self._clients: Dict[str, object] = {}

    # ------------------------------------------------------------------ lifecycle

    @property
    def address(self) -> Address:
        """The cluster's front address (member 0 — where unplaced joins land)."""
        return self.members[0].address

    def start(self) -> None:
        for member in self.members:
            member.start()

    def stop(self) -> None:
        for member in self.members:
            member.stop()

    def close(self) -> None:
        for member in self.members:
            member.close()

    # ------------------------------------------------------------------ membership

    def join(self, client, member: Optional[int] = None) -> None:
        """Sign a client into its meeting on the given (or default) box."""
        meeting_id = client.config.meeting_id
        index = member if member is not None else self._default_member(meeting_id)
        if not 0 <= index < len(self.members):
            raise ValueError(f"member {index} is not in this {len(self.members)}-SFU cluster")
        self._update_trunk_endpoints(meeting_id, index, set(self._hosting_members(meeting_id)) | {index})
        self.members[index].join(client)
        self._home[client.config.participant_id] = index
        self._clients[client.config.participant_id] = client
        self._sync_meeting(meeting_id, configured=index)

    def leave(self, client) -> None:
        participant_id = client.config.participant_id
        index = self._home.pop(participant_id, None)
        self._clients.pop(participant_id, None)
        if index is None:
            return
        self.members[index].leave(client)
        self._sync_meeting(client.config.meeting_id, configured=index)

    def home_of(self, participant_id: str) -> Optional[int]:
        return self._home.get(participant_id)

    def _default_member(self, meeting_id: str) -> int:
        for participant_id, index in self._home.items():
            client = self._clients.get(participant_id)
            if client is not None and client.config.meeting_id == meeting_id:
                return index
        return 0

    # ------------------------------------------------------------------ migration

    def migrate_meeting(self, meeting_id: str, to_member: int) -> bool:
        """Consolidate a meeting onto one box; returns False when already home.

        Per source box, at one simulated instant (a batch boundary — no
        packet event interleaves): image the meeting
        (:func:`~repro.cluster.snapshot.snapshot_meeting` — versioned flow
        snapshot with packed rewriter register images, decode-target
        hysteresis, learned SVC structures), move the clients (leave tears
        the source's state down, join re-homes signaling to the
        destination), adopt the snapshot on the destination, and arm
        straggler routes.  Stale trunk state then lingers for the drain
        window so trunk-era in-flight replicas still reach the pre-cutover
        population — order per flow is preserved because the extra inter-SFU
        hop is orders of magnitude shorter than media inter-packet gaps.
        """
        if not 0 <= to_member < len(self.members):
            raise ValueError(
                f"migration destination {to_member} is not in this "
                f"{len(self.members)}-SFU cluster"
            )
        hosting = self._hosting_members(meeting_id)
        if not hosting:
            raise ValueError(f"unknown meeting: {meeting_id}")
        if set(hosting) == {to_member}:
            return False  # already home
        destination = self.members[to_member]
        for member in self.members:
            # the meeting ends up on one box: no trunks while the clients move
            member.controller.trunk_endpoints.pop(meeting_id, None)
        for index in sorted(set(hosting) - {to_member}):
            source = self.members[index]
            snapshot = snapshot_meeting(source, meeting_id)
            shipped = snapshot_size_bytes(snapshot)
            source.trunk_stats.migrations_out += 1
            source.trunk_stats.snapshot_bytes += shipped
            clients = [
                self._clients[pid] for pid in snapshot.participant_ids if pid in self._clients
            ]
            for client in clients:
                source.leave(client)
            for client in clients:
                destination.join(client)
                self._home[client.config.participant_id] = to_member
            restore_meeting(snapshot, destination)
            destination.trunk_stats.migrations_in += 1
            destination.trunk_stats.snapshot_bytes += shipped
            for client in clients:
                source.add_straggler_route(client.address, destination.address, self.drain_window_s)
        self._sync_meeting(meeting_id, linger_s=self.drain_window_s)
        return True

    # ------------------------------------------------------------------ trunk sync

    def _hosting_members(self, meeting_id: str) -> Dict[int, list]:
        hosting: Dict[int, list] = {}
        for index, member in enumerate(self.members):
            meeting = member.controller.meetings.get(meeting_id)
            if meeting is not None and meeting.participants:
                hosting[index] = list(meeting.participants.values())
        return hosting

    def _update_trunk_endpoints(self, meeting_id: str, index: int, hosting: Iterable[int]) -> None:
        """Give box ``index`` its trunk endpoints in one meeting toward the
        other hosting boxes.  The endpoint objects are kept while the set of
        peers is unchanged, so the box's configure sees an unchanged
        population."""
        trunk_endpoints = self.members[index].controller.trunk_endpoints
        peers = [self.members[peer].address for peer in sorted(hosting) if peer != index]
        current = trunk_endpoints.get(meeting_id)
        if current is not None and [endpoint.address for endpoint in current] == peers:
            return
        trunk_endpoints[meeting_id] = [
            ParticipantEndpoint(
                participant_id=trunk_participant_id(meeting_id, address),
                address=address,
                egress_port=0,
                trunk=True,
            )
            for address in peers
        ]

    def _sync_meeting(self, meeting_id: str, configured: Optional[int] = None, linger_s: float = 0.0) -> None:
        """Re-assert the federated view of one meeting on every box.

        An op writes only its change, and a box whose view did not change
        writes nothing: each hosting box keeps its trunk endpoints while its
        peers are unchanged and configures the meeting once — except box
        ``configured``, whose controller already did while handling the join
        or leave — which returns without a write when its population, design
        and XID stamps are unchanged
        (:meth:`~repro.core.switch_agent.SwitchAgent.configure_meeting`); its
        trunk subscriptions are then patched for the senders and receivers
        that changed (:meth:`~repro.cluster.trunk.TrunkManager.sync_meeting`).
        A box no longer hosting removed the meeting when its last local
        participant left (the controller configures a closed meeting empty);
        it only sheds its trunk endpoints, remote sender registrations and
        subscriptions here.
        """
        hosting = self._hosting_members(meeting_id)
        for index, member in enumerate(self.members):
            if index in hosting:
                self._update_trunk_endpoints(meeting_id, index, hosting)
                if index != configured:
                    member.controller.reconfigure_meeting(meeting_id)
                installed = member.agent.replication.meetings[meeting_id]
                local_receivers = [
                    endpoint for endpoint in installed.participants.values() if not endpoint.trunk
                ]
                remote_senders = {
                    self.members[peer].address: [record.endpoint for record in hosting[peer]]
                    for peer in sorted(hosting)
                    if peer != index
                }
                member.trunks.sync_meeting(
                    meeting_id, remote_senders, local_receivers, linger_s=linger_s
                )
            else:
                member.controller.trunk_endpoints.pop(meeting_id, None)
                member.trunks.teardown_meeting(meeting_id, linger_s=linger_s)

    # ------------------------------------------------------------------ reconciliation

    def reconcile(self) -> List[str]:
        """Audit every box (:func:`audit_box`) against the surviving
        cross-SFU population, once the drain windows are flushed: per
        meeting a box hosts, its remote population is the clients homed on
        each other hosting box, one trunk subscription per box."""
        for member in self.members:
            member.trunks.flush_lingering()
            member.flush_straggler_routes()
        homes: Dict[str, Dict[int, list]] = {}
        for pid, index in self._home.items():
            client = self._clients[pid]
            homes.setdefault(client.config.meeting_id, {}).setdefault(index, []).append(client)
        problems: List[str] = []
        for index, member in enumerate(self.members):
            remote = {
                (meeting_id, self.members[peer].address): clients
                for meeting_id, by_member in homes.items()
                if index in by_member
                for peer, clients in by_member.items()
                if peer != index
            }
            local = [client for by_member in homes.values() for client in by_member.get(index, ())]
            tag = f"member {index} ({member.address})"
            for problem in audit_box(member, local, remote, member._peer_addresses):
                problems.append(f"{tag}: {problem}")
        return problems

    # ------------------------------------------------------------------ reporting

    def total_participants(self) -> int:
        return len(self._home)


def media_ssrcs(clients) -> Set[int]:
    ssrcs = {client.audio_ssrc for client in clients if client.config.send_audio}
    return ssrcs | {client.video_ssrc for client in clients if client.config.send_video}


def audit_box(
    box: ScallopSfu,
    local: Sequence,
    remote: Dict[Tuple[str, Address], Sequence],
    peers: Collection[Address],
) -> List[str]:
    """Check one Scallop box's :meth:`~repro.core.scallop.ScallopSfu.state`
    against the population it should hold; returns the discrepancies.

    ``local`` are the clients homed on the box, ``remote`` maps each trunk
    subscription it should hold, ``(meeting, peer box address)``, to the
    clients homed on that peer, and ``peers`` are the other boxes'
    addresses.  Checked: table jurisdictions (streams from local clients or
    subscribed peers, adaptation egress-local, feedback toward local
    receivers or peers, placements of local or trunked flows); resources in
    use against their account; the controller's and agent's populations and
    each trunk's senders; the indexes against what they index; and that a
    box hosting nobody is empty.  (The shard load tracker is telemetry, not
    state: a departed client's in-flight packets re-mint decaying rows.)
    """
    state = box.state()
    view = state_sections(state)
    remote_clients = [client for clients in remote.values() for client in clients]
    local_ssrcs, remote_ssrcs = media_ssrcs(local), media_ssrcs(remote_clients)
    ssrcs = local_ssrcs | remote_ssrcs
    addresses = {client.address for client in local}
    origins = {origin for _meeting, origin in remote}
    receivers = addresses | set(peers)
    jurisdiction = {
        "stream": lambda src, ssrc: (
            src in addresses and ssrc in local_ssrcs or src in origins and ssrc in remote_ssrcs
        ),
        "adaptation": lambda ssrc, receiver: receiver in addresses and ssrc in ssrcs,
        "feedback": lambda receiver, ssrc: receiver in receivers and ssrc in ssrcs,
        "placement": lambda src, _ssrc: src in addresses or src in origins,
    }
    problems: List[str] = []
    for name, in_jurisdiction in jurisdiction.items():
        problems += [f"stale {name} entry {key}" for key in view[name] if not in_jurisdiction(*key)]
    for name, (used, held) in view["resource"].items():
        if used != held:
            problems.append(f"{used} {name} in use, {held} accounted for")
    tracked = box.controller.total_participants()
    if tracked != len(local):
        problems.append(f"controller tracks {tracked} participants, {len(local)} are homed here")

    registry = view["registry"]
    population = [client.config.participant_id for client in local + remote_clients]
    population += [trunk_participant_id(meeting_id, origin) for meeting_id, origin in remote]
    feedback = dict.fromkeys(view["feedback"], True)
    placements = dict.fromkeys(view["placement"], True)
    derived = {
        "registry": (dict.fromkeys(registry, True), dict.fromkeys(population, True)),
        "trunk": (
            {key: len(senders) for key, (senders, _receivers) in view["trunk"].items()},
            {key: len(clients) for key, clients in remote.items()},
        ),
        "feedback_by_receiver": (view["feedback_by_receiver"], feedback),
        "feedback_by_ssrc": (view["feedback_by_ssrc"], feedback),
        "placement_by_src": (view["placement_by_src"], placements),
        "by_address": (
            view["by_address"],
            {r.address: pid for pid, r in registry.items() if not (r.remote or r.trunk)},
        ),
        "by_ssrc": (
            view["by_ssrc"],
            {ssrc: pid for pid, r in registry.items() for _kind, ssrc in r.media},
        ),
    }
    for name, (held, expected) in derived.items():
        diff = mapping_diff(held, expected)
        if diff is not None:
            problems.append(f"disagrees with its source: {name}{diff}")
    if not local and not remote:
        diff = state_diff(state, frozenset())
        if diff is not None:
            problems.append(f"idle box is not empty: {diff}")
    return problems
