"""Packet Replication Engine (PRE) model.

Mirrors the three-level replication hierarchy of the Tofino PRE described in
§6.3 and Figure 13 of the paper:

* A **multicast tree** (identified by an MGID) contains **L1 nodes**.
* Each L1 node has a node id (unique across the PRE), a replication id (RID,
  unique within a tree), an optional **L1 exclusion id (XID)** with a pruning
  flag, and points to a set of **egress ports** (the L2 level).
* Each L2 port membership can carry an **L2 XID**.

When the ingress pipeline submits a packet it supplies the packet's MGID, an
optional L1 XID and an (RID, L2 XID) pair.  The PRE then:

* copies the packet to every L1 node of the tree **except** nodes whose
  pruning flag is set and whose XID equals the packet's L1 XID (this is how
  Scallop keeps meeting M1's packets away from meeting M2's participants when
  two meetings share a tree), and
* for the node whose RID equals the packet's RID, suppresses the copy to the
  egress port matching the packet's L2 XID (this is how a sender is prevented
  from receiving its own packet).

Resource limits (64K trees, 2^24 L1 nodes, 64K RIDs/tree) are enforced through
a :class:`~repro.dataplane.resources.ResourceAccountant`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .resources import DEFAULT_CAPACITIES, ResourceAccountant, ResourceExhausted


@dataclass(frozen=True)
class L2Port:
    """An egress port membership of an L1 node, with optional L2 XID."""

    port: int
    l2_xid: Optional[int] = None


@dataclass
class L1Node:
    """A level-1 node of a multicast tree."""

    node_id: int
    rid: int
    ports: Tuple[L2Port, ...]
    l1_xid: Optional[int] = None
    prune_enabled: bool = False


@dataclass(frozen=True)
class Replica:
    """One packet copy produced by the PRE."""

    rid: int
    egress_port: int


@dataclass
class MulticastTree:
    """A multicast group: an MGID plus its set of L1 nodes."""

    mgid: int
    nodes: Dict[int, L1Node] = field(default_factory=dict)
    #: RIDs held by the tree's nodes (unique within a tree)
    used_rids: Set[int] = field(default_factory=set)

    def rids(self) -> Set[int]:
        return set(self.used_rids)


class PacketReplicationEngine:
    """The PRE: tree management (control plane) + replication (data plane)."""

    def __init__(self, accountant: Optional[ResourceAccountant] = None) -> None:
        self.accountant = accountant or ResourceAccountant(DEFAULT_CAPACITIES)
        self._trees: Dict[int, MulticastTree] = {}
        self._next_node_id = 1
        self._next_mgid = 1
        self.replications_performed = 0
        self.copies_produced = 0
        #: Monotonic generation counter bumped on every tree/node mutation so
        #: forwarding caches built on replication results can detect staleness.
        self.generation = 0
        self._generation_deferred = False
        self._pending_bump = False

    def _bump_generation(self) -> None:
        if self._generation_deferred:
            self._pending_bump = True
        else:
            self.generation += 1

    def defer_generation_bumps(self) -> None:
        """Coalesce generation bumps during control-plane write batching."""
        self._generation_deferred = True

    def commit_generation_bumps(self) -> None:
        self._generation_deferred = False
        if self._pending_bump:
            self._pending_bump = False
            self.generation += 1

    # ------------------------------------------------------------------ control API

    def create_tree(self) -> int:
        """Allocate a new multicast tree and return its MGID."""
        self.accountant.allocate_tree(l1_nodes=0)
        mgid = self._next_mgid
        self._next_mgid += 1
        self._trees[mgid] = MulticastTree(mgid=mgid)
        self._bump_generation()
        return mgid

    def destroy_tree(self, mgid: int) -> None:
        """Deallocate a tree and all its L1 nodes."""
        tree = self._trees.pop(mgid, None)
        if tree is None:
            return
        self._bump_generation()
        self.accountant.release_tree(l1_nodes=len(tree.nodes))

    def add_node(
        self,
        mgid: int,
        rid: int,
        ports: Iterable[L2Port],
        l1_xid: Optional[int] = None,
        prune_enabled: bool = False,
    ) -> int:
        """Add an L1 node to a tree; returns the PRE-wide node id."""
        tree = self._require_tree(mgid)
        port_tuple = tuple(ports)
        if not port_tuple:
            raise ValueError("an L1 node must reference at least one egress port")
        if rid in tree.used_rids:
            # multiple nodes may share an RID only if they serve distinct ports;
            # Scallop never does this, so reject to catch configuration bugs.
            raise ValueError(f"RID {rid} already present in tree {mgid}")
        if rid >= self.accountant.capacities.max_rids_per_tree:
            raise ResourceExhausted("RID space exhausted for tree")
        if self.accountant.l1_nodes_allocated + 1 > self.accountant.capacities.max_l1_nodes:
            raise ResourceExhausted("L1 nodes exhausted")
        node_id = self._next_node_id
        self._next_node_id += 1
        tree.nodes[node_id] = L1Node(
            node_id=node_id,
            rid=rid,
            ports=port_tuple,
            l1_xid=l1_xid,
            prune_enabled=prune_enabled,
        )
        tree.used_rids.add(rid)
        self.accountant.l1_nodes_allocated += 1
        self._bump_generation()
        return node_id

    def free_rid(self, mgid: int) -> int:
        """The lowest RID no node of tree ``mgid`` holds.

        RIDs only need to be unique within their tree, so each tree reuses
        the RIDs its departed nodes freed; :meth:`add_node` raises
        :class:`ResourceExhausted` once a tree holds every RID below
        ``max_rids_per_tree``.
        """
        used = self._require_tree(mgid).used_rids
        rid = 0
        while rid in used:
            rid += 1
        return rid

    def remove_node(self, mgid: int, node_id: int) -> None:
        tree = self._require_tree(mgid)
        node = tree.nodes.pop(node_id, None)
        if node is not None:
            tree.used_rids.discard(node.rid)
            self._bump_generation()
            self.accountant.l1_nodes_allocated = max(0, self.accountant.l1_nodes_allocated - 1)

    def tree(self, mgid: int) -> MulticastTree:
        return self._require_tree(mgid)

    @property
    def num_trees(self) -> int:
        return len(self._trees)

    def total_l1_nodes(self) -> int:
        return sum(len(tree.nodes) for tree in self._trees.values())

    # ------------------------------------------------------------------ data-plane API

    def replicate(
        self,
        mgid: int,
        l1_xid: Optional[int] = None,
        rid: Optional[int] = None,
        l2_xid: Optional[int] = None,
    ) -> List[Replica]:
        """Replicate a packet through a tree, applying L1 and L2 pruning.

        ``l1_xid`` prunes whole L1 nodes (other meetings sharing the tree);
        the (``rid``, ``l2_xid``) pair prunes the sender's own copy.
        """
        tree = self._require_tree(mgid)
        replicas: List[Replica] = []
        for node in tree.nodes.values():
            if node.prune_enabled and l1_xid is not None and node.l1_xid == l1_xid:
                continue
            for port in node.ports:
                if (
                    rid is not None
                    and l2_xid is not None
                    and node.rid == rid
                    and port.l2_xid == l2_xid
                ):
                    continue
                replicas.append(Replica(rid=node.rid, egress_port=port.port))
        self.replications_performed += 1
        self.copies_produced += len(replicas)
        return replicas

    def note_replication(self, copies: int) -> None:
        """Data-plane accounting for a replication served from a datapath's
        memoized resolution: advances the same counters :meth:`replicate`
        would have, so cache-hit replay and the uncached path tally
        identically.  This is PRE data-plane API — the sanctioned way for a
        datapath to account a replication without writing PRE attributes
        directly (which the share-nothing rule and the shard-isolation
        sanitizer both reject)."""
        self.replications_performed += 1
        self.copies_produced += copies

    def note_replications(self, count: int, copies: int) -> None:
        """Bulk :meth:`note_replication`: fold ``count`` memoized
        replications that produced ``copies`` total copies in one call.  The
        batch path accumulates cache-hit replays locally and folds them at
        the batch boundary, so the counters advance exactly as ``count``
        individual calls would have."""
        self.replications_performed += count
        self.copies_produced += copies

    # ------------------------------------------------------------------ helpers

    def _require_tree(self, mgid: int) -> MulticastTree:
        tree = self._trees.get(mgid)
        if tree is None:
            raise KeyError(f"unknown multicast tree: {mgid}")
        return tree
