"""Unit tests for the PRE, match-action tables, registers, and resource model."""

import pytest

from repro.dataplane.pre import L2Port, PacketReplicationEngine
from repro.dataplane.resources import (
    DEFAULT_CAPACITIES,
    ResourceAccountant,
    ResourceExhausted,
    TofinoCapacities,
    table3_rows,
)
from repro.dataplane.tables import ExactMatchTable, IndexAllocator, RegisterArray, TableFull


class TestExactMatchTable:
    def test_install_lookup_remove(self):
        table = ExactMatchTable("t", max_entries=4)
        table.install("k", 42)
        assert table.lookup("k") == 42
        assert "k" in table
        table.remove("k")
        assert table.lookup("k") is None

    def test_capacity_enforced(self):
        table = ExactMatchTable("t", max_entries=2)
        table.install(1, "a")
        table.install(2, "b")
        with pytest.raises(TableFull):
            table.install(3, "c")
        # overwriting an existing key is always allowed
        table.install(1, "a2")
        assert table.lookup(1) == "a2"

    def test_hit_counters_and_occupancy(self):
        table = ExactMatchTable("t", max_entries=10)
        table.install(1, "a")
        table.lookup(1)
        table.lookup(2)
        assert table.lookups == 2 and table.hits == 1
        assert table.occupancy == pytest.approx(0.1)


class TestRegisterArray:
    def test_read_write_clear(self):
        registers = RegisterArray("r", size=4, initial=0)
        registers.write(2, 99)
        assert registers.read(2) == 99
        registers.clear(2)
        assert registers.read(2) is None

    def test_bounds_checked(self):
        registers = RegisterArray("r", size=4)
        with pytest.raises(IndexError):
            registers.read(4)
        with pytest.raises(IndexError):
            registers.write(-1, 0)

    def test_used_cells(self):
        registers = RegisterArray("r", size=4)
        registers.write(0, "x")
        registers.write(3, "y")
        assert registers.used_cells() == 2


class TestIndexAllocator:
    def test_unique_collision_free_indices(self):
        allocator = IndexAllocator(8)
        indices = {allocator.allocate(f"stream-{i}") for i in range(8)}
        assert len(indices) == 8
        with pytest.raises(TableFull):
            allocator.allocate("one-too-many")

    def test_release_recycles(self):
        allocator = IndexAllocator(1)
        index = allocator.allocate("a")
        allocator.release("a")
        assert allocator.allocate("b") == index

    def test_same_key_same_index(self):
        allocator = IndexAllocator(4)
        assert allocator.allocate("a") == allocator.allocate("a")
        assert allocator.in_use == 1


class TestPacketReplicationEngine:
    def build_meeting_tree(self, pre, participants):
        """One tree, one L1 node per participant (the NRA layout)."""
        mgid = pre.create_tree()
        rids = {}
        for index, name in enumerate(participants):
            rid = index + 1
            pre.add_node(
                mgid,
                rid=rid,
                ports=[L2Port(port=100 + index, l2_xid=100 + index)],
                l1_xid=1,
                prune_enabled=True,
            )
            rids[name] = rid
        return mgid, rids

    def test_replicates_to_all_but_sender(self):
        pre = PacketReplicationEngine()
        mgid, rids = self.build_meeting_tree(pre, ["a", "b", "c"])
        # packet from "a": suppress a's own copy via (RID, L2 XID)
        replicas = pre.replicate(mgid, l1_xid=None, rid=rids["a"], l2_xid=100)
        ports = sorted(r.egress_port for r in replicas)
        assert ports == [101, 102]

    def test_l1_xid_prunes_other_meeting(self):
        pre = PacketReplicationEngine()
        mgid = pre.create_tree()
        # meeting 1 participants get XID 1, meeting 2 participants XID 2
        pre.add_node(mgid, rid=1, ports=[L2Port(1, 1)], l1_xid=1, prune_enabled=True)
        pre.add_node(mgid, rid=2, ports=[L2Port(2, 2)], l1_xid=1, prune_enabled=True)
        pre.add_node(mgid, rid=3, ports=[L2Port(3, 3)], l1_xid=2, prune_enabled=True)
        pre.add_node(mgid, rid=4, ports=[L2Port(4, 4)], l1_xid=2, prune_enabled=True)
        # a packet of meeting 1 carries L1 XID 2 to exclude meeting 2's nodes
        replicas = pre.replicate(mgid, l1_xid=2, rid=1, l2_xid=1)
        assert sorted(r.egress_port for r in replicas) == [2]

    def test_duplicate_rid_rejected(self):
        pre = PacketReplicationEngine()
        mgid = pre.create_tree()
        pre.add_node(mgid, rid=1, ports=[L2Port(1)])
        with pytest.raises(ValueError):
            pre.add_node(mgid, rid=1, ports=[L2Port(2)])

    def test_node_requires_ports(self):
        pre = PacketReplicationEngine()
        mgid = pre.create_tree()
        with pytest.raises(ValueError):
            pre.add_node(mgid, rid=1, ports=[])

    def test_unknown_tree_raises(self):
        pre = PacketReplicationEngine()
        with pytest.raises(KeyError):
            pre.replicate(123)

    def test_destroy_tree_releases_resources(self):
        pre = PacketReplicationEngine()
        mgid, _ = self.build_meeting_tree(pre, ["a", "b"])
        assert pre.num_trees == 1
        pre.destroy_tree(mgid)
        assert pre.num_trees == 0

    def test_destroying_a_tree_twice_releases_once(self):
        # the ledger raises on a release below zero, so the PRE's teardown
        # must stay idempotent: the second destroy finds no tree and charges
        # nothing back
        pre = PacketReplicationEngine()
        mgid, _ = self.build_meeting_tree(pre, ["a", "b", "c"])
        assert (pre.accountant.trees_allocated, pre.accountant.l1_nodes_allocated) == (1, 3)
        pre.destroy_tree(mgid)
        pre.destroy_tree(mgid)
        assert (pre.accountant.trees_allocated, pre.accountant.l1_nodes_allocated) == (0, 0)

    def test_tree_capacity_enforced(self):
        tiny = TofinoCapacities(max_multicast_trees=2)
        pre = PacketReplicationEngine(ResourceAccountant(tiny))
        pre.create_tree()
        pre.create_tree()
        with pytest.raises(ResourceExhausted):
            pre.create_tree()

    def test_rid_space_enforced(self):
        tiny = TofinoCapacities(max_rids_per_tree=4)
        pre = PacketReplicationEngine(ResourceAccountant(tiny))
        mgid = pre.create_tree()
        with pytest.raises(ResourceExhausted):
            pre.add_node(mgid, rid=4, ports=[L2Port(1)])

    def test_copy_counters(self):
        pre = PacketReplicationEngine()
        mgid, rids = self.build_meeting_tree(pre, ["a", "b", "c", "d"])
        pre.replicate(mgid, rid=rids["a"], l2_xid=100)
        assert pre.replications_performed == 1
        assert pre.copies_produced == 3


class TestResourceAccounting:
    def test_stream_state_budget(self):
        accountant = ResourceAccountant(TofinoCapacities(stream_tracker_cells=2))
        accountant.allocate_stream_state()
        accountant.allocate_stream_state()
        with pytest.raises(ResourceExhausted):
            accountant.allocate_stream_state()
        accountant.release_stream_state()
        accountant.allocate_stream_state()

    @pytest.mark.parametrize(
        "allocate, release",
        [
            (lambda a: a.allocate_tree(l1_nodes=3), lambda a: a.release_tree(l1_nodes=3)),
            (lambda a: a.allocate_stream_state(6), lambda a: a.release_stream_state(6)),
        ],
        ids=["tree", "stream_state"],
    )
    def test_double_release_raises_and_changes_nothing(self, allocate, release):
        accountant = ResourceAccountant()
        allocate(accountant)
        release(accountant)
        before = dict(vars(accountant))
        with pytest.raises(ValueError, match="exceeds the 0 in use"):
            release(accountant)
        assert vars(accountant) == before

    def test_tree_release_checks_l1_nodes_before_touching_counters(self):
        accountant = ResourceAccountant()
        accountant.allocate_tree(l1_nodes=2)
        with pytest.raises(ValueError, match="L1 nodes"):
            accountant.release_tree(l1_nodes=5)
        assert (accountant.trees_allocated, accountant.l1_nodes_allocated) == (1, 2)

    def test_utilization_report(self):
        accountant = ResourceAccountant()
        accountant.allocate_tree(l1_nodes=10)
        utilization = accountant.utilization()
        assert 0 < utilization["multicast_trees"] < 1
        assert 0 < utilization["l1_nodes"] < 1
        assert set(utilization) == {"multicast_trees", "l1_nodes", "stream_tracker_cells"}

    def test_table3_rows_structure(self):
        rows = table3_rows(peak_campus_egress_bps=1.2e9, max_egress_bps=197e9)
        names = [row.resource for row in rows]
        assert "Parsing depth" in names and "Egress Tput." in names and "SRAM" in names
        egress = next(row for row in rows if row.resource == "Egress Tput.")
        assert egress.scaling == "quadratic"
        assert "1.2" in egress.peak_campus_load
        fixed_rows = [row for row in rows if row.scaling == "fixed"]
        assert all(row.max_utilization == "=" for row in fixed_rows)

    def test_default_capacities_match_paper(self):
        capacities = DEFAULT_CAPACITIES
        assert capacities.max_multicast_trees == 65_536
        assert capacities.max_l1_nodes == 2**24
        assert capacities.stream_tracker_cells == 65_536
        assert capacities.switch_bandwidth_bps == pytest.approx(12.8e12)
