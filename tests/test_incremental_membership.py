"""A join or leave writes only what it changes.

Membership changes reach the replication manager, the switch agent and the
trunk manager through one incremental path each
(``ReplicationManager.sync_meeting``, ``SwitchAgent.configure_meeting``,
``TrunkManager.sync_meeting``); a join and a leave are each one configure,
and a configure that changes nothing writes nothing.  Seven groups of tests
pin it:

* **write counts** — a join into a running meeting adds one L1 node per tree
  and removes none, a leave removes one and adds none, wherever the meeting
  sits (behind another meeting's nodes, in a later open group, in a freed
  XID slot) and in an adapted (RA-R) meeting too; a join on the far side of
  a cascaded meeting keeps both trunk trees; a controller leave configures
  and syncs once, and on a cluster each join or leave configures every
  hosting box once but syncs only the acting one, with no design flip;
* **XID slots** — a meeting takes the lowest free L1 XID slot of its tree
  group and keeps it across joins and leaves, and its stream entries stamp
  the partner meeting's slot; a hypothesis property checks after every sync,
  on one box and on a two-box cluster, that the XIDs of a group are pairwise
  distinct and every stream entry of the synced meeting is the one
  ``_entry_for_sender`` derives, and after every op that each meeting sits
  in the design ``SwitchAgent._design_for`` names;
* **RID allocation** — RIDs are allocated per tree (lowest free), so churn
  next to a long-lived meeting never wraps into a RID the tree still holds;
* **the fresh-install oracle** — random join / leave / migrate sequences on
  a two-box cluster: every meeting a sync touched equals a fresh install of
  its population at its tree group and XID slot (nodes per tree, replica
  targets, stream entries, agent registry, trunk subscriptions), and the PRE
  sends every installed sender's packet to the same in-meeting receivers as
  a run that re-lays every touched meeting and trunk (the incremental
  predicates patched to ``False``);
* **agent registry** — a sender's learned SVC structure survives another
  participant's join;
* **idempotence** — after every join, leave, migration or adaptation on a
  two-box cluster, re-configuring every meeting (and once more with the
  no-op return patched out) writes nothing;
* **delta costs** — a join writes exactly the joiner's feedback rows, and a
  leave scans no table and costs the same beside 1 or 51 other meetings.
"""

import dataclasses
from collections import Counter
from contextlib import ExitStack, contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.trunk import TrunkManager
from repro.core.capacity import ReplicationDesign
from repro.core.controller import ScallopController
from repro.core.replication import ParticipantEndpoint, ReplicationManager
from repro.core.switch_agent import SwitchAgent
from repro.dataplane.pipeline import ForwardingMode, ReplicaTarget, ScallopPipeline, state_diff
from repro.dataplane.pre import L2Port
from repro.dataplane.tables import ExactMatchTable
from repro.dataplane.resources import DEFAULT_CAPACITIES
from repro.netsim.datagram import Address, Datagram
from repro.rtp.av1 import DependencyDescriptor, TemplateStructure, dependency_descriptor_element
from repro.rtp.extensions import encode_extensions
from repro.rtp.packet import RtpPacket
from repro.rtp.rtcp import Remb
from repro.scenario import BackendSpec, MeetingSpec, Scenario, build_scenario
from repro.signaling.messages import join_message, leave_message
from repro.signaling.sdp import make_offer

SFU = Address("10.0.0.1", 5000)


def endpoint(index, audio=True, video=True):
    return ParticipantEndpoint(
        participant_id=f"p{index}",
        address=Address(f"10.0.1.{index}", 6000 + index),
        egress_port=0,
        audio_ssrc=1000 + index * 10 if audio else None,
        video_ssrc=1001 + index * 10 if video else None,
    )


@contextmanager
def pre_writes(pre):
    """Record the MGID of every PRE tree/node write made inside the block."""
    calls = {"add_node": [], "remove_node": [], "create_tree": [], "destroy_tree": []}
    with ExitStack() as stack:
        for name, log in calls.items():
            original = getattr(pre, name)

            def spy(*args, _original=original, _log=log, **kwargs):
                result = _original(*args, **kwargs)
                _log.append(args[0] if args else result)
                return result

            stack.enter_context(mock.patch.object(pre, name, spy))
        yield calls


def _controller():
    pipeline = ScallopPipeline(SFU)
    agent = SwitchAgent(pipeline)
    return pipeline, agent, ScallopController(SFU, agent)


def _join(controller, index, meeting_id="m"):
    offer = make_offer(f"p{index}", f"10.0.1.{index}", 6000 + index, ssrc_base=index * 100)
    controller.handle_signal(join_message(meeting_id, f"p{index}", offer))


def _adapt(agent, sender, receiver):
    """A low REMB from ``receiver`` about ``sender``'s video installs an
    adaptation entry for that sender on this box."""
    remb = Remb(sender_ssrc=9999, bitrate_bps=700_000, media_ssrcs=(sender.video_ssrc,))
    agent.handle_cpu_packet(Datagram(src=receiver.address, dst=SFU, payload=(remb,)))


def _receivers(pipeline, entry):
    """``(participant id, address, egress port)`` of every replica the PRE
    makes of a packet matching ``entry``, per replication tree."""
    if entry.mode == ForwardingMode.UNICAST:
        return {None: frozenset({(None, entry.unicast_receiver, None)})}
    trees = entry.mgid_by_layer or {None: entry.mgid}
    sent = {}
    for layer, mgid in trees.items():
        replicas = pipeline.pre.replicate(mgid, entry.l1_xid, entry.rid, entry.l2_xid)
        targets = [pipeline.replica_table.peek((mgid, replica.rid)) for replica in replicas]
        sent[layer] = frozenset(
            (target.participant_id, target.address, replica.egress_port)
            for target, replica in zip(targets, replicas)
        )
    return sent


# --------------------------------------------------------------------------- write counts


class TestWriteCounts:
    def test_join_into_an_eight_party_meeting_adds_one_node(self):
        pipeline, agent, controller = _controller()
        for index in range(1, 9):
            _join(controller, index)
        assert agent.meeting_design("m") == ReplicationDesign.NRA
        (tree,) = agent.replication.meetings["m"].trees
        with pre_writes(pipeline.pre) as writes:
            _join(controller, 9)
        assert writes == {"add_node": [tree.mgid], "remove_node": [], "create_tree": [], "destroy_tree": []}
        nodes = list(pipeline.pre.tree(tree.mgid).nodes)
        assert nodes[-1] == tree.node_ids["m:p9"]
        assert pipeline.stream_table.peek((Address("10.0.1.9", 6009), 900)) is not None

    def test_leave_from_a_nine_party_meeting_removes_one_node(self):
        pipeline, agent, controller = _controller()
        for index in range(1, 10):
            _join(controller, index)
        (tree,) = agent.replication.meetings["m"].trees
        node_id = tree.node_ids["m:p4"]
        with pre_writes(pipeline.pre) as writes:
            controller.handle_signal(leave_message("m", "p4"))
        assert writes == {"add_node": [], "remove_node": [tree.mgid], "create_tree": [], "destroy_tree": []}
        assert node_id not in pipeline.pre.tree(tree.mgid).nodes
        assert pipeline.stream_table.peek((Address("10.0.1.4", 6004), 400)) is None

    @pytest.mark.parametrize("design", [ReplicationDesign.NRA, ReplicationDesign.RA_R])
    def test_configure_writes_one_node_per_tree(self, design):
        pipeline = ScallopPipeline(SFU)
        agent = SwitchAgent(pipeline)
        participants = [endpoint(index) for index in range(1, 9)]
        agent.configure_meeting("m", participants)
        if design == ReplicationDesign.RA_R:
            _adapt(agent, participants[0], participants[1])
        assert agent.meeting_design("m") == design
        mgids = sorted(tree.mgid for tree in agent.replication.meetings["m"].trees)
        with pre_writes(pipeline.pre) as joined:
            agent.configure_meeting("m", participants + [endpoint(9)])
        with pre_writes(pipeline.pre) as left:
            agent.configure_meeting("m", participants[:3] + participants[4:] + [endpoint(9)])
        assert agent.meeting_design("m") == design
        assert sorted(joined["add_node"]) == mgids and joined["remove_node"] == []
        assert sorted(left["remove_node"]) == mgids and left["add_node"] == []
        assert joined["create_tree"] == left["create_tree"] == []

    def test_newcomer_beside_a_trunk_endpoint_adds_one_node(self):
        """A local newcomer listed before the trunk endpoint is one node
        write: the trunk node stays where it is."""
        pipeline = ScallopPipeline(SFU)
        agent = SwitchAgent(pipeline)
        trunk = ParticipantEndpoint("trunk:peer", Address("10.0.0.2", 5000), egress_port=0, trunk=True)
        local = [endpoint(index) for index in range(1, 4)]
        agent.configure_meeting("m", local + [trunk])
        (tree,) = agent.replication.meetings["m"].trees
        trunk_node = tree.node_ids["m:trunk:peer"]
        with pre_writes(pipeline.pre) as writes:
            agent.configure_meeting("m", local + [endpoint(4), trunk])
        assert writes["add_node"] == [tree.mgid] and writes["remove_node"] == []
        assert tree.node_ids["m:trunk:peer"] == trunk_node
        assert list(agent.replication.meetings["m"].participants) == ["p1", "p2", "p3", "p4", "trunk:peer"]

    def test_unchanged_population_writes_no_pre_state(self):
        pipeline = ScallopPipeline(SFU)
        agent = SwitchAgent(pipeline)
        participants = [endpoint(index) for index in range(1, 6)]
        agent.configure_meeting("m", participants)
        generation = pipeline.pre.generation
        agent.configure_meeting("m", [endpoint(index) for index in range(1, 6)])
        assert pipeline.pre.generation == generation

    def test_join_into_a_meeting_ahead_of_its_partner_adds_one_node(self):
        """The meeting's nodes are not the tail of the shared tree: the
        partner's nodes sit behind them."""
        pipeline = ScallopPipeline(SFU)
        agent = SwitchAgent(pipeline)
        first = [endpoint(index) for index in range(1, 5)]
        agent.configure_meeting("A", first)
        agent.configure_meeting("B", [endpoint(index) for index in range(5, 9)])
        (tree,) = agent.replication.meetings["A"].trees
        assert agent.replication.meetings["B"].trees == [tree]
        with pre_writes(pipeline.pre) as writes:
            agent.configure_meeting("A", first + [endpoint(9)])
        assert writes == {"add_node": [tree.mgid], "remove_node": [], "create_tree": [], "destroy_tree": []}
        assert agent.replication.meetings["A"].l1_xid == 1

    def test_join_into_a_later_open_group_stays_there(self):
        """An earlier group has a free slot: the meeting keeps its own."""
        pipeline = ScallopPipeline(SFU)
        manager = ReplicationManager(pipeline)
        for meeting_id, base in (("A", 1), ("B", 11), ("C", 21), ("D", 31)):
            manager.sync_meeting(meeting_id, [endpoint(base + offset) for offset in range(3)], ReplicationDesign.NRA)
        group_a, group_c = manager.meetings["A"].tree_group, manager.meetings["C"].tree_group
        assert group_a != group_c and manager.meetings["D"].tree_group == group_c
        manager.remove_meeting("A")
        manager.remove_meeting("D")
        assert manager._open_groups[ReplicationDesign.NRA] == [group_a, group_c]
        (tree,) = manager.meetings["C"].trees
        with pre_writes(pipeline.pre) as writes:
            manager.sync_meeting("C", [endpoint(21 + offset) for offset in range(4)], ReplicationDesign.NRA)
        assert writes == {"add_node": [tree.mgid], "remove_node": [], "create_tree": [], "destroy_tree": []}
        assert manager.meetings["C"].tree_group == group_c

    def test_join_into_a_meeting_in_slot_two_of_a_half_empty_group_keeps_the_slot(self):
        pipeline = ScallopPipeline(SFU)
        manager = ReplicationManager(pipeline)
        manager.sync_meeting("A", [endpoint(index) for index in range(1, 4)], ReplicationDesign.NRA)
        second = [endpoint(index) for index in range(4, 7)]
        manager.sync_meeting("B", second, ReplicationDesign.NRA)
        manager.remove_meeting("A")
        state = manager.meetings["B"]
        (tree,) = state.trees
        assert state.l1_xid == 2
        with pre_writes(pipeline.pre) as writes:
            manager.sync_meeting("B", second + [endpoint(7)], ReplicationDesign.NRA)
        assert writes == {"add_node": [tree.mgid], "remove_node": [], "create_tree": [], "destroy_tree": []}
        assert state.l1_xid == 2
        assert {node.l1_xid for node in pipeline.pre.tree(tree.mgid).nodes.values()} == {2}

    def test_far_side_join_of_a_cascaded_meeting_keeps_the_trunk_trees(self):
        run = build_scenario(
            Scenario(
                name="cascade",
                meetings=(MeetingSpec(participants=6, cascade=(0, 1)),),
                backend=BackendSpec.cluster(n_sfus=2),
                duration_s=10.0,
            )
        )
        box0, box1 = run.sfu.members
        key0, key1 = ("meeting-0", box1.address), ("meeting-0", box0.address)
        trunk0, trunk1 = box0.trunks.subscriptions[key0], box1.trunks.subscriptions[key1]
        nodes_before = len(box0.pipeline.pre.tree(trunk0.mgid).nodes)
        with pre_writes(box0.pipeline.pre) as writes0, pre_writes(box1.pipeline.pre) as writes1:
            client = run.add_participant(0, start=False)
        assert run.sfu.home_of(client.config.participant_id) == 0
        assert box0.trunks.subscriptions[key0] is trunk0
        assert box1.trunks.subscriptions[key1] is trunk1
        # box 0's trunk tree fans box 1's media out to the newcomer: one node
        assert writes0["add_node"].count(trunk0.mgid) == 1
        assert trunk0.mgid not in writes0["remove_node"]
        assert len(box0.pipeline.pre.tree(trunk0.mgid).nodes) == nodes_before + 1
        # box 1 only routes the newcomer's media into its existing trunk tree
        assert trunk1.mgid not in writes1["add_node"] + writes1["remove_node"]
        route = box1.pipeline.stream_table.peek((box0.address, client.video_ssrc))
        assert route is not None and route.mgid == trunk1.mgid
        assert writes0["create_tree"] == writes1["create_tree"] == []
        assert writes0["destroy_tree"] == writes1["destroy_tree"] == []
        rids = sorted(box0.pipeline.pre.tree(trunk0.mgid).rids())
        assert rids == list(range(len(rids)))
        assert run.reconcile() == []
        run.close()

    def test_cluster_join_or_leave_syncs_only_the_acting_box(self):
        """Box 0 holds two or three local participants plus the trunk to
        box 1: it stays NRA through every op.  Each op configures and syncs
        the box that handled the join or leave once; the other box's view
        did not change, so its one configure returns without a sync or a
        write."""
        run = build_scenario(
            Scenario(
                name="cascade",
                meetings=(MeetingSpec(participants=3, cascade=(0, 0, 1)),),
                backend=BackendSpec.cluster(n_sfus=2),
                duration_s=10.0,
            )
        )
        boxes = run.sfu.members
        assert boxes[0].agent.meeting_design("meeting-0") == ReplicationDesign.NRA
        designs = []
        ops = [
            (0, lambda: run.add_participant(0, start=False)),  # cascade index 3
            (0, lambda: run.leave(0, "m0-p0")),
            (0, lambda: run.add_participant(0, start=False)),  # index 4
            (1, lambda: run.add_participant(0, start=False)),  # index 5
            (1, lambda: run.leave(0, "m0-p5")),
            (0, lambda: run.leave(0, "m0-p4")),
        ]
        with counting_membership_calls() as calls:
            for acting, op in ops:
                idle = boxes[1 - acting]
                calls.clear()
                with pre_writes(boxes[0].pipeline.pre) as writes:
                    op()
                assert calls == {
                    ("configure_meeting", boxes[acting].agent): 1,
                    ("configure_meeting", idle.agent): 1,
                    ("sync_meeting", boxes[acting].agent.replication): 1,
                    ("configure wrote", boxes[acting].agent): 1,
                }
                assert writes["create_tree"] == writes["destroy_tree"] == []
                designs.append(boxes[0].agent.meeting_design("meeting-0"))
        assert set(designs) == {ReplicationDesign.NRA}
        assert run.reconcile() == []
        run.close()

    def test_controller_leave_configures_and_syncs_once(self):
        pipeline, agent, controller = _controller()
        for index in range(1, 5):
            _join(controller, index)
        with counting_membership_calls() as calls:
            controller.handle_signal(leave_message("m", "p2"))
        assert calls == {
            ("configure_meeting", agent): 1,
            ("sync_meeting", agent.replication): 1,
            ("configure wrote", agent): 1,
        }
        assert list(agent.replication.meetings["m"].participants) == ["p1", "p3", "p4"]


def write_stamp(pipeline):
    """Write generations of every control table and the PRE: a write bumps
    one of them (inside a write batch, at its exit)."""
    control = pipeline.control
    return tuple(table.version for table in control._all_tables()) + (control.pre.generation,)


@contextmanager
def counting_membership_calls():
    """Count ``configure_meeting`` per agent, ``sync_meeting`` per
    replication manager, and ``configure wrote`` per agent for each
    configure that moved a write generation."""
    calls = Counter()
    configure, sync = SwitchAgent.configure_meeting, ReplicationManager.sync_meeting

    def configure_spy(self, *args):
        calls[("configure_meeting", self)] += 1
        before = write_stamp(self.pipeline)
        result = configure(self, *args)
        if write_stamp(self.pipeline) != before:
            calls[("configure wrote", self)] += 1
        return result

    def sync_spy(self, *args):
        calls[("sync_meeting", self)] += 1
        return sync(self, *args)

    with mock.patch.object(SwitchAgent, "configure_meeting", configure_spy), mock.patch.object(
        ReplicationManager, "sync_meeting", sync_spy
    ):
        yield calls


# --------------------------------------------------------------------------- XID slots


def _assert_sync_invariants(manager, meeting_id):
    """The XIDs of every tree group are pairwise distinct, and every stream
    entry of ``meeting_id`` is the one ``_entry_for_sender`` derives."""
    for group in manager._groups.values():
        assert len(set(group.meetings.values())) == len(group.meetings), group.meetings
    state = manager.meetings.get(meeting_id)
    if state is None or len(state.participants) < 2:
        return
    for participant in state.participants.values():
        for _kind, ssrc in participant.media_ssrcs():
            entry = manager.pipeline.stream_table.peek((participant.address, ssrc))
            assert entry == manager._entry_for_sender(state, participant), (meeting_id, participant.participant_id)


@contextmanager
def checking_every_sync():
    """Run :func:`_assert_sync_invariants` after every sync."""
    original = ReplicationManager.sync_meeting

    def checked(self, meeting_id, *args):
        result = original(self, meeting_id, *args)
        _assert_sync_invariants(self, meeting_id)
        return result

    with mock.patch.object(ReplicationManager, "sync_meeting", checked):
        yield


class TestXidSlots:
    def test_xid_one_meeting_losing_a_member_keeps_its_slot(self):
        """The meeting in slot 1 of a full group loses a member: it stays in
        slot 1, so neither meeting's media reaches the other's receivers."""
        pipeline, agent, controller = _controller()
        for index in range(1, 5):
            _join(controller, index, "A")
        for index in range(5, 9):
            _join(controller, index, "B")
        controller.handle_signal(leave_message("A", "p2"))
        replication = agent.replication
        assert (replication.meetings["A"].l1_xid, replication.meetings["B"].l1_xid) == (1, 2)
        for meeting_id in ("A", "B"):
            members = set(replication.meetings[meeting_id].participants)
            for sender in replication.meetings[meeting_id].participants.values():
                entry = pipeline.stream_table.peek((sender.address, sender.video_ssrc))
                (receivers,) = _receivers(pipeline, entry).values()
                assert {pid for pid, _address, _port in receivers} == members - {sender.participant_id}

    def test_entries_stamp_the_partner_meetings_slot(self):
        """Slot 1 is freed and taken by a newcomer: the meeting in slot 2 and
        the newcomer each stamp the other's slot."""
        pipeline = ScallopPipeline(SFU)
        manager = ReplicationManager(pipeline)
        nra = ReplicationDesign.NRA
        manager.sync_meeting("A", [endpoint(index) for index in range(1, 4)], nra)
        second = [endpoint(index) for index in range(4, 7)]
        manager.sync_meeting("B", second, nra)
        manager.remove_meeting("A")
        manager.sync_meeting("C", [endpoint(index) for index in range(7, 10)], nra)
        manager.sync_meeting("B", second + [endpoint(10)], nra)
        b, c = manager.meetings["B"], manager.meetings["C"]
        assert b.tree_group == c.tree_group and (b.l1_xid, c.l1_xid) == (2, 1)
        assert manager._other_meeting_xid(b) == c.l1_xid
        assert manager._other_meeting_xid(c) == b.l1_xid
        for state, partner in ((b, c), (c, b)):
            for sender in state.participants.values():
                entry = pipeline.stream_table.peek((sender.address, sender.audio_ssrc))
                assert entry.l1_xid == partner.l1_xid

    def test_groups_of_more_than_two_meetings_are_refused(self):
        capacities = dataclasses.replace(DEFAULT_CAPACITIES, meetings_per_tree=3)
        with pytest.raises(ValueError, match="meetings_per_tree"):
            ReplicationManager(ScallopPipeline(SFU, capacities))


def operations(meetings, max_size):
    """Lists of (kind, meeting index, pick): join a new participant, leave
    the ``pick``-th survivor, or migrate the meeting (on one box, adapt the
    ``pick``-th survivor's video toward another survivor, which moves a
    meeting of three or more to RA-R; on a cluster, to box ``pick % 2``)."""
    return st.lists(
        st.tuples(
            st.sampled_from(("join", "join", "join", "leave", "leave", "migrate")),
            st.integers(min_value=0, max_value=meetings - 1),
            st.integers(min_value=0, max_value=64),
        ),
        min_size=1,
        max_size=max_size,
    )


@settings(max_examples=60, deadline=None)
@given(sequence=operations(4, 60))
def test_xids_stay_distinct_and_entries_current_on_one_box(sequence):
    _pipeline, agent, controller = _controller()
    members = {meeting: [] for meeting in range(4)}
    with checking_every_sync():
        for index, (kind, meeting, pick) in enumerate(sequence, start=1):
            meeting_id = f"m{meeting}"
            if kind == "join":
                _join(controller, index, meeting_id)
                members[meeting].append(f"p{index}")
            elif kind == "leave" and members[meeting]:
                pid = members[meeting].pop(pick % len(members[meeting]))
                controller.handle_signal(leave_message(meeting_id, pid))
            elif kind == "migrate" and len(members[meeting]) >= 2:
                endpoints = agent.replication.meetings[meeting_id].participants
                sender = members[meeting][pick % len(members[meeting])]
                receiver = members[meeting][(pick + 1) % len(members[meeting])]
                _adapt(agent, endpoints[sender], endpoints[receiver])
            state = agent.replication.meetings.get(meeting_id)
            if state is not None:
                assert state.design == agent._design_for(meeting_id, state.participants)


# --------------------------------------------------------------------------- RID allocation


class TestRidAllocation:
    def test_free_rid_is_the_lowest_unused_rid_of_the_tree(self):
        pipeline = ScallopPipeline(SFU)
        pre = pipeline.pre
        mgid, other = pre.create_tree(), pre.create_tree()
        nodes = [pre.add_node(mgid, rid=pre.free_rid(mgid), ports=[L2Port(port)]) for port in range(1, 5)]
        assert sorted(pre.tree(mgid).rids()) == [0, 1, 2, 3]
        pre.remove_node(mgid, nodes[1])
        assert pre.free_rid(mgid) == 1
        assert pre.free_rid(other) == 0

    def test_churn_beside_a_fixed_meeting_never_reuses_a_held_rid(self):
        capacities = dataclasses.replace(DEFAULT_CAPACITIES, max_rids_per_tree=64)
        pipeline = ScallopPipeline(SFU, capacities)
        agent = SwitchAgent(pipeline)
        fixed = [endpoint(index) for index in (1, 2, 3)]
        churned = [endpoint(index) for index in (11, 12, 13)]
        agent.configure_meeting("A", fixed)
        agent.configure_meeting("B", churned)
        group = agent.replication.meetings["A"].tree_group
        assert agent.replication.meetings["B"].tree_group == group
        for cycle in range(40):
            newcomer = endpoint(100 + cycle)
            agent.configure_meeting("B", churned + [newcomer])
            agent.configure_meeting("B", churned)
        (tree,) = agent.replication.meetings["A"].trees
        rids = sorted(pipeline.pre.tree(tree.mgid).rids())
        assert rids == list(range(6))
        sender = fixed[0]
        entry = pipeline.stream_table.peek((sender.address, sender.audio_ssrc))
        replicas = pipeline.pre.replicate(entry.mgid, entry.l1_xid, entry.rid, entry.l2_xid)
        targets = {pipeline.replica_table.peek((entry.mgid, r.rid)).address for r in replicas}
        assert {p.address for p in fixed[1:]} <= targets
        assert sender.address not in targets


# --------------------------------------------------------------------------- agent registry


def test_learned_structure_survives_another_participants_join():
    pipeline = ScallopPipeline(SFU)
    agent = SwitchAgent(pipeline)
    participants = [endpoint(index) for index in range(1, 4)]
    agent.configure_meeting("m", participants)
    learned = TemplateStructure(
        template_to_layer={0: (0, 0), 1: (0, 1)}, decode_target_layers={0: 0, 1: 1, 2: 1}
    )
    sender = participants[0]
    descriptor = DependencyDescriptor(
        start_of_frame=True, end_of_frame=True, template_id=0, frame_number=1, structure=learned
    )
    key_frame = RtpPacket(
        payload_type=45,
        sequence_number=1,
        timestamp=0,
        ssrc=sender.video_ssrc,
        extension=encode_extensions([dependency_descriptor_element(descriptor)]),
    )
    agent.handle_cpu_packet(Datagram(src=sender.address, dst=SFU, payload=key_frame))
    assert agent.sender_structure("p1") == learned
    agent.configure_meeting("m", participants + [endpoint(4)])
    assert agent.sender_structure("p1") == learned
    agent.configure_meeting("m", [participants[0], participants[2], endpoint(4)])
    assert agent.sender_structure("p1") == learned
    # a changed endpoint is a new registration, which starts from the default
    moved = dataclasses.replace(endpoint(1), address=Address("10.0.2.1", 7001))
    agent.configure_meeting("m", [moved, participants[2], endpoint(4)])
    assert agent.sender_structure("p1") == TemplateStructure.l1t3()


def test_departures_are_forgotten_and_indexes_follow():
    pipeline = ScallopPipeline(SFU)
    agent = SwitchAgent(pipeline)
    participants = [endpoint(index) for index in range(1, 5)]
    agent.configure_meeting("m", participants)
    agent.configure_meeting("n", [endpoint(index) for index in range(5, 8)])
    agent.configure_meeting("m", participants[1:])
    assert "p1" not in agent._participants
    assert participants[0].address not in agent._participant_by_address
    assert participants[0].video_ssrc not in agent._participant_by_ssrc
    assert set(agent._participants) == {f"p{index}" for index in range(2, 8)}
    assert list(agent.replication.meetings["m"].participants) == ["p2", "p3", "p4"]


# --------------------------------------------------------------------------- the fresh-install oracle

ORACLE_MEETINGS = (
    MeetingSpec(participants=0, cascade=(0, 1)),
    MeetingSpec(participants=0, cascade=(0, 1), send_audio=False, send_video=False),
    MeetingSpec(participants=0, sfu=1, send_video=False),
    MeetingSpec(participants=0, cascade=(1, 1, 0)),
)

cluster_operations = operations(len(ORACLE_MEETINGS), 40)


def _oracle_run():
    return build_scenario(
        Scenario(
            name="membership-oracle",
            meetings=ORACLE_MEETINGS,
            backend=BackendSpec.cluster(n_sfus=2),
            duration_s=3600.0,
            seed=5,
        )
    )


def _rebuild_everything():
    """The oracle: every membership change re-lays the meeting's trees and
    re-installs its trunk subscriptions (a test-only patch, not an option)."""

    patch = TrunkManager._patch

    def reinstall(self, trunk, senders, local_receivers):
        if not (trunk.receivers or trunk.senders):
            return patch(self, trunk, senders, local_receivers)  # a new subscription
        # the fresh subscription goes in before the old one is released, so
        # the release keeps what the new one still carries
        self._unsubscribe(trunk)
        patch(self, self._subscribe(trunk.meeting_id, trunk.origin), senders, local_receivers)
        self._teardown(trunk)
        return []

    stack = ExitStack()
    stack.enter_context(mock.patch.object(ReplicationManager, "_patchable", lambda self, *args: False))
    stack.enter_context(mock.patch.object(TrunkManager, "_patch", reinstall))
    return stack


@contextmanager
def recording_syncs():
    """Collect ``(replication manager, meeting id)`` of every sync."""
    synced = []
    original = ReplicationManager.sync_meeting

    def spy(self, meeting_id, *args, **kwargs):
        synced.append((self, meeting_id))
        return original(self, meeting_id, *args, **kwargs)

    with mock.patch.object(ReplicationManager, "sync_meeting", spy):
        yield synced


def _apply(run, operation):
    kind, meeting, pick = operation
    meeting_id = run.meeting_id_for(meeting)
    members = [client for client in run.clients if client.config.meeting_id == meeting_id]
    if kind == "join":
        run.add_participant(meeting, start=False)
    elif kind == "leave" and members:
        run.leave(meeting, members[pick % len(members)].config.participant_id)
    elif kind == "migrate" and members:
        run.migrate(meeting, pick % 2)
    elif kind == "adapt" and len(members) >= 2:
        # a low REMB from one member about another's video installs an
        # adaptation entry on the receiver's box (RA-R from three up)
        receiver, sender = members[pick % len(members)], members[(pick + 1) % len(members)]
        if sender.config.send_video:
            box = run.sfu.members[run.sfu.home_of(receiver.config.participant_id)]
            remb = Remb(sender_ssrc=9999, bitrate_bps=700_000, media_ssrcs=(sender.video_ssrc,))
            box.agent.handle_cpu_packet(Datagram(src=receiver.address, dst=box.address, payload=(remb,)))
    # let migration drain windows expire, as the simulation would
    run.run_for(0.06)


def _assert_fresh_install(box, meeting_id):
    """One meeting on one box holds exactly what a fresh install of its
    population at its tree group and XID slot writes."""
    replication, pipeline, agent = box.agent.replication, box.pipeline, box.agent
    state = replication.meetings.get(meeting_id)
    registered = {pid for pid, p in agent._participants.items() if p.meeting_id == meeting_id and not p.remote}
    if state is None:
        assert not registered
        return
    shared = state.tree_group is not None
    if shared:
        group = replication._groups[state.tree_group]
        assert group.meetings[meeting_id] == state.l1_xid
        assert state.trees == group.trees
    keys = {f"{meeting_id}:{pid}" for pid in state.participants} if state.trees else set()
    for tree in state.trees:
        nodes = pipeline.pre.tree(tree.mgid).nodes
        assert set(nodes) == set(tree.node_ids.values())
        assert {key for key in tree.node_ids if key.startswith(f"{meeting_id}:")} == keys
        for pid, participant in state.participants.items():
            key = f"{meeting_id}:{pid}"
            node = nodes[tree.node_ids[key]]
            assert node.rid == tree.rids[key]
            assert node.ports == (L2Port(port=participant.egress_port, l2_xid=participant.egress_port),)
            assert (node.l1_xid, node.prune_enabled) == ((state.l1_xid, True) if shared else (None, False))
            target = pipeline.replica_table.peek((tree.mgid, node.rid))
            assert target == ReplicaTarget(address=participant.address, participant_id=pid)
    _assert_sync_invariants(replication, meeting_id)
    assert registered == set(state.participants)
    for pid, participant in state.participants.items():
        registered = agent._participants[pid]
        assert (registered.meeting_id, registered.remote, registered.endpoint) == (meeting_id, False, participant)
    local = {pid: p for pid, p in state.participants.items() if not p.trunk}
    for (subscribed, origin), trunk in box.trunks.subscriptions.items():
        if subscribed != meeting_id:
            continue
        assert trunk.receivers == local
        nodes = pipeline.pre.tree(trunk.mgid).nodes
        assert {
            pipeline.replica_table.peek((trunk.mgid, nodes[node_id].rid)) for node_id, _rid in trunk.nodes.values()
        } == {ReplicaTarget(address=p.address, participant_id=pid) for pid, p in local.items()}
        assert len(nodes) == len(local)
        for sender in trunk.senders.values():
            assert agent._participants[sender.participant_id].remote
            for _kind, ssrc in sender.media_ssrcs():
                assert pipeline.stream_table.peek((origin, ssrc)).mgid == trunk.mgid


def _in_meeting_delivery(box):
    """For every installed sender stream: the in-meeting (receiver, port)
    set the PRE sends its packet to, per replication tree layer."""
    pipeline, replication = box.pipeline, box.agent.replication
    delivery = {}
    for key, entry in pipeline.stream_table.entries():
        meeting = replication.meetings.get(entry.meeting_id)
        members = set() if meeting is None else set(meeting.participants)
        delivery[key] = {
            layer: frozenset(receiver for receiver in receivers if receiver[0] in members or receiver[0] is None)
            for layer, receivers in _receivers(pipeline, entry).items()
        }
    return delivery


def _layout_free(state):
    """A box state without what a re-lay may move: the tree group and XID
    slot a meeting sits in show in its stream entries, the L1 nodes and the
    tree count."""
    return frozenset(t for t in state if t[0] not in ("stream", "l1_node") and t[1] != "trees")


def _assert_designs(run):
    """Every installed meeting sits in the design the agent's picker names."""
    for box in run.sfu.members:
        for meeting_id, state in box.agent.replication.meetings.items():
            assert state.design == box.agent._design_for(meeting_id, state.participants), meeting_id


def _assert_oracle_agrees(sequence):
    incremental, rebuilt = _oracle_run(), _oracle_run()
    try:
        for step, operation in enumerate(sequence):
            with recording_syncs() as synced:
                _apply(incremental, operation)
            with _rebuild_everything():
                _apply(rebuilt, operation)
            boxes = {box.agent.replication: box for box in incremental.sfu.members}
            for manager, meeting_id in synced:
                _assert_fresh_install(boxes[manager], meeting_id)
            for index, (box, oracle) in enumerate(zip(incremental.sfu.members, rebuilt.sfu.members)):
                diff = state_diff(_layout_free(box.state()), _layout_free(oracle.state()))
                assert diff is None, f"box {index} differs after op {step} {operation}: {diff}"
                assert _in_meeting_delivery(box) == _in_meeting_delivery(oracle), f"box {index} delivery"
            _assert_designs(incremental)
            assert incremental.reconcile() == rebuilt.reconcile()
    finally:
        incremental.close()
        rebuilt.close()


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sequence=cluster_operations)
def test_incremental_membership_matches_a_fresh_install(sequence):
    _assert_oracle_agrees(sequence)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sequence=cluster_operations)
def test_xids_stay_distinct_and_entries_current_on_a_cluster(sequence):
    run = _oracle_run()
    try:
        with checking_every_sync():
            for operation in sequence:
                _apply(run, operation)
                _assert_designs(run)
    finally:
        run.close()


def test_oracle_sequence_exercises_both_paths():
    """A fixed churn sequence: the oracle agrees, and the incremental run
    really patched trees and trunks and re-laid trees on a design change
    (the comparison is not vacuous)."""
    sequence = [("join", meeting, 0) for meeting in (0, 1, 2, 3) for _ in range(4)]
    sequence += [("leave", 0, 1), ("join", 1, 0), ("leave", 3, 2), ("migrate", 0, 1), ("join", 0, 0)]
    sequence += [("leave", 1, 0), ("join", 2, 0), ("migrate", 3, 0), ("leave", 2, 1), ("join", 3, 0)]
    paths = Counter()
    originals = {
        "patch": ReplicationManager._patch,
        "trunk": TrunkManager._patch,
        "sync": ReplicationManager.sync_meeting,
    }

    def patch(self, *args):
        paths["ReplicationManager._patch"] += 1
        return originals["patch"](self, *args)

    def trunk(self, *args):
        paths["TrunkManager._patch"] += 1
        return originals["trunk"](self, *args)

    def sync(self, meeting_id, participants, design):
        before = self.meetings.get(meeting_id)
        old = None if before is None else before.design
        result = originals["sync"](self, meeting_id, participants, design)
        if old is not None and result.design != old:
            paths["design change"] += 1
        return result

    with mock.patch.object(ReplicationManager, "_patch", patch), mock.patch.object(
        TrunkManager, "_patch", trunk
    ), mock.patch.object(ReplicationManager, "sync_meeting", sync):
        _assert_oracle_agrees(sequence)
    assert paths["ReplicationManager._patch"] > 0
    assert paths["TrunkManager._patch"] > 0
    assert paths["design change"] > 0


# --------------------------------------------------------------------------- idempotence


def _reconfigure_everything(run):
    """Configure every installed meeting on every hosting box and re-sync
    its trunk subscriptions, as an op on that meeting would."""
    cluster = run.sfu
    meetings = sorted({meeting_id for box in cluster.members for meeting_id in box.agent.replication.meetings})
    for meeting_id in meetings:
        cluster._sync_meeting(meeting_id)


@contextmanager
def without_the_no_op_return():
    """Test-only: every configure takes the full path (``_unchanged`` patched
    to ``False``), as a box would that could not tell its view is unchanged."""
    with mock.patch.object(SwitchAgent, "_unchanged", lambda self, *args: False):
        yield


def _allocations(box):
    """The allocation ids the replication records and trunks hold, which
    ``state()`` leaves out, and each meeting's members in order with their
    egress ports."""
    agent = box.agent
    return (
        {
            meeting_id: (state.l1_xid, state.tree_group, state.stamped_xid, tuple(t.mgid for t in state.trees))
            for meeting_id, state in agent.replication.meetings.items()
        },
        {key: (trunk.mgid, dict(trunk.nodes)) for key, trunk in box.trunks.subscriptions.items()},
        {
            meeting_id: tuple((pid, p.egress_port) for pid, p in state.participants.items())
            for meeting_id, state in agent.replication.meetings.items()
        },
    )


def _assert_idempotent(run):
    boxes = run.sfu.members
    # entries left stale by a partner entering or leaving the group (defect
    # 1 (i)) are the one thing an unchanged configure re-writes
    stale = [
        any(not box.agent.replication.xid_current(state) for state in box.agent.replication.meetings.values())
        for box in boxes
    ]
    stamps = [write_stamp(box.pipeline) for box in boxes]
    _reconfigure_everything(run)
    for index, box in enumerate(boxes):
        if not stale[index]:
            assert write_stamp(box.pipeline) == stamps[index], f"box {index}: an unchanged configure wrote"
    # the state leaves allocation ids out: the write stamps pin the tables'
    # and PRE's, _allocations the bookkeeping's
    states = [(box.state(), _allocations(box)) for box in boxes]
    stamps = [write_stamp(box.pipeline) for box in boxes]
    with without_the_no_op_return():
        _reconfigure_everything(run)
    for index, box in enumerate(boxes):
        state, allocations = states[index]
        diff = state_diff(box.state(), state)
        assert diff is None, f"box {index}: a full re-configure changed {diff}"
        assert _allocations(box) == allocations, f"box {index}: a full re-configure moved an id"
        assert write_stamp(box.pipeline) == stamps[index], f"box {index}: a full re-configure wrote"


idempotence_operations = st.lists(
    st.tuples(
        st.sampled_from(("join", "join", "join", "leave", "leave", "migrate", "adapt", "adapt")),
        st.integers(min_value=0, max_value=len(ORACLE_MEETINGS) - 1),
        st.integers(min_value=0, max_value=64),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sequence=idempotence_operations)
def test_an_unchanged_configure_writes_nothing(sequence):
    """After every join, leave, migration or adaptation on a two-box
    cluster, re-configuring every installed meeting writes nothing (bar
    defect 1 (i)'s re-stamps), and so does a forced full re-configure that
    skips the no-op return: tables, PRE trees, replication records,
    registry and trunk subscriptions all stay as they are."""
    run = _oracle_run()
    try:
        for operation in sequence:
            _apply(run, operation)
            _assert_idempotent(run)
    finally:
        run.close()


def test_idempotence_sequence_covers_every_op():
    """A fixed sequence through joins, leaves, adaptations (a design change
    to RA-R) and migrations in both directions."""
    sequence = [("join", meeting, 0) for meeting in (0, 1, 2, 3) for _ in range(4)]
    sequence += [("adapt", 0, 1), ("adapt", 3, 0), ("leave", 0, 1), ("join", 0, 0), ("migrate", 0, 1)]
    sequence += [("adapt", 0, 2), ("migrate", 0, 0), ("leave", 3, 2), ("migrate", 3, 1), ("leave", 1, 0)]
    run = _oracle_run()
    try:
        for operation in sequence:
            _apply(run, operation)
            _assert_idempotent(run)
        designs = {state.design for box in run.sfu.members for state in box.agent.replication.meetings.values()}
        assert ReplicationDesign.RA_R in designs
    finally:
        run.close()


# --------------------------------------------------------------------------- delta costs


@contextmanager
def table_calls(names=("install", "remove", "peek", "lookup", "entries")):
    """Count control-table operations by table name; ``entries`` counts the
    rows a scan walks as well as the call."""
    calls = Counter()
    stack = ExitStack()
    for name in names:
        original = getattr(ExactMatchTable, name)

        def spy(self, *args, _name=name, _original=original):
            calls[(self.name, _name)] += 1
            result = _original(self, *args)
            if _name == "entries":
                rows = list(result)
                calls[(self.name, "rows scanned")] += len(rows)
                return iter(rows)
            return result

        stack.enter_context(mock.patch.object(ExactMatchTable, name, spy))
    with stack:
        yield calls


@contextmanager
def feedback_installs(pipeline):
    """The keys of every feedback rule installed inside the block."""
    keys = []
    original = pipeline.control.feedback_table.install

    def spy(key, rule):
        keys.append(key)
        return original(key, rule)

    with mock.patch.object(pipeline.control.feedback_table, "install", spy):
        yield keys


def _ssrcs(participant):
    return [ssrc for _kind, ssrc in participant.media_ssrcs()]


@pytest.mark.parametrize("size", [2, 3, 5, 9])
def test_a_join_writes_only_the_joiners_feedback_rows(size):
    """Everyone sends audio and video: the joiner's rows as a receiver of
    the (n-1) others and as a sender toward them, 4(n-1) in all — not the
    n(n-1)·2 of a full rewrite."""
    pipeline = ScallopPipeline(SFU)
    agent = SwitchAgent(pipeline)
    members = [endpoint(index) for index in range(1, size)]
    agent.configure_meeting("m", members)
    joiner = endpoint(size)
    with feedback_installs(pipeline) as written:
        agent.configure_meeting("m", members + [joiner])
    expected = [(joiner.address, ssrc) for other in members for ssrc in _ssrcs(other)]
    expected += [(other.address, ssrc) for other in members for ssrc in _ssrcs(joiner)]
    assert sorted(written, key=str) == sorted(expected, key=str)
    assert len(written) == (size - 1) * 2 + (size - 1) * 2
    for sender in members + [joiner]:
        for receiver in members + [joiner]:
            for ssrc in _ssrcs(sender) if receiver is not sender else ():
                assert pipeline.feedback_table.peek((receiver.address, ssrc)).sender == sender.address


def test_a_join_beside_a_trunk_counts_the_trunk_among_the_receivers():
    """The trunk endpoint sends nothing of its own, so the joiner receives
    from the three local senders and sends toward them and the trunk."""
    pipeline = ScallopPipeline(SFU)
    agent = SwitchAgent(pipeline)
    trunk = ParticipantEndpoint("trunk:m:peer", Address("10.0.0.2", 5000), egress_port=0, trunk=True)
    local = [endpoint(index) for index in range(1, 4)]
    agent.configure_meeting("m", local + [trunk])
    joiner = endpoint(4)
    with feedback_installs(pipeline) as written:
        agent.configure_meeting("m", local + [joiner, trunk])
    receiving = [(joiner.address, ssrc) for other in local for ssrc in _ssrcs(other)]
    sending = [(other.address, ssrc) for other in local + [trunk] for ssrc in _ssrcs(joiner)]
    assert sorted(written, key=str) == sorted(receiving + sending, key=str)
    assert len(written) == 3 * 2 + 4 * 2


def test_an_unchanged_configure_opens_no_write_batch():
    pipeline = ScallopPipeline(SFU)
    agent = SwitchAgent(pipeline)
    participants = [endpoint(index) for index in range(1, 6)]
    agent.configure_meeting("m", participants)
    updates = agent.counters.rule_updates
    with mock.patch.object(pipeline.control, "batched_writes") as batch, table_calls() as calls:
        agent.configure_meeting("m", list(participants))
    assert not batch.called and not calls
    assert agent.counters.rule_updates == updates
    # equal but rebuilt endpoints take the full path, which writes nothing
    stamp = write_stamp(pipeline)
    agent.configure_meeting("m", [endpoint(index) for index in range(1, 6)])
    assert write_stamp(pipeline) == stamp


def _box_with_meetings(others):
    """A box holding ``others`` three-party meetings, each with an adapted
    stream and its feedback rules, plus meeting "m" of four, whose p2 has
    adaptation entries as a receiver and as a sender."""
    pipeline, agent, controller = _controller()
    index = 100
    for meeting in range(others):
        trio = []
        for _ in range(3):
            index += 1
            _join(controller, index, f"o{meeting}")
            trio.append(agent.replication.meetings[f"o{meeting}"].participants[f"p{index}"])
        _adapt(agent, trio[0], trio[1])
    for index in range(1, 5):
        _join(controller, index, "m")
    members = agent.replication.meetings["m"].participants
    _adapt(agent, members["p1"], members["p2"])
    _adapt(agent, members["p2"], members["p3"])
    return pipeline, agent, controller


def test_a_leave_costs_the_same_beside_one_or_fifty_meetings():
    costs = []
    for others in (1, 51):
        pipeline, agent, controller = _box_with_meetings(others)
        assert agent.meeting_design("m") == ReplicationDesign.RA_R
        assert agent.replication.meetings["m"].l1_xid == 2  # a partner in the group, both times
        with table_calls() as calls, pre_writes(pipeline.pre) as writes:
            controller.handle_signal(leave_message("m", "p2"))
        assert not any(name == "entries" for _table, name in calls)
        costs.append((dict(calls), {name: len(mgids) for name, mgids in writes.items()}))
        assert len(pipeline.adaptation_table) == others
        assert all(
            receiver != Address("10.0.1.2", 6002) and ssrc not in (200, 201)
            for (receiver, ssrc), _rule in pipeline.feedback_table.entries()
        )
    assert costs[0] == costs[1]


def test_a_cluster_leave_makes_no_table_scan():
    """A leave that shrinks a cascaded meeting on its box and one that
    empties the box (its trunk subscription and the peer's go) both find
    their rows through indexes."""
    run = build_scenario(
        Scenario(
            name="cascade",
            meetings=(MeetingSpec(participants=4, cascade=(0, 1)),),
            backend=BackendSpec.cluster(n_sfus=2),
            duration_s=10.0,
        )
    )
    run.run_for(1.0)  # media flows: trunk routes, feedback rules, adaptation
    for participant in ("m0-p2", "m0-p0", "m0-p1"):
        with table_calls() as calls:
            run.leave(0, participant)
        assert not any(name == "entries" for _table, name in calls), participant
    assert run.reconcile() == []
    run.close()
