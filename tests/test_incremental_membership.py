"""A join or leave writes only what it changes.

Membership changes reach the replication manager, the switch agent and the
trunk manager through one incremental path each
(``ReplicationManager.sync_meeting``, ``SwitchAgent.configure_meeting``,
``TrunkManager.sync_meeting``).  Four groups of tests pin it:

* **write counts** — a join into a running meeting appends one L1 node per
  tree and removes none, a leave removes one and appends none, and a join on
  the far side of a cascaded meeting keeps both trunk trees (same MGID, one
  node added where the receiver joined);
* **RID allocation** — RIDs are allocated per tree (lowest free), so churn
  next to a long-lived meeting never wraps into a RID the tree still holds;
* **the rebuild oracle** — random join / leave / migrate sequences on a
  two-box cluster leave exactly the control state a teardown-and-rebuild of
  every touched meeting and trunk leaves (the incremental predicates are
  patched to ``False`` for the oracle run), normalised by tree membership
  rather than MGID / RID / node-id values;
* **agent registry** — a sender's learned SVC structure survives another
  participant's join.
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
from repro.dataplane.pipeline import ScallopPipeline
from repro.dataplane.pre import L2Port
from repro.dataplane.resources import DEFAULT_CAPACITIES
from repro.netsim.datagram import Address, Datagram
from repro.rtp.av1 import DependencyDescriptor, TemplateStructure, dependency_descriptor_element
from repro.rtp.extensions import encode_extensions
from repro.rtp.packet import RtpPacket
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
        agent.configure_meeting("m", participants, design=design)
        mgids = sorted(tree.mgid for tree in agent.replication.meetings["m"].trees)
        with pre_writes(pipeline.pre) as joined:
            agent.configure_meeting("m", participants + [endpoint(9)], design=design)
        with pre_writes(pipeline.pre) as left:
            agent.configure_meeting("m", participants[:3] + participants[4:] + [endpoint(9)], design=design)
        assert sorted(joined["add_node"]) == mgids and joined["remove_node"] == []
        assert sorted(left["remove_node"]) == mgids and left["add_node"] == []
        assert joined["create_tree"] == left["create_tree"] == []

    def test_newcomer_ahead_of_a_trunk_endpoint_keeps_rebuild_order(self):
        """Trunk endpoints come last: a local newcomer goes in front of them,
        so the trunk node is laid down again behind it, as a rebuild would."""
        pipeline = ScallopPipeline(SFU)
        agent = SwitchAgent(pipeline)
        trunk = ParticipantEndpoint("trunk:peer", Address("10.0.0.2", 5000), egress_port=0, trunk=True)
        local = [endpoint(index) for index in range(1, 4)]
        agent.configure_meeting("m", local + [trunk], design=ReplicationDesign.NRA)
        (tree,) = agent.replication.meetings["m"].trees
        with pre_writes(pipeline.pre) as writes:
            agent.configure_meeting("m", local + [endpoint(4), trunk], design=ReplicationDesign.NRA)
        assert writes["add_node"] == [tree.mgid, tree.mgid] and writes["remove_node"] == [tree.mgid]
        order = [tree.node_ids[f"m:{pid}"] for pid in agent.replication.meetings["m"].participants]
        assert order == list(pipeline.pre.tree(tree.mgid).nodes)
        assert list(agent.replication.meetings["m"].participants) == ["p1", "p2", "p3", "p4", "trunk:peer"]

    def test_unchanged_population_writes_no_pre_state(self):
        pipeline = ScallopPipeline(SFU)
        agent = SwitchAgent(pipeline)
        participants = [endpoint(index) for index in range(1, 6)]
        agent.configure_meeting("m", participants, design=ReplicationDesign.NRA)
        generation = pipeline.pre.generation
        agent.configure_meeting("m", [endpoint(index) for index in range(1, 6)], design=ReplicationDesign.NRA)
        assert pipeline.pre.generation == generation

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
        agent.configure_meeting("A", fixed, design=ReplicationDesign.NRA)
        agent.configure_meeting("B", churned, design=ReplicationDesign.NRA)
        group = agent.replication.meetings["A"].tree_group
        assert agent.replication.meetings["B"].tree_group == group
        for cycle in range(40):
            newcomer = endpoint(100 + cycle)
            agent.configure_meeting("B", churned + [newcomer], design=ReplicationDesign.NRA)
            agent.remove_participant("B", newcomer.participant_id)
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
    agent.configure_meeting("m", participants, design=ReplicationDesign.NRA)
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
    agent.configure_meeting("m", participants + [endpoint(4)], design=ReplicationDesign.NRA)
    assert agent.sender_structure("p1") == learned
    agent.remove_participant("m", "p2")
    assert agent.sender_structure("p1") == learned
    # a changed endpoint is a new registration, which starts from the default
    moved = dataclasses.replace(endpoint(1), address=Address("10.0.2.1", 7001))
    agent.configure_meeting("m", [moved, participants[2], endpoint(4)], design=ReplicationDesign.NRA)
    assert agent.sender_structure("p1") == TemplateStructure.l1t3()


def test_departures_are_forgotten_and_indexes_follow():
    pipeline = ScallopPipeline(SFU)
    agent = SwitchAgent(pipeline)
    participants = [endpoint(index) for index in range(1, 5)]
    agent.configure_meeting("m", participants, design=ReplicationDesign.NRA)
    agent.configure_meeting("n", [endpoint(index) for index in range(5, 8)], design=ReplicationDesign.NRA)
    agent.configure_meeting("m", participants[1:], design=ReplicationDesign.NRA)
    assert "p1" not in agent._participants
    assert participants[0].address not in agent._participant_by_address
    assert participants[0].video_ssrc not in agent._participant_by_ssrc
    assert set(agent._participants) == {f"p{index}" for index in range(2, 8)}
    assert agent.participants_in("m") == ["p2", "p3", "p4"]


# --------------------------------------------------------------------------- the rebuild oracle

ORACLE_MEETINGS = (
    MeetingSpec(participants=0, cascade=(0, 1)),
    MeetingSpec(participants=0, cascade=(0, 1), send_audio=False, send_video=False),
    MeetingSpec(participants=0, sfu=1, send_video=False),
    MeetingSpec(participants=0, cascade=(1, 1, 0)),
)

#: (kind, meeting index, pick): join a new participant, leave the
#: ``pick``-th survivor, or migrate the meeting to box ``pick % 2``
operations = st.lists(
    st.tuples(
        st.sampled_from(("join", "join", "join", "leave", "leave", "migrate")),
        st.integers(min_value=0, max_value=len(ORACLE_MEETINGS) - 1),
        st.integers(min_value=0, max_value=64),
    ),
    min_size=1,
    max_size=40,
)


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
    stack = ExitStack()
    stack.enter_context(mock.patch.object(ReplicationManager, "_patchable", lambda self, *args: False))
    stack.enter_context(mock.patch.object(TrunkManager, "_patchable", staticmethod(lambda *args: False)))
    return stack


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
    # let migration drain windows expire, as the simulation would
    run.run_for(0.06)


def _control_view(box):
    """A box's control state, independent of MGID / RID / node-id values."""
    pipeline = box.pipeline
    pre = pipeline.pre
    targets = dict(pipeline.replica_table.entries())
    trees = {}
    for mgid, tree in pre._trees.items():
        trees[mgid] = tuple(
            (targets.get((mgid, node.rid)), node.ports, node.l1_xid, node.prune_enabled)
            for node in tree.nodes.values()
        )

    def receiver_of(mgid, rid):
        return None if rid is None else targets.get((mgid, rid))

    streams = {}
    for key, entry in pipeline.stream_table.entries():
        streams[key] = (
            entry.mode,
            entry.meeting_id,
            entry.sender,
            entry.unicast_receiver,
            trees.get(entry.mgid),
            None
            if entry.mgid_by_layer is None
            else tuple(sorted((layer, trees.get(mgid)) for layer, mgid in entry.mgid_by_layer.items())),
            entry.l1_xid,
            receiver_of(entry.mgid, entry.rid),
            entry.l2_xid,
        )
    replication = box.agent.replication
    meetings = {}
    for meeting_id, state in replication.meetings.items():
        group = replication._groups.get(state.tree_group) if state.tree_group else None
        meetings[meeting_id] = (
            state.design,
            tuple(state.participants.items()),
            state.l1_xid,
            None if group is None else tuple(group.meetings),
            tuple(trees[tree.mgid] for tree in state.trees),
        )
    open_groups = {
        design: [tuple(replication._groups[group_id].meetings) for group_id in group_ids]
        for design, group_ids in replication._open_groups.items()
    }
    agent = box.agent
    registry = {
        pid: (state.meeting_id, state.remote, state.endpoint, state.structure)
        for pid, state in agent._participants.items()
    }
    trunks = {
        key: (trunk.senders, tuple(entry[0] for entry in trunk.receivers.values()), trees[trunk.mgid])
        for key, trunk in box.trunks.subscriptions.items()
    }
    return {
        "trees": Counter(trees.values()),
        "streams": streams,
        "ssrc_owners": dict(pipeline.ssrc_table.entries()),
        "feedback": dict(pipeline.feedback_table.entries()),
        "adaptation": dict(pipeline.adaptation_table.entries()),
        "meetings": meetings,
        "open_groups": open_groups,
        "registry": registry,
        "by_address": dict(agent._participant_by_address),
        "by_ssrc": dict(agent._participant_by_ssrc),
        "trunks": trunks,
        "accountant": (pipeline.accountant.trees_allocated, pipeline.accountant.l1_nodes_allocated),
    }


def _assert_oracle_agrees(sequence):
    incremental, rebuilt = _oracle_run(), _oracle_run()
    try:
        for step, operation in enumerate(sequence):
            _apply(incremental, operation)
            with _rebuild_everything():
                _apply(rebuilt, operation)
            for index, (box, oracle) in enumerate(zip(incremental.sfu.members, rebuilt.sfu.members)):
                view, expected = _control_view(box), _control_view(oracle)
                for part in expected:
                    assert view[part] == expected[part], f"box {index} {part} differs after op {step} {operation}"
            assert incremental.reconcile() == rebuilt.reconcile()
    finally:
        incremental.close()
        rebuilt.close()


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sequence=operations)
def test_incremental_membership_matches_the_rebuild(sequence):
    _assert_oracle_agrees(sequence)


def test_oracle_sequence_exercises_both_paths():
    """A fixed churn sequence: the oracle agrees, and the incremental run
    really patched trees and trunks (the comparison is not vacuous)."""
    sequence = [("join", meeting, 0) for meeting in (0, 1, 2, 3) for _ in range(4)]
    sequence += [("leave", 0, 1), ("join", 1, 0), ("leave", 3, 2), ("migrate", 0, 1), ("join", 0, 0)]
    sequence += [("leave", 1, 0), ("join", 2, 0), ("migrate", 3, 0), ("leave", 2, 1), ("join", 3, 0)]
    patched = Counter()
    originals = {ReplicationManager: ReplicationManager._patch, TrunkManager: TrunkManager._patch}

    def counting(owner):
        def spy(self, *args):
            patched[owner.__name__] += 1
            return originals[owner](self, *args)

        return spy

    with mock.patch.object(ReplicationManager, "_patch", counting(ReplicationManager)), mock.patch.object(
        TrunkManager, "_patch", counting(TrunkManager)
    ):
        _assert_oracle_agrees(sequence)
    assert patched["ReplicationManager"] > 0
    assert patched["TrunkManager"] > 0
