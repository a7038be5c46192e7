"""Unit tests for the replication manager, switch agent, and controller,
and for the agent's one definition of box state (``SwitchAgent.state``)."""

from unittest import mock

import pytest

from repro.core.capacity import ReplicationDesign, RewriteVariant
from repro.core.controller import ScallopController, SignalingError
from repro.core.replication import ParticipantEndpoint, ReplicationManager
from repro.core.switch_agent import Registration, SwitchAgent, _ParticipantState
from repro.dataplane.pipeline import FeedbackRule, ForwardingMode, ScallopPipeline, state_diff
from repro.netsim.datagram import Address, Datagram
from repro.rtp.av1 import DecodeTarget
from repro.rtp.rtcp import Remb
from repro.signaling.messages import SignalMessage, SignalType, join_message, leave_message
from repro.signaling.sdp import make_offer
from repro.stun.message import make_binding_request
from repro.webrtc.encoder import RtpPacketizer, SvcEncoder

SFU = Address("10.0.0.1", 5000)


def endpoint(index, audio=True, video=True):
    return ParticipantEndpoint(
        participant_id=f"p{index}",
        address=Address(f"10.0.1.{index}", 6000 + index),
        egress_port=0,
        audio_ssrc=1000 + index * 10 if audio else None,
        video_ssrc=1001 + index * 10 if video else None,
    )


class TestReplicationManager:
    def setup_method(self):
        self.pipeline = ScallopPipeline(SFU)
        self.manager = ReplicationManager(self.pipeline)

    def test_two_party_meeting_uses_unicast(self):
        participants = [endpoint(1), endpoint(2)]
        state = self.manager.install_meeting("m", participants, ReplicationDesign.TWO_PARTY)
        assert state.trees == []
        entry = self.pipeline.stream_table.lookup((participants[0].address, participants[0].video_ssrc))
        assert entry.mode == ForwardingMode.UNICAST
        assert entry.unicast_receiver == participants[1].address

    def test_two_party_design_validation(self):
        with pytest.raises(ValueError):
            self.manager.install_meeting("m", [endpoint(1), endpoint(2), endpoint(3)], ReplicationDesign.TWO_PARTY)

    def test_nra_meeting_builds_one_tree_group(self):
        participants = [endpoint(i) for i in range(1, 4)]
        state = self.manager.install_meeting("m", participants, ReplicationDesign.NRA)
        assert len(state.trees) == 1
        assert self.pipeline.pre.num_trees == 1
        # every participant has stream entries installed for audio and video
        for participant in participants:
            for _kind, ssrc in participant.media_ssrcs():
                assert self.pipeline.stream_table.lookup((participant.address, ssrc)) is not None

    def test_two_nra_meetings_share_a_tree(self):
        self.manager.install_meeting("m1", [endpoint(i) for i in range(1, 4)], ReplicationDesign.NRA)
        self.manager.install_meeting("m2", [endpoint(i) for i in range(4, 7)], ReplicationDesign.NRA)
        assert self.pipeline.pre.num_trees == 1
        third = self.manager.install_meeting("m3", [endpoint(i) for i in range(7, 10)], ReplicationDesign.NRA)
        assert self.pipeline.pre.num_trees == 2  # third meeting opens a new tree
        assert third.l1_xid == 1

    def test_ra_r_meeting_builds_tree_per_quality(self):
        state = self.manager.install_meeting("m", [endpoint(i) for i in range(1, 4)], ReplicationDesign.RA_R)
        assert len(state.trees) == 3
        layers = sorted(t.layer for t in state.trees)
        assert layers == [0, 1, 2]

    def test_ra_sr_meeting_builds_tree_per_sender_pair_and_quality(self):
        state = self.manager.install_meeting("m", [endpoint(i) for i in range(1, 5)], ReplicationDesign.RA_SR)
        # 4 participants -> 2 sender pairs x 3 qualities = 6 trees
        assert len(state.trees) == 6

    def test_sync_adds_and_removes_participants(self):
        participants = [endpoint(i) for i in range(1, 4)]
        self.manager.install_meeting("m", participants, ReplicationDesign.NRA)
        newcomer = endpoint(9)
        self.manager.sync_meeting("m", participants + [newcomer], ReplicationDesign.NRA)
        assert len(self.manager.meetings["m"].participants) == 4
        assert self.pipeline.stream_table.lookup((newcomer.address, newcomer.video_ssrc)) is not None
        self.manager.sync_meeting("m", participants[1:] + [newcomer], ReplicationDesign.NRA)
        assert "p1" not in self.manager.meetings["m"].participants
        assert self.pipeline.stream_table.lookup((participants[0].address, participants[0].video_ssrc)) is None

    def test_lone_participant_keeps_the_record_and_remove_meeting_drops_it(self):
        first, second = endpoint(1), endpoint(2)
        self.manager.install_meeting("m", [first, second], ReplicationDesign.TWO_PARTY)
        self.manager.sync_meeting("m", [first], ReplicationDesign.NRA)
        assert list(self.manager.meetings["m"].participants) == ["p1"]
        assert len(self.pipeline.stream_table) == 0 and self.pipeline.pre.num_trees == 0
        self.manager.remove_meeting("m")
        assert "m" not in self.manager.meetings

    def test_design_change_relays_make_before_break(self):
        participants = [endpoint(i) for i in range(1, 4)]
        self.manager.install_meeting("m", participants, ReplicationDesign.NRA)
        (old_tree,) = self.manager.meetings["m"].trees
        created, destroyed = [], []
        pre = self.pipeline.pre
        original_create, original_destroy = pre.create_tree, pre.destroy_tree

        def create():
            created.append(self.pipeline.stream_table.peek((participants[0].address, participants[0].video_ssrc)).mgid)
            return original_create()

        def destroy(mgid):
            entry = self.pipeline.stream_table.peek((participants[0].address, participants[0].video_ssrc))
            destroyed.append((mgid, entry.mode))
            original_destroy(mgid)

        pre.create_tree, pre.destroy_tree = create, destroy
        self.manager.sync_meeting("m", participants, ReplicationDesign.RA_R)
        state = self.manager.meetings["m"]
        assert state.design == ReplicationDesign.RA_R
        assert len(state.trees) == 3
        # the new trees were built while the entries still pointed at the
        # old tree, and the old tree went only once they were repointed
        assert created == [old_tree.mgid] * 3
        assert destroyed == [(old_tree.mgid, ForwardingMode.REPLICATE_BY_LAYER)]
        assert self.pipeline.pre.num_trees == 3
        entry = self.pipeline.stream_table.lookup((participants[0].address, participants[0].video_ssrc))
        assert entry.mode == ForwardingMode.REPLICATE_BY_LAYER
        assert state.tree_group is not None

    def test_same_design_and_population_writes_nothing(self):
        participants = [endpoint(i) for i in range(1, 4)]
        self.manager.install_meeting("m", participants, ReplicationDesign.NRA)
        stream_version, pre_generation = self.pipeline.stream_table.version, self.pipeline.pre.generation
        self.manager.sync_meeting("m", participants, ReplicationDesign.NRA)
        assert self.manager.meetings["m"].design == ReplicationDesign.NRA
        assert (self.pipeline.stream_table.version, self.pipeline.pre.generation) == (stream_version, pre_generation)

    def test_relay_into_the_meetings_own_group(self):
        """A forced re-lay under the same design lands in the meeting's own
        (otherwise empty) group and still leaves a working meeting."""
        participants = [endpoint(i) for i in range(1, 4)]
        state = self.manager.install_meeting("m", participants, ReplicationDesign.NRA)
        group, (tree,) = state.tree_group, state.trees
        self.manager._relay(state, ReplicationDesign.NRA, {p.participant_id: p for p in participants})
        assert (state.tree_group, state.trees, state.l1_xid) == (group, [tree], 1)
        assert self.pipeline.pre.num_trees == 1
        assert len(self.pipeline.pre.tree(tree.mgid).nodes) == 3
        entry = self.pipeline.stream_table.lookup((participants[0].address, participants[0].video_ssrc))
        replicas = self.pipeline.pre.replicate(entry.mgid, entry.l1_xid, entry.rid, entry.l2_xid)
        assert {self.pipeline.replica_table.peek((entry.mgid, r.rid)).participant_id for r in replicas} == {"p2", "p3"}

    def test_remove_meeting_releases_trees(self):
        self.manager.install_meeting("m", [endpoint(i) for i in range(1, 4)], ReplicationDesign.RA_R)
        self.manager.remove_meeting("m")
        assert self.pipeline.pre.num_trees == 0
        assert self.pipeline.pre.total_l1_nodes() == 0


class TestSwitchAgent:
    def setup_method(self):
        self.pipeline = ScallopPipeline(SFU)
        self.sent = []
        self.agent = SwitchAgent(self.pipeline, send_fn=self.sent.append, rewrite_variant=RewriteVariant.S_LM)
        self.participants = [endpoint(i) for i in range(1, 4)]
        self.agent.configure_meeting("m", self.participants)

    def _remb_from(self, receiver, about_sender, bitrate):
        packet = Remb(sender_ssrc=9999, bitrate_bps=bitrate, media_ssrcs=(about_sender.video_ssrc,))
        datagram = Datagram(src=receiver.address, dst=SFU, payload=(packet,))
        self.agent.handle_cpu_packet(datagram)

    def test_configure_installs_feedback_rules(self):
        rule = self.pipeline.feedback_table.lookup(
            (self.participants[1].address, self.participants[0].video_ssrc)
        )
        assert rule is not None
        assert rule.sender == self.participants[0].address
        assert rule.forward_nack_pli

    def test_stun_request_answered(self):
        request = make_binding_request(bytes(12), "p1")
        self.agent.handle_cpu_packet(Datagram(src=self.participants[0].address, dst=SFU, payload=request))
        assert len(self.sent) == 1
        assert self.sent[0].dst == self.participants[0].address
        assert self.agent.counters.stun_handled == 1

    def test_low_remb_installs_adaptation_and_migrates(self):
        receiver, sender = self.participants[2], self.participants[0]
        self._remb_from(receiver, sender, bitrate=700_000)
        assert self.agent.decode_target_for(sender.participant_id, receiver.participant_id) == DecodeTarget.DT1
        entry = self.pipeline.adaptation_table.lookup((sender.video_ssrc, receiver.address))
        assert entry is not None
        assert entry.allowed_templates == frozenset({0, 1, 2})
        # the meeting was migrated off the NRA design once adaptation started
        assert self.agent.meeting_design("m") == ReplicationDesign.RA_R
        assert self.agent.counters.migrations == 1

    def test_recovering_remb_upgrades_templates(self):
        receiver, sender = self.participants[2], self.participants[0]
        self._remb_from(receiver, sender, bitrate=700_000)
        self._remb_from(receiver, sender, bitrate=2_500_000)
        entry = self.pipeline.adaptation_table.lookup((sender.video_ssrc, receiver.address))
        assert entry.allowed_templates == frozenset({0, 1, 2, 3, 4})

    def test_filter_function_selects_best_downlink(self):
        sender = self.participants[0]
        self._remb_from(self.participants[1], sender, bitrate=3_000_000)
        self._remb_from(self.participants[2], sender, bitrate=1_000_000)
        updates = self.agent.run_filter_function()
        assert updates > 0
        good = self.pipeline.feedback_table.lookup((self.participants[1].address, sender.video_ssrc))
        poor = self.pipeline.feedback_table.lookup((self.participants[2].address, sender.video_ssrc))
        assert good.forward_remb and not poor.forward_remb

    def test_extended_descriptor_analysis(self):
        sender = self.participants[0]
        encoder = SvcEncoder(seed=1)
        packetizer = RtpPacketizer(ssrc=sender.video_ssrc, seed=1)
        key_packet = packetizer.packetize(encoder.next_frame(0.0))[0]
        self.agent.handle_cpu_packet(Datagram(src=sender.address, dst=SFU, payload=key_packet))
        assert self.agent.counters.extended_descriptors_handled == 1

    def test_leave_cleans_up(self):
        self._remb_from(self.participants[2], self.participants[0], bitrate=700_000)
        assert len(self.pipeline.adaptation_table) == 1
        self.agent.configure_meeting("m", self.participants[:2])
        assert state_diff(self.agent.state(), _box(1, 2).state()) is None

    def test_adapted_meeting_stays_ra_r_across_a_join_and_a_leave(self):
        self._remb_from(self.participants[2], self.participants[0], bitrate=700_000)
        assert self.agent.meeting_design("m") == ReplicationDesign.RA_R
        trees = list(self.agent.replication.meetings["m"].trees)
        self.agent.configure_meeting("m", self.participants + [endpoint(4)])
        assert self.agent.meeting_design("m") == ReplicationDesign.RA_R
        self.agent.configure_meeting("m", [self.participants[0], self.participants[2], endpoint(4)])
        assert self.agent.meeting_design("m") == ReplicationDesign.RA_R
        # patched in place both times: same trees, one design change in all
        assert self.agent.replication.meetings["m"].trees == trees
        assert self.agent.counters.migrations == 1

    def test_meeting_returns_to_nra_once_its_last_adaptation_entry_goes(self):
        self._remb_from(self.participants[2], self.participants[0], bitrate=700_000)
        self.agent.configure_meeting("m", self.participants[:2] + [endpoint(4)])
        assert self.agent.meeting_design("m") == ReplicationDesign.NRA

    def test_configure_empty_returns_the_box_to_its_empty_fingerprint(self):
        pipeline = ScallopPipeline(SFU)
        agent = SwitchAgent(pipeline)
        assert agent.state() == frozenset()
        participants = [endpoint(i) for i in range(1, 5)]
        agent.configure_meeting("m", participants)
        receiver, sender = participants[1], participants[0]
        remb = Remb(sender_ssrc=9999, bitrate_bps=700_000, media_ssrcs=(sender.video_ssrc,))
        agent.handle_cpu_packet(Datagram(src=receiver.address, dst=SFU, payload=(remb,)))
        assert agent.meeting_design("m") == ReplicationDesign.RA_R
        agent.configure_meeting("m", [])
        assert "m" not in agent.replication.meetings
        # tables, PRE, registers, registry, indexes, filter and egress ports
        assert state_diff(agent.state(), frozenset()) is None


class TestController:
    def setup_method(self):
        self.pipeline = ScallopPipeline(SFU)
        self.agent = SwitchAgent(self.pipeline)
        self.controller = ScallopController(SFU, self.agent)

    def _join(self, participant_id, meeting_id="m", index=1):
        offer = make_offer(participant_id, f"10.0.1.{index}", 6000 + index, ssrc_base=index * 100)
        return self.controller.handle_signal(join_message(meeting_id, participant_id, offer))

    def test_join_returns_answer_with_sfu_candidates(self):
        reply = self._join("p1", index=1)
        assert reply is not None and reply.type == SignalType.ANSWER
        answer = reply.session_description()
        for section in answer.media:
            assert section.candidates[0].ip == SFU.ip
            assert section.candidates[0].port == SFU.port

    def test_two_party_meeting_gets_two_party_design(self):
        self._join("p1", index=1)
        self._join("p2", index=2)
        assert self.agent.meeting_design("m") == ReplicationDesign.TWO_PARTY
        assert self.controller.meeting_sizes() == {"m": 2}

    def test_third_participant_switches_to_nra(self):
        for index in range(1, 4):
            self._join(f"p{index}", index=index)
        assert self.agent.meeting_design("m") == ReplicationDesign.NRA
        assert self.controller.total_participants() == 3

    def test_leave_removes_participant_and_meeting(self):
        self._join("p1", index=1)
        self._join("p2", index=2)
        self.controller.handle_signal(leave_message("m", "p1"))
        assert self.controller.meeting_sizes() == {"m": 1}
        self.controller.handle_signal(leave_message("m", "p2"))
        assert self.controller.meeting_sizes() == {}
        assert self.controller.counters.meetings_closed == 1

    def test_media_event_for_unknown_participant_raises(self):
        with pytest.raises(SignalingError):
            self.controller.handle_signal(
                SignalMessage(type=SignalType.MEDIA_STARTED, meeting_id="m", participant_id="ghost", media_kind="video")
            )

    def test_join_without_sdp_raises(self):
        with pytest.raises(SignalingError):
            self.controller.handle_signal(
                SignalMessage(type=SignalType.JOIN, meeting_id="m", participant_id="p1")
            )


# --------------------------------------------------------------------------- box state


def _box(*indexes):
    agent = SwitchAgent(ScallopPipeline(SFU))
    agent.configure_meeting("m", [endpoint(index) for index in indexes])
    return agent


def test_a_leave_leaves_what_a_fresh_install_of_the_survivors_holds():
    """Other RIDs, node ids and ports on the way, one state (the leaver's port leaked before)."""
    churned = _box(1, 2, 3, 4)
    churned.configure_meeting("m", [endpoint(index) for index in (1, 2, 3)])
    assert state_diff(churned.state(), _box(1, 2, 3).state()) is None


STALE_ROW = (endpoint(4).address, 1011), FeedbackRule(endpoint(1).address)
#: a departed participant's registration the agent failed to release
LEFT_BEHIND = _ParticipantState(endpoint=endpoint(4), meeting_id="m")


def _orphan_l1_node(agent):
    """A leave whose PRE node removal is lost."""
    agent.configure_meeting("m", [endpoint(index) for index in (1, 2, 3, 4)])
    with mock.patch("repro.core.replication.remove_replica_node"):
        agent.configure_meeting("m", [endpoint(index) for index in (1, 2, 3)])


@pytest.mark.parametrize(
    "mutate, named",
    [
        (
            lambda agent: agent.pipeline.feedback_table.install(*STALE_ROW),
            "feedback[{!r}]: {!r} != absent".format(*STALE_ROW),
        ),
        (_orphan_l1_node, f"l1_node[{('p4', endpoint(4).address, 1, True)!r}]: 1 != absent"),
        (
            lambda agent: agent._participants.update(p4=LEFT_BEHIND),
            f"registry['p4']: {Registration.of(LEFT_BEHIND)!r} != absent",
        ),
    ],
    ids=["stale-feedback-row", "orphan-l1-node", "leaked-registration"],
)
def test_state_diff_names_the_key(mutate, named):
    agent = _box(1, 2, 3)
    mutate(agent)
    assert state_diff(agent.state(), _box(1, 2, 3).state()) == named
