"""The Scallop switch agent: the on-switch software control plane (paper §4, §5).

The agent runs on the switch CPU.  It never touches media on the forwarding
path; it only receives *copies* of control packets from the data plane,
analyzes them, and reconfigures the data plane when needed.  Its jobs are:

* answering STUN connectivity checks,
* analyzing extended AV1 dependency descriptors (key frames) to learn the SVC
  template structure of each video stream,
* running the REMB filter function (best-downlink selection, Figure 8) and
  installing the corresponding feedback-forwarding rules,
* running ``selectDecodeTarget`` per (sender, receiver) and installing/updating
  rate-adaptation entries (allowed template ids + sequence-rewrite state), and
* installing meetings into the replication engine and moving them between
  replication designs as their rate-adaptation needs change.

Membership reaches the data plane only through
:meth:`SwitchAgent.configure_meeting`: a join, a leave (an empty population
removes the meeting) and a trunk change are each one configure, which picks
the meeting's design (:meth:`SwitchAgent._design_for`) and hands it to
:meth:`~repro.core.replication.ReplicationManager.sync_meeting`.  The design
is picked again when a new rate-adaptation entry is installed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Sized, Tuple

from ..dataplane.pipeline import BoxState, ScallopPipeline, box_state
from ..netsim.datagram import Address, Datagram, PayloadKind
from ..rtp.av1 import DecodeTarget, TemplateStructure, extract_dependency_descriptor
from ..rtp.packet import RtpPacket
from ..rtp.wire import PacketView
from ..rtp.rtcp import Nack, PictureLossIndication, ReceiverReport, Remb, RtcpPacket, SenderReport
from ..stun.message import StunMessage, make_binding_response
from .capacity import ReplicationDesign, RewriteVariant
from .rate_control import DecodeTargetTracker, DownlinkFilter, SelectDecodeTargetFn, select_decode_target
from .replication import (
    ParticipantEndpoint,
    ReplicationManager,
    population_delta,
    same_endpoint,
    write_feedback_rows,
)
from .seqrewrite import (
    SequenceRewriterLowMemory,
    SequenceRewriterLowRetransmission,
    SkipCadence,
)

#: Software processing delay of the switch CPU per punted packet.
AGENT_PROCESSING_DELAY_S = 0.0008
#: Period of the best-downlink reselection (the filter function f).
FILTER_RESELECT_INTERVAL_S = 0.5


@dataclass
class AgentCounters:
    """Workload counters for the switch agent (Figure 22, Table 1)."""

    packets_processed: int = 0
    bytes_processed: int = 0
    stun_handled: int = 0
    remb_handled: int = 0
    nack_pli_handled: int = 0
    extended_descriptors_handled: int = 0
    rule_updates: int = 0
    decode_target_changes: int = 0
    migrations: int = 0


#: The structure a sender is assumed to use until its first key frame is
#: analysed (``TemplateStructure`` is frozen, so every state shares it).
_DEFAULT_STRUCTURE = TemplateStructure.l1t3()


@dataclass
class _ParticipantState:
    endpoint: ParticipantEndpoint
    meeting_id: str
    structure: TemplateStructure = _DEFAULT_STRUCTURE
    #: Sender registered by the trunk manager: media arrives over an inter-SFU
    #: trunk, so this box must never install REMB-forwarding rules toward the
    #: sender's true client address (the origin SFU runs the filter function
    #: for it; this box only does local egress adaptation).
    remote: bool = False


class SwitchAgent:
    """The control program running on the switch CPU."""

    def __init__(
        self,
        pipeline: ScallopPipeline,
        send_fn: Optional[Callable[[Datagram], None]] = None,
        rewrite_variant: RewriteVariant = RewriteVariant.S_LR,
        select_fn: SelectDecodeTargetFn = select_decode_target,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.pipeline = pipeline
        self.replication = ReplicationManager(pipeline)
        self.downlink_filter = DownlinkFilter()
        self.decode_targets = DecodeTargetTracker(select_fn=select_fn)
        self.rewrite_variant = rewrite_variant
        self.counters = AgentCounters()
        self._send = send_fn or (lambda datagram: None)
        self._clock = clock or (lambda: 0.0)

        self._participants: Dict[str, _ParticipantState] = {}
        self._participant_by_address: Dict[Address, str] = {}
        self._participant_by_ssrc: Dict[int, str] = {}
        #: installed adaptation entry (sender ssrc, receiver) -> the sender's meeting
        self._adaptation_installed: Dict[Tuple[int, Address], str] = {}
        #: meeting -> how many of those entries adapt its senders (:meth:`_design_for`)
        self._adapted_meetings: Dict[str, int] = {}

    # ------------------------------------------------------------------ meeting management

    def configure_meeting(self, meeting_id: str, participants: Sequence[ParticipantEndpoint]) -> None:
        """Bring a meeting's replication state and feedback rules to ``participants``.

        An op writes only its change, and a call that changes nothing writes
        nothing: it returns before opening a write batch when
        :meth:`_unchanged` holds.  Otherwise departed participants (and
        members whose endpoint changed,
        :func:`~repro.core.replication.population_delta` from the replication
        manager's record of the meeting) release their
        adaptation entries, feedback rules, placements, downlink-filter and
        decode-target state and registration; newcomers are registered, and only their feedback rows — as a
        receiver of every other sender and as a sender toward every other
        receiver — are written; the ones who stay keep their registration,
        learned SVC structure included.  The replication manager patches the
        meeting's trees under the design :meth:`_design_for` picks
        (:meth:`~repro.core.replication.ReplicationManager.sync_meeting`).  An
        empty ``participants`` removes the meeting.  The writes run inside
        :meth:`~repro.dataplane.pipeline.PipelineControlPlane.batched_writes`,
        so each write generation bumps once per call.
        """
        if self._unchanged(meeting_id, participants):
            return
        installed = self.replication.meetings.get(meeting_id)
        with self.pipeline.batched_writes():
            arriving, leaving = population_delta(installed.participants if installed is not None else {}, participants)
            for participant in leaving:
                self._release_participant(meeting_id, participant.participant_id)
            if participants:
                self._sync(meeting_id, participants)
            else:
                self.replication.remove_meeting(meeting_id)
            for participant in arriving:
                self._register_participant(meeting_id, participant)
            self._install_feedback_rules(meeting_id, arriving)
        self.counters.rule_updates += 1

    def _unchanged(self, meeting_id: str, participants: Sequence[ParticipantEndpoint]) -> bool:
        """Whether configuring ``participants`` would write nothing: the
        installed population is the same objects in the same order, its
        design is the one :meth:`_design_for` picks, and its stream entries
        stamp the current partner XID."""
        state = self.replication.meetings.get(meeting_id)
        if state is None:
            return not participants
        installed = state.participants.values()
        if len(installed) != len(participants) or any(
            mine is not theirs for mine, theirs in zip(installed, participants)
        ):
            return False
        return state.design == self._design_for(meeting_id, participants) and self.replication.xid_current(state)

    def _design_for(self, meeting_id: str, participants: Sized) -> ReplicationDesign:
        """TWO_PARTY for two endpoints; for three or more, RA-R once an
        adaptation entry for one of the meeting's senders is installed here,
        NRA otherwise."""
        if len(participants) == 2:
            return ReplicationDesign.TWO_PARTY
        if len(participants) > 2 and self._adapted_meetings.get(meeting_id):
            return ReplicationDesign.RA_R
        return ReplicationDesign.NRA

    def _sync(self, meeting_id: str, participants: Sequence[ParticipantEndpoint]) -> None:
        design = self._design_for(meeting_id, participants)
        installed = self.replication.meetings.get(meeting_id)
        if installed is not None and installed.design != design:
            self.counters.migrations += 1
        self.replication.sync_meeting(meeting_id, participants, design)

    def _release_participant(self, meeting_id: str, participant_id: str) -> None:
        """Tear down everything a departing participant consumed.

        Beyond the replication state (the leaver's ingress entries and PRE
        nodes, which the sync removes), a leave must release the
        participant's *egress-side* data-plane state: the rate-adaptation
        entries in which they appear as receiver or sender (freeing their
        sequence-rewriter registers and the accountant's stream-state
        charges) and every feedback rule addressed to or about them.  A
        peer SFU's trunk endpoint is keyed per meeting: it releases only the
        rules of this meeting's senders toward the peer, which other
        meetings cascaded to the same peer keep.
        """
        endpoint = self._participants[participant_id].endpoint
        if endpoint.trunk:
            for sender in self.replication.meetings[meeting_id].participants.values():
                for _kind, ssrc in sender.media_ssrcs():
                    self.pipeline.remove_feedback_rule(endpoint.address, ssrc)
        else:
            self._teardown_participant_state(endpoint)
        self._forget_participant(participant_id)
        self.downlink_filter.forget_receiver(participant_id)
        self.downlink_filter.forget_sender(participant_id)
        self.decode_targets.forget(participant_id)

    def _teardown_participant_state(self, endpoint: ParticipantEndpoint) -> None:
        """Release the adaptation entries, feedback rules and placements
        involving a leaver.  The feedback rules and placements are found
        through the control plane's per-address and per-SSRC indexes, not a
        table scan."""
        address = endpoint.address
        ssrcs = [ssrc for _kind, ssrc in endpoint.media_ssrcs()]
        for key in [
            k for k in self._adaptation_installed if k[1] == address or k[0] in ssrcs
        ]:
            self.pipeline.remove_adaptation(key[0], key[1])
            meeting_id = self._adaptation_installed.pop(key)
            self._adapted_meetings[meeting_id] -= 1
            if not self._adapted_meetings[meeting_id]:
                del self._adapted_meetings[meeting_id]
        for receiver, media_ssrc in self.pipeline.feedback_rules_for(address, ssrcs):
            self.pipeline.remove_feedback_rule(receiver, media_ssrc)
        # shard-placement state of the departed flows: pins in the placement
        # exception table and (on a rebalancing engine) load-tracker rows
        forget_endpoint = getattr(self.pipeline, "forget_endpoint", None)
        if forget_endpoint is not None:
            forget_endpoint(address)
        else:
            self.pipeline.control.remove_placements_for(address)

    def meeting_design(self, meeting_id: str) -> Optional[ReplicationDesign]:
        state = self.replication.meetings.get(meeting_id)
        return None if state is None else state.design

    def _register_participant(self, meeting_id: str, participant: ParticipantEndpoint) -> None:
        pid = participant.participant_id
        if pid in self._participants:
            self._forget_participant(pid)
        self._participants[pid] = _ParticipantState(endpoint=participant, meeting_id=meeting_id)
        if not participant.trunk:  # REMB, the one punt resolved by address, never crosses a trunk
            self._participant_by_address[participant.address] = pid
        for _kind, ssrc in participant.media_ssrcs():
            self._participant_by_ssrc[ssrc] = pid

    def _forget_participant(self, participant_id: str) -> None:
        state = self._participants.pop(participant_id, None)
        if state is None:
            return
        if self._participant_by_address.get(state.endpoint.address) == participant_id:
            del self._participant_by_address[state.endpoint.address]
        for _kind, ssrc in state.endpoint.media_ssrcs():
            self._participant_by_ssrc.pop(ssrc, None)

    def _install_feedback_rules(self, meeting_id: str, arriving: Sequence[ParticipantEndpoint]) -> None:
        """Install NACK/PLI forwarding for the (receiver, sender-ssrc) pairs
        an arriving participant is part of: its rows as a receiver of every
        other sender, and as a sender toward every other receiver."""
        meeting = self.replication.meetings.get(meeting_id)
        if meeting is None or not arriving:
            return
        participants = meeting.participants.values()
        newcomers = {participant.participant_id for participant in arriving}
        for sender in participants:
            ssrcs = [ssrc for _kind, ssrc in sender.media_ssrcs()]
            if not ssrcs:
                continue
            sender_arrives = sender.participant_id in newcomers
            receivers = [
                receiver
                for receiver in participants
                if receiver.participant_id != sender.participant_id
                and (sender_arrives or receiver.participant_id in newcomers)
            ]
            selected = self.downlink_filter.selected_receiver(sender.participant_id)
            write_feedback_rows(self.pipeline, ssrcs, sender.address, receivers, remb_to=selected)

    # ------------------------------------------------------------------ cluster federation

    def register_remote_sender(self, meeting_id: str, endpoint: ParticipantEndpoint) -> None:
        """Register a sender whose media arrives over an inter-SFU trunk.

        The endpoint carries the sender's *true* client address (so a later
        migration that terminates the client locally reuses the same
        identity) but the sender is deliberately not entered in the
        address index: trunk media arrives from the peer SFU's address, and
        only SSRC resolution (REMB processing, extended-descriptor punts)
        needs to see remote senders.  No replication or feedback state is
        touched — the trunk manager owns the ingress routes.  Re-registering
        an unchanged remote sender keeps its learned SVC structure.
        """
        state = self._participants.get(endpoint.participant_id)
        if state is not None and state.remote and state.meeting_id == meeting_id and same_endpoint(state.endpoint, endpoint):
            return
        self._participants[endpoint.participant_id] = _ParticipantState(
            endpoint=endpoint, meeting_id=meeting_id, remote=True
        )
        for _kind, ssrc in endpoint.media_ssrcs():
            self._participant_by_ssrc[ssrc] = endpoint.participant_id

    def forget_remote_sender(self, participant_id: str) -> None:
        """Drop a :meth:`register_remote_sender` registration (SSRC index and
        participant record only; adaptation state toward local receivers is
        torn down separately by the trunk manager when a remote sender truly
        leaves, and is deliberately preserved across trunk re-syncs)."""
        state = self._participants.get(participant_id)
        if state is None or not state.remote:
            # never touch a local registration: a migrated-in participant
            # re-registers the same id as local before any lingering trunk
            # teardown fires
            return
        del self._participants[participant_id]
        for _kind, ssrc in state.endpoint.media_ssrcs():
            if self._participant_by_ssrc.get(ssrc) == participant_id:
                del self._participant_by_ssrc[ssrc]

    def adopt_adaptation(
        self, meeting_id: str, sender_ssrc: int, receiver: Address, allowed_templates, rewriter
    ) -> None:
        """Install a migrated-in adaptation entry with its shipped rewriter.

        Marks the (ssrc, receiver) pair installed so the next REMB-driven
        decode-target change goes through ``update_adaptation_templates``
        (template swap, rewriter state preserved) instead of installing a
        fresh rewriter — resetting the register image we just shipped would
        break the sequence-continuity guarantee of the migration.
        """
        self.pipeline.install_adaptation(sender_ssrc, receiver, allowed_templates, rewriter)
        self._note_adaptation((sender_ssrc, receiver), meeting_id)

    def _note_adaptation(self, key: Tuple[int, Address], meeting_id: str) -> None:
        self._adaptation_installed[key] = meeting_id
        self._adapted_meetings[meeting_id] = self._adapted_meetings.get(meeting_id, 0) + 1

    def sender_structure(self, participant_id: str) -> Optional[TemplateStructure]:
        """The learned SVC template structure of a sender (``None`` if the
        participant is unknown here)."""
        state = self._participants.get(participant_id)
        return None if state is None else state.structure

    def adopt_sender_structure(self, participant_id: str, structure: TemplateStructure) -> None:
        """Adopt a migrated-in sender's learned SVC structure, so decode-target
        template resolution does not regress to the l1t3 default until the
        next key frame is punted."""
        state = self._participants.get(participant_id)
        if state is not None:
            state.structure = structure

    # ------------------------------------------------------------------ CPU packet handling

    def handle_cpu_packet(self, datagram: Datagram) -> None:
        """Process one packet copy punted by the data plane."""
        self.counters.packets_processed += 1
        self.counters.bytes_processed += datagram.size

        if datagram.kind == PayloadKind.STUN and isinstance(datagram.payload, StunMessage):
            self._handle_stun(datagram)
        elif datagram.kind == PayloadKind.RTCP:
            for packet in datagram.payload:  # type: ignore[union-attr]
                self._handle_rtcp(datagram.src, packet)
        elif datagram.kind == PayloadKind.RTP and isinstance(datagram.payload, (RtpPacket, PacketView)):
            payload = datagram.payload
            try:
                # a wire-native copy is decoded here, once: the agent is
                # software, which is precisely the paper's split
                packet = payload if isinstance(payload, RtpPacket) else payload.to_packet()
                self._handle_extended_descriptor(datagram.src, packet)
            except ValueError:
                # a damaged packet the data plane punted (counted above): no
                # descriptor to analyse
                return

    def _handle_stun(self, datagram: Datagram) -> None:
        message: StunMessage = datagram.payload  # type: ignore[assignment]
        self.counters.stun_handled += 1
        if not message.is_request:
            return
        response = make_binding_response(message, datagram.src.ip, datagram.src.port)
        self._send(Datagram(src=datagram.dst, dst=datagram.src, payload=response))

    def _handle_extended_descriptor(self, src: Address, packet: RtpPacket) -> None:
        """SVC analysis of key frames carrying an extended dependency descriptor."""
        descriptor = extract_dependency_descriptor(packet.extension)
        if descriptor is None or descriptor.structure is None:
            return
        self.counters.extended_descriptors_handled += 1
        participant_id = self._participant_by_ssrc.get(packet.ssrc)
        if participant_id is not None and participant_id in self._participants:
            self._participants[participant_id].structure = descriptor.structure

    def _handle_rtcp(self, src: Address, packet: RtcpPacket) -> None:
        if isinstance(packet, Remb):
            self.counters.remb_handled += 1
            for media_ssrc in packet.media_ssrcs:
                self._process_estimate(src, media_ssrc, packet.bitrate_bps)
        elif isinstance(packet, ReceiverReport):
            # RR loss/jitter statistics could feed richer policies; the default
            # policy only uses REMB, so RRs are just counted.
            pass
        elif isinstance(packet, (Nack, PictureLossIndication)):
            self.counters.nack_pli_handled += 1

    # ------------------------------------------------------------------ rate adaptation

    def _process_estimate(self, receiver_addr: Address, media_ssrc: int, estimate_bps: float) -> None:
        receiver_id = self._participant_by_address.get(receiver_addr)
        sender_id = self._participant_by_ssrc.get(media_ssrc)
        if receiver_id is None or sender_id is None or receiver_id == sender_id:
            return
        now = self._clock()
        self.downlink_filter.observe(sender_id, receiver_id, estimate_bps, now)
        target, changed = self.decode_targets.update(sender_id, receiver_id, estimate_bps)
        if changed:
            self.counters.decode_target_changes += 1
            self._apply_decode_target(sender_id, receiver_id, target)

    def _apply_decode_target(self, sender_id: str, receiver_id: str, target: DecodeTarget) -> None:
        sender_state = self._participants.get(sender_id)
        receiver_state = self._participants.get(receiver_id)
        if sender_state is None or receiver_state is None:
            return
        video_ssrc = sender_state.endpoint.video_ssrc
        if video_ssrc is None:
            return
        allowed = frozenset(sender_state.structure.templates_for_decode_target(int(target)))
        key = (video_ssrc, receiver_state.endpoint.address)
        if key in self._adaptation_installed:
            self.pipeline.update_adaptation_templates(video_ssrc, receiver_state.endpoint.address, allowed)
        else:
            rewriter = self._make_rewriter(target)
            self.pipeline.install_adaptation(
                video_ssrc, receiver_state.endpoint.address, allowed, rewriter
            )
            meeting_id = sender_state.meeting_id
            self._note_adaptation(key, meeting_id)
            meeting = self.replication.meetings.get(meeting_id)
            if meeting is not None and meeting.design != self._design_for(meeting_id, meeting.participants):
                with self.pipeline.batched_writes():
                    self._sync(meeting_id, list(meeting.participants.values()))
        self.counters.rule_updates += 1

    def _make_rewriter(self, target: DecodeTarget):
        cadence = SkipCadence.for_decode_target(int(target))
        if self.rewrite_variant == RewriteVariant.S_LM:
            return SequenceRewriterLowMemory(cadence)
        return SequenceRewriterLowRetransmission(cadence)

    # ------------------------------------------------------------------ periodic work

    def run_filter_function(self) -> int:
        """Reselect the best downlink per sender; returns rule updates made.

        Called periodically (every :data:`FILTER_RESELECT_INTERVAL_S`) by the
        SFU wrapper, mirroring the periodic EWMA maximum selection of §5.3.
        """
        updates = 0
        with self.pipeline.batched_writes():
            for sender_id, state in list(self._participants.items()):
                if state.remote:
                    # trunked-in sender: the origin SFU selects its best
                    # downlink; installing rules here would point feedback at
                    # the remote client address, bypassing the trunk
                    continue
                best, changed = self.downlink_filter.reselect(sender_id)
                if best is None or not changed:
                    continue
                meeting = self.replication.meetings.get(state.meeting_id)
                if meeting is None:
                    continue
                receivers = [r for r in meeting.participants.values() if r.participant_id != sender_id]
                ssrcs = [ssrc for _kind, ssrc in state.endpoint.media_ssrcs()]
                updates += write_feedback_rows(self.pipeline, ssrcs, state.endpoint.address, receivers, remb_to=best)
        if updates:
            self.counters.rule_updates += updates
        return updates

    # ------------------------------------------------------------------ inspection helpers

    def state(self) -> BoxState:
        """The box's state: the control plane's
        :meth:`~repro.dataplane.pipeline.PipelineControlPlane.state`, the
        registry and its indexes, the adaptation bookkeeping, the keys of the
        downlink-filter and decode-target state and the replicated meetings."""
        return self.pipeline.control.state() | box_state(
            {
                "registry": {pid: Registration.of(p) for pid, p in self._participants.items()},
                "by_address": self._participant_by_address,
                "by_ssrc": self._participant_by_ssrc,
                "adaptation_meeting": self._adaptation_installed,
                "adapted_meetings": self._adapted_meetings,
                "filter": dict.fromkeys(self.downlink_filter._state, True),
                "filter_selected": self.downlink_filter._selected,
                "decode_target": dict.fromkeys(self.decode_targets._targets, True),
                "meeting": {
                    meeting_id: (m.design, tuple(m.participants), tuple(t.layer for t in m.trees))
                    for meeting_id, m in self.replication.meetings.items()
                },
            }
        )

    def decode_target_for(self, sender_id: str, receiver_id: str) -> DecodeTarget:
        return self.decode_targets.current(sender_id, receiver_id)


class Registration(NamedTuple):
    """A registry entry of :meth:`SwitchAgent.state`: a registration without
    its egress port (an allocation id)."""

    meeting_id: str
    remote: bool
    address: Address
    #: ``(kind, SSRC)`` of each media stream the participant sends
    media: Tuple[Tuple[str, int], ...]
    trunk: bool
    #: the SVC template structure, as sorted (template, layer) and
    #: (decode target, layers) pairs
    structure: tuple

    @classmethod
    def of(cls, p: _ParticipantState) -> "Registration":
        e, s = p.endpoint, p.structure
        layers = tuple(sorted(s.template_to_layer.items()))
        structure = layers, tuple(sorted(s.decode_target_layers.items()))
        return cls(p.meeting_id, p.remote, e.address, tuple(e.media_ssrcs()), e.trunk, structure)
