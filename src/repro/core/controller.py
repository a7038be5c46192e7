"""The Scallop centralized controller (paper §4, §5.1).

The controller is the top tier of the three-plane architecture.  It acts as
the WebRTC signaling server: it terminates SDP offer/answer exchanges, rewrites
connection candidates so that every participant's sole peer appears to be the
SFU, tracks sessions/participants/streams, and instructs the switch agent to
(re)configure the data plane whenever membership or media composition changes
— the only three events that ever reach the controller (session creation,
join/leave, media start/stop).

The controller is deliberately unaware of packets; it exchanges
:class:`~repro.signaling.messages.SignalMessage` objects with clients and RPCs
(direct method calls in this in-process model) with the switch agent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..netsim.datagram import Address
from ..signaling.messages import SignalMessage, SignalType, answer_message
from ..signaling.sdp import SessionDescription, make_answer
from .replication import ParticipantEndpoint
from .switch_agent import SwitchAgent


class SignalingError(RuntimeError):
    """Raised for invalid signaling sequences (join to unknown meeting, etc.)."""


@dataclass
class ParticipantRecord:
    """Controller-side state about one participant.

    Its :class:`~repro.core.replication.ParticipantEndpoint` is built once,
    at sign-in: every later configure hands the agent the same object, which
    is how the agent sees that a participant did not change.
    """

    participant_id: str
    meeting_id: str
    address: Address
    audio_ssrc: Optional[int] = None
    video_ssrc: Optional[int] = None
    screen_ssrc: Optional[int] = None
    offer: Optional[SessionDescription] = None
    endpoint: ParticipantEndpoint = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.endpoint = ParticipantEndpoint(
            participant_id=self.participant_id,
            address=self.address,
            egress_port=0,  # assigned by the replication manager
            audio_ssrc=self.audio_ssrc,
            video_ssrc=self.video_ssrc,
        )


@dataclass
class MeetingRecord:
    """Controller-side state about one meeting (session)."""

    meeting_id: str
    participants: Dict[str, ParticipantRecord] = field(default_factory=dict)
    created_at: float = 0.0

    @property
    def size(self) -> int:
        return len(self.participants)


@dataclass
class ControllerCounters:
    """Signaling workload counters (all in the infrequent class of Fig. 6)."""

    joins: int = 0
    leaves: int = 0
    media_events: int = 0
    sdp_rewrites: int = 0
    meetings_created: int = 0
    meetings_closed: int = 0


class ScallopController:
    """The centralized controller / signaling server."""

    def __init__(self, sfu_address: Address, agent: SwitchAgent) -> None:
        self.sfu_address = sfu_address
        self.agent = agent
        self.meetings: Dict[str, MeetingRecord] = {}
        self.counters = ControllerCounters()
        #: meeting -> the peer-SFU trunk endpoints this box configures beside
        #: its local participants (kept by ``repro.cluster``)
        self.trunk_endpoints: Dict[str, List[ParticipantEndpoint]] = {}

    # ------------------------------------------------------------------ signaling entry point

    def handle_signal(self, message: SignalMessage) -> Optional[SignalMessage]:
        """Process one signaling message and return the reply, if any."""
        if message.type == SignalType.JOIN:
            return self._handle_join(message)
        if message.type == SignalType.LEAVE:
            self._handle_leave(message)
            return None
        if message.type in (SignalType.MEDIA_STARTED, SignalType.MEDIA_STOPPED):
            self._handle_media_event(message)
            return None
        raise SignalingError(f"controller cannot handle message type {message.type}")

    # ------------------------------------------------------------------ join / leave

    def _handle_join(self, message: SignalMessage) -> SignalMessage:
        offer = message.session_description()
        if offer is None:
            raise SignalingError("join message must carry an SDP offer")
        meeting = self.meetings.get(message.meeting_id)
        if meeting is None:
            meeting = MeetingRecord(meeting_id=message.meeting_id)
            self.meetings[message.meeting_id] = meeting
            self.counters.meetings_created += 1

        ssrcs = {section.kind: section.ssrc for section in offer.media}
        meeting.participants[message.participant_id] = ParticipantRecord(
            participant_id=message.participant_id,
            meeting_id=message.meeting_id,
            address=self._address_from_offer(offer),
            audio_ssrc=ssrcs.get("audio"),
            video_ssrc=ssrcs.get("video"),
            screen_ssrc=ssrcs.get("screen"),
            offer=offer,
        )
        self.counters.joins += 1

        self.reconfigure_meeting(message.meeting_id)

        # Rewrite candidates: the participant's sole peer becomes the SFU.
        answer = make_answer(offer, self.sfu_address.ip, self.sfu_address.port)
        self.counters.sdp_rewrites += 1
        return answer_message(message.meeting_id, message.participant_id, answer)

    def _handle_leave(self, message: SignalMessage) -> None:
        meeting = self.meetings.get(message.meeting_id)
        if meeting is None:
            return
        if message.participant_id in meeting.participants:
            del meeting.participants[message.participant_id]
            self.counters.leaves += 1
        if not meeting.participants:
            del self.meetings[message.meeting_id]
            self.counters.meetings_closed += 1
        self.reconfigure_meeting(message.meeting_id)

    def _handle_media_event(self, message: SignalMessage) -> None:
        meeting = self.meetings.get(message.meeting_id)
        if meeting is None or message.participant_id not in meeting.participants:
            raise SignalingError("media event for unknown meeting or participant")
        self.counters.media_events += 1
        # Media composition changes alter the set of sender streams, which is a
        # controller-triggered reconfiguration in Scallop's architecture.
        self.reconfigure_meeting(message.meeting_id)

    # ------------------------------------------------------------------ agent RPCs

    def reconfigure_meeting(self, meeting_id: str) -> None:
        """One ``configure_meeting`` with the local participants and the
        meeting's trunk endpoints; the agent picks the design.  A closed
        meeting is configured empty, which removes it from the data plane."""
        meeting = self.meetings.get(meeting_id)
        endpoints: List[ParticipantEndpoint] = []
        if meeting is not None:
            endpoints = [record.endpoint for record in meeting.participants.values()]
            endpoints += self.trunk_endpoints.get(meeting_id, [])
        self.agent.configure_meeting(meeting_id, endpoints)

    # ------------------------------------------------------------------ helpers / inspection

    @staticmethod
    def _address_from_offer(offer: SessionDescription) -> Address:
        for section in offer.media:
            for candidate in section.candidates:
                return Address(candidate.ip, candidate.port)
        return Address(offer.origin_address, 0)

    def meeting_sizes(self) -> Dict[str, int]:
        return {meeting_id: meeting.size for meeting_id, meeting in self.meetings.items()}

    def total_participants(self) -> int:
        return sum(meeting.size for meeting in self.meetings.values())
