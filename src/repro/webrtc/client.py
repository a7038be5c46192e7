"""A simulated WebRTC participant (browser client).

Each :class:`WebRtcClient` is a network endpoint that

* captures and sends media (AV1 L1T3 video via :class:`~repro.webrtc.encoder.SvcEncoder`
  plus an Opus-like audio stream),
* receives media, reassembles frames, measures jitter/frame rate, and emits
  NACK/PLI feedback,
* runs receiver-side GCC and reports REMB periodically,
* answers and issues STUN connectivity checks, and
* periodically emits RTCP sender reports and receiver reports.

From the client's point of view its *only* peer is the SFU (Scallop inserts
itself via SDP candidate rewriting); everything the client does here is plain
WebRTC behaviour with no SFU-specific logic.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..netsim.datagram import Address, Datagram, PayloadKind
from ..netsim.link import Network
from ..netsim.simulator import Simulator
from ..rtp.packet import PT_AUDIO_OPUS, PT_VIDEO_AV1, RtpPacket
from ..rtp.wire import PacketView
from ..rtp.rtcp import (
    Nack,
    PictureLossIndication,
    ReceiverReport,
    Remb,
    ReportBlock,
    RtcpPacket,
    SenderReport,
    SourceDescription,
)
from ..signaling.sdp import SessionDescription, make_offer
from ..stun.message import StunMessage, make_binding_request, make_binding_response
from .decoder import AudioReceiveStream, VideoReceiveStream
from .encoder import AudioSource, RtpPacketizer, SvcEncoder, VIDEO_CLOCK_RATE
from .gcc import RemoteBitrateEstimator
from .stats import InboundAudioStats, InboundVideoStats, OutboundStats, StatsReport, snapshot_audio, snapshot_video

SENDER_REPORT_INTERVAL_S = 0.35
RECEIVER_REPORT_INTERVAL_S = 0.22
STUN_INTERVAL_S = 1.75
NACK_BATCH_DELAY_S = 0.02
RTX_HISTORY_SIZE = 1024


@dataclass
class ClientConfig:
    """Configuration for a simulated participant."""

    participant_id: str
    meeting_id: str
    address: Address
    remote: Address
    send_audio: bool = True
    send_video: bool = True
    video_bitrate_bps: float = 2_200_000.0
    frame_rate: float = 30.0
    seed: int = 0
    #: Send each video frame's packets as one network burst instead of
    #: back-to-back individual sends.  Bursts stay coalesced across the
    #: simulated network, so a batch-capable SFU processes the frame through
    #: its batch pipeline (see :meth:`repro.netsim.link.Network.send_burst`).
    send_frames_as_bursts: bool = False
    #: Emit RTP wire-natively: each outgoing packet is encoded **once** into
    #: a packed :class:`~repro.rtp.wire.PacketView` buffer at send time, the
    #: SFU forwards/rewrites the buffer without ever materializing an
    #: ``RtpPacket``, and the receiving client decodes **once** on arrival.
    #: Observable behaviour (timings, sizes, decoded media) is identical to
    #: the object representation; only the per-hop re-modelling cost is gone.
    wire_native: bool = False


class WebRtcClient:
    """A simulated WebRTC participant attached to a :class:`Network`."""

    def __init__(self, config: ClientConfig, simulator: Simulator, network: Network) -> None:
        self.config = config
        self.simulator = simulator
        self.network = network
        self.address = config.address
        self.remote = config.remote
        self._rng = random.Random(config.seed)

        ssrc_base = 0x10_0000 + (self._rng.getrandbits(16) << 4)
        self.audio_ssrc = ssrc_base
        self.video_ssrc = ssrc_base + 1

        # senders
        self.encoder = SvcEncoder(
            target_bitrate_bps=config.video_bitrate_bps,
            frame_rate=config.frame_rate,
            seed=config.seed,
        )
        self.packetizer = RtpPacketizer(ssrc=self.video_ssrc, seed=config.seed)
        self.audio_source = AudioSource(ssrc=self.audio_ssrc, seed=config.seed)
        self._rtx_history: "OrderedDict[int, RtpPacket]" = OrderedDict()
        self.video_frames_sent = 0
        self.nacks_received = 0
        self.plis_received = 0
        self.retransmissions_sent = 0

        # receivers (keyed by remote SSRC)
        self.video_receivers: Dict[int, VideoReceiveStream] = {}
        self.audio_receivers: Dict[int, AudioReceiveStream] = {}
        self.estimators: Dict[int, RemoteBitrateEstimator] = {}
        self._pending_nacks: Dict[int, List[int]] = {}

        # counters
        self.packets_sent = 0
        self.bytes_sent = 0
        self.rtt_samples_ms: List[float] = []
        #: One-way sender-to-receiver latency of every received media packet,
        #: in milliseconds (includes the SFU's forwarding delay).
        self.rtp_latency_samples_ms: List[float] = []
        self._stun_pending: Dict[bytes, float] = {}

        self._running = False
        self._detached = False
        self.send_frame_rate_series: List[Tuple[float, float]] = []
        self._frames_this_second = 0
        self._fps_bucket_start = 0.0

    # ------------------------------------------------------------------ signaling

    def create_offer(self) -> SessionDescription:
        """Build the SDP offer this client would post to the signaling server."""
        return make_offer(
            session_id=self.config.participant_id,
            address=self.address.ip,
            port=self.address.port,
            ssrc_base=self.audio_ssrc,
            send_audio=self.config.send_audio,
            send_video=self.config.send_video,
        )

    def apply_answer(self, answer: SessionDescription) -> None:
        """Apply the SFU's answer: point media at the (rewritten) candidate."""
        for section in answer.media:
            for candidate in section.candidates:
                self.remote = Address(candidate.ip, candidate.port)
                return

    # ------------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Begin producing media and feedback."""
        if self._running:
            return
        self._running = True
        self._fps_bucket_start = self.simulator.now
        if self.config.send_video:
            self.simulator.schedule(self.encoder.frame_interval, self._video_tick)
        if self.config.send_audio:
            self.simulator.schedule(self.audio_source.frame_interval, self._audio_tick)
        if self.config.send_audio or self.config.send_video:
            self.simulator.schedule(self._jittered(SENDER_REPORT_INTERVAL_S), self._sender_report_tick)
        self.simulator.schedule(self._jittered(RECEIVER_REPORT_INTERVAL_S), self._receiver_report_tick)
        self.simulator.schedule(self._jittered(STUN_INTERVAL_S), self._stun_tick)

    def stop(self) -> None:
        """Stop producing media (periodic events become no-ops)."""
        self._running = False

    def detach(self) -> None:
        """Leave the call: stop producing media and release the endpoint.

        Used by participant-leave churn: after the signaling teardown the
        browser closes its transport, so the endpoint disappears from the
        network (its address may be reused by a later joiner).  Already-
        scheduled periodic events and deferred NACK flushes become no-ops —
        a detached client must never send into the network again.
        """
        self.stop()
        self._detached = True
        if self.network.endpoint(self.address) is self:
            self.network.detach(self.address)

    def _jittered(self, interval: float) -> float:
        return interval * self._rng.uniform(0.8, 1.2)

    # ------------------------------------------------------------------ media send

    def _video_tick(self) -> None:
        if not self._running:
            return
        now = self.simulator.now
        frame = self.encoder.next_frame(now)
        packets = self.packetizer.packetize(frame)
        if self.config.send_frames_as_bursts:
            for packet in packets:
                self._remember_for_rtx(packet)
            self._send_rtp_burst(packets)
        else:
            for packet in packets:
                self._remember_for_rtx(packet)
                self._send_rtp(packet)
        self.video_frames_sent += 1
        self._account_sent_frame(now)
        self.simulator.schedule(self.encoder.frame_interval, self._video_tick)

    def _account_sent_frame(self, now: float) -> None:
        self._frames_this_second += 1
        if now - self._fps_bucket_start >= 1.0:
            self.send_frame_rate_series.append((now, self._frames_this_second / (now - self._fps_bucket_start)))
            self._frames_this_second = 0
            self._fps_bucket_start = now

    def _audio_tick(self) -> None:
        if not self._running:
            return
        packet = self.audio_source.next_packet(self.simulator.now)
        self._send_rtp(packet)
        self.simulator.schedule(self.audio_source.frame_interval, self._audio_tick)

    def _remember_for_rtx(self, packet: RtpPacket) -> None:
        self._rtx_history[packet.sequence_number] = packet
        while len(self._rtx_history) > RTX_HISTORY_SIZE:
            self._rtx_history.popitem(last=False)

    def _make_rtp_datagram(self, packet: RtpPacket) -> Datagram:
        config = self.config
        if config.wire_native:
            # wire-native mode: serialize once here; every later hop (links,
            # SFU ingress/egress, receiver) works on the packed buffer
            payload = PacketView.from_packet(packet)
        else:
            payload = packet
        datagram = Datagram(
            src=self.address,
            dst=self.remote,
            payload=payload,
            size=payload.size,
            kind=PayloadKind.RTP,
            meta={"tx_time": self.simulator.now},
        )
        self.packets_sent += 1
        self.bytes_sent += datagram.size
        return datagram

    def _send_rtp(self, packet: RtpPacket) -> None:
        if self._detached:
            return
        self.network.send(self._make_rtp_datagram(packet))

    def _send_rtp_burst(self, packets: List[RtpPacket]) -> None:
        if not packets or self._detached:
            return
        self.network.send_burst([self._make_rtp_datagram(packet) for packet in packets])

    def _send_rtcp(self, packets: List[RtcpPacket]) -> None:
        if not packets or self._detached:
            return
        datagram = Datagram(src=self.address, dst=self.remote, payload=tuple(packets), kind=PayloadKind.RTCP)
        self.packets_sent += 1
        self.bytes_sent += datagram.size
        self.network.send(datagram)

    # ------------------------------------------------------------------ RTCP

    def _sender_report_tick(self) -> None:
        if not self._running:
            return
        reports: List[RtcpPacket] = []
        now = self.simulator.now
        if self.config.send_video:
            reports.append(
                SenderReport(
                    sender_ssrc=self.video_ssrc,
                    ntp_timestamp=int(now * (1 << 32)),
                    rtp_timestamp=int(now * VIDEO_CLOCK_RATE),
                    packet_count=self.packetizer.packets_produced,
                    octet_count=self.packetizer.bytes_produced,
                )
            )
        if self.config.send_audio:
            reports.append(
                SenderReport(
                    sender_ssrc=self.audio_ssrc,
                    ntp_timestamp=int(now * (1 << 32)),
                    rtp_timestamp=int(now * 48_000),
                    packet_count=self.audio_source.packets_produced,
                    octet_count=0,
                )
            )
        if reports:
            reports.append(
                SourceDescription(chunks=tuple((r.sender_ssrc, self.config.participant_id) for r in reports))
            )
            self._send_rtcp(reports)
        self.simulator.schedule(self._jittered(SENDER_REPORT_INTERVAL_S), self._sender_report_tick)

    def _receiver_report_tick(self) -> None:
        if not self._running:
            return
        now = self.simulator.now
        for ssrc, receiver in self.video_receivers.items():
            estimator = self.estimators.get(ssrc)
            if estimator is None:
                continue
            blocks = (
                ReportBlock(
                    ssrc=ssrc,
                    fraction_lost=0,
                    cumulative_lost=len(receiver.missing),
                    highest_sequence=receiver.highest_seq or 0,
                    jitter=receiver.jitter_rtp_units,
                ),
            )
            packets: List[RtcpPacket] = [
                ReceiverReport(sender_ssrc=self.video_ssrc, report_blocks=blocks),
                Remb(
                    sender_ssrc=self.video_ssrc,
                    bitrate_bps=estimator.estimate_bps,
                    media_ssrcs=(ssrc,),
                ),
            ]
            self._send_rtcp(packets)
        self.simulator.schedule(self._jittered(RECEIVER_REPORT_INTERVAL_S), self._receiver_report_tick)

    def _stun_tick(self) -> None:
        if not self._running:
            return
        transaction_id = self._rng.getrandbits(96).to_bytes(12, "big")
        request = make_binding_request(transaction_id, username=self.config.participant_id)
        self._stun_pending[transaction_id] = self.simulator.now
        datagram = Datagram(src=self.address, dst=self.remote, payload=request)
        self.packets_sent += 1
        self.bytes_sent += datagram.size
        self.network.send(datagram)
        self.simulator.schedule(self._jittered(STUN_INTERVAL_S), self._stun_tick)

    # ------------------------------------------------------------------ receive path

    def handle_datagram(self, datagram: Datagram) -> None:
        """Entry point called by the network for every delivered datagram."""
        if datagram.kind == PayloadKind.RTP and isinstance(datagram.payload, RtpPacket):
            self._handle_rtp(datagram.payload, datagram)
        elif datagram.kind == PayloadKind.RTP and isinstance(datagram.payload, PacketView):
            # wire-native delivery: the browser decodes the packet exactly
            # once, here, at the edge of the receive pipeline
            self._handle_rtp(datagram.payload.to_packet(), datagram)
        elif datagram.kind == PayloadKind.RTCP:
            for packet in datagram.payload:  # type: ignore[union-attr]
                self._handle_rtcp(packet)
        elif datagram.kind == PayloadKind.STUN and isinstance(datagram.payload, StunMessage):
            self._handle_stun(datagram.payload, datagram)

    def handle_datagram_batch(self, datagrams: List[Datagram]) -> None:
        """Drain one RX-queue batch (deliver-with-schedule burst mode).

        The client still processes every packet individually — a browser has
        no batch semantics — but receiving the drain as one call keeps the
        burst coalesced end to end.  Per-packet timing is taken from each
        datagram's ``arrived_at`` schedule (see :meth:`_receive_clock`), so
        jitter, latency, and GCC measurements are unaffected by coalescing.
        """
        for datagram in datagrams:
            self.handle_datagram(datagram)

    def _receive_clock(self, datagram: Datagram) -> float:
        """The packet's true arrival time: its burst schedule if it rode a
        coalesced burst, the current event time otherwise."""
        arrived_at = datagram.arrived_at
        return self.simulator.now if arrived_at is None else arrived_at

    def _handle_rtp(self, packet: RtpPacket, datagram: Datagram) -> None:
        now = self._receive_clock(datagram)
        tx_time = datagram.meta.get("tx_time")
        if tx_time is not None:
            self.rtp_latency_samples_ms.append((now - tx_time) * 1000.0)
            if len(self.rtp_latency_samples_ms) > 200_000:
                del self.rtp_latency_samples_ms[:100_000]
        if packet.payload_type == PT_AUDIO_OPUS:
            receiver = self.audio_receivers.setdefault(packet.ssrc, AudioReceiveStream(packet.ssrc))
            receiver.on_packet(packet, now)
            return
        receiver = self.video_receivers.get(packet.ssrc)
        if receiver is None:
            receiver = VideoReceiveStream(packet.ssrc)
            self.video_receivers[packet.ssrc] = receiver
            self.estimators[packet.ssrc] = RemoteBitrateEstimator(
                initial_estimate_bps=self.config.video_bitrate_bps
            )
        new_nacks = receiver.on_packet(packet, now)
        estimator = self.estimators[packet.ssrc]
        send_time = packet.timestamp / VIDEO_CLOCK_RATE
        estimator.on_packet(recv_time=now, send_time=send_time, size_bytes=datagram.wire_size)
        if new_nacks:
            pending = self._pending_nacks.setdefault(packet.ssrc, [])
            pending.extend(new_nacks)
            self.simulator.schedule(NACK_BATCH_DELAY_S, self._flush_nacks, packet.ssrc)
        if receiver.frozen and receiver.plis_sent > 0:
            self._send_rtcp([PictureLossIndication(sender_ssrc=self.video_ssrc, media_ssrc=packet.ssrc)])

    def _flush_nacks(self, ssrc: int) -> None:
        receiver = self.video_receivers.get(ssrc)
        pending = self._pending_nacks.get(ssrc, [])
        if receiver is None or not pending:
            return
        still_missing = [seq for seq in pending if seq in receiver.missing]
        self._pending_nacks[ssrc] = []
        if not still_missing:
            return
        receiver.nacks_sent.extend(still_missing)
        self._send_rtcp(
            [Nack(sender_ssrc=self.video_ssrc, media_ssrc=ssrc, lost_sequence_numbers=tuple(still_missing))]
        )

    def _handle_rtcp(self, packet: RtcpPacket) -> None:
        if isinstance(packet, Nack) and packet.media_ssrc == self.video_ssrc:
            self.nacks_received += 1
            for seq in packet.lost_sequence_numbers:
                original = self._rtx_history.get(seq)
                if original is not None:
                    self.retransmissions_sent += 1
                    self._send_rtp(original)
        elif isinstance(packet, PictureLossIndication) and packet.media_ssrc == self.video_ssrc:
            self.plis_received += 1
            self.encoder.request_keyframe()
        elif isinstance(packet, Remb):
            # Receiver-driven GCC: the sender follows the REMB it receives.
            self.encoder.set_target_bitrate(packet.bitrate_bps)

    def _handle_stun(self, message: StunMessage, datagram: Datagram) -> None:
        if message.is_request:
            response = make_binding_response(message, self.address.ip, self.address.port)
            reply = Datagram(src=self.address, dst=datagram.src, payload=response)
            self.packets_sent += 1
            self.bytes_sent += reply.size
            self.network.send(reply)
        elif message.is_success_response:
            sent_at = self._stun_pending.pop(message.transaction_id, None)
            if sent_at is not None:
                self.rtt_samples_ms.append((self._receive_clock(datagram) - sent_at) * 1000.0)

    # ------------------------------------------------------------------ stats

    def get_stats(self) -> StatsReport:
        """Produce a WebRTC-stats-like snapshot of this client."""
        now = self.simulator.now
        inbound_video = tuple(
            snapshot_video(stream, now) for stream in self.video_receivers.values()
        )
        inbound_audio = tuple(snapshot_audio(stream) for stream in self.audio_receivers.values())
        outbound = []
        if self.config.send_video:
            outbound.append(
                OutboundStats(
                    ssrc=self.video_ssrc,
                    kind="video",
                    packets_sent=self.packetizer.packets_produced,
                    bytes_sent=self.packetizer.bytes_produced,
                    target_bitrate_bps=self.encoder.target_bitrate_bps,
                    frames_per_second=self.encoder.frame_rate,
                )
            )
        if self.config.send_audio:
            outbound.append(
                OutboundStats(
                    ssrc=self.audio_ssrc,
                    kind="audio",
                    packets_sent=self.audio_source.packets_produced,
                    bytes_sent=0,
                    target_bitrate_bps=self.audio_source.bitrate_bps,
                )
            )
        return StatsReport(
            timestamp=now,
            inbound_video=inbound_video,
            inbound_audio=inbound_audio,
            outbound=tuple(outbound),
        )
