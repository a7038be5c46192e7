"""An N-meeting pipeline and realistic AV1 ingress, without the simulator.

Shared by the suites that drive ``process_batch`` directly (snapshot folds,
obs tracing): :func:`build_meeting_pipeline` installs replicated meetings on
a fresh or caller-supplied engine, :func:`media_ingress` encodes the matching
burst.  Import it the way ``reference_datapath`` is imported::

    from meeting_pipeline import SFU_ADDRESS, build_meeting_pipeline, media_ingress
"""

from typing import List, Sequence, Tuple

from repro.dataplane.pipeline import (
    ForwardingMode,
    ReplicaTarget,
    ScallopPipeline,
    StreamForwardingEntry,
)
from repro.dataplane.pre import L2Port
from repro.netsim.datagram import Address, Datagram
from repro.rtp.wire import PacketView
from repro.webrtc.encoder import RtpPacketizer, SvcEncoder

SFU_ADDRESS = Address("10.0.0.1", 5000)


def build_meeting_pipeline(
    num_meetings: int, participants: int = 8, pipeline=None
) -> Tuple[ScallopPipeline, List[Tuple[Address, int]]]:
    """A pipeline with ``num_meetings`` replicated meetings, one active video
    sender each (the campus trace's typical meeting shape); returns the
    pipeline and the (sender address, ssrc) pairs.  Pass ``pipeline`` to
    configure a pre-built engine (e.g. a sharded one) instead of a fresh
    :class:`ScallopPipeline`."""
    if pipeline is None:
        pipeline = ScallopPipeline(SFU_ADDRESS)
    senders: List[Tuple[Address, int]] = []
    for meeting in range(num_meetings):
        mgid = pipeline.pre.create_tree()
        addresses = [
            Address(f"10.{1 + meeting // 200}.{meeting % 200}.{index + 2}", 6000 + index)
            for index in range(participants)
        ]
        for rid, address in enumerate(addresses, start=1):
            pipeline.pre.add_node(
                mgid, rid=rid, ports=[L2Port(port=rid, l2_xid=rid)], l1_xid=1, prune_enabled=True
            )
            pipeline.install_replica_target(
                mgid, rid, ReplicaTarget(address=address, participant_id=f"m{meeting}-p{rid}")
            )
        ssrc = 10_000 + meeting
        pipeline.install_stream(
            (addresses[0], ssrc),
            StreamForwardingEntry(
                mode=ForwardingMode.REPLICATE,
                meeting_id=f"meeting-{meeting}",
                sender=addresses[0],
                mgid=mgid,
                rid=1,
                l2_xid=1,
            ),
        )
        senders.append((addresses[0], ssrc))
    return pipeline, senders


def media_ingress(
    senders: Sequence[Tuple[Address, int]], frames: int = 12, wire_native: bool = False
) -> List[Datagram]:
    """AV1 L1T3 ingress: every sender contributes ``frames`` encoded frames.

    ``wire_native=True`` encodes each packet once into a packed
    :class:`~repro.rtp.wire.PacketView` buffer (the representation a
    wire-native sender emits), exercising the pipeline's zero-object path.
    """
    traffic: List[Datagram] = []
    for address, ssrc in senders:
        encoder = SvcEncoder(target_bitrate_bps=2_200_000, seed=ssrc)
        packetizer = RtpPacketizer(ssrc=ssrc, seed=ssrc)
        for index in range(frames):
            for packet in packetizer.packetize(encoder.next_frame(index / 30)):
                payload = PacketView.from_packet(packet) if wire_native else packet
                traffic.append(Datagram(src=address, dst=SFU_ADDRESS, payload=payload))
    return traffic
