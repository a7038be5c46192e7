"""The unmemoized per-packet media walk: the equivalence suites' oracle.

``PipelineDatapath.process`` runs media on the memoized implementation the
batch path uses, so comparing ``process`` against ``process_batch`` would
compare that implementation with itself.  This module keeps the walk
``process`` used to perform for object (``RtpPacket``) media — parse, one
table lookup per stage, one PRE replication and one adaptation lookup per
replica, a fresh ``Datagram`` through the dataclass constructor, no caches —
so the suites still check the fast paths against an independent reading of
the same tables.  It drives a pipeline's own parser, tables, registers and
counters; everything that is not object media goes through ``process``.
"""

from typing import Optional

from repro.dataplane.parser import PacketClass, ParseResult
from repro.dataplane.pipeline import PipelineDatapath, PipelineResult, ScallopPipeline
from repro.netsim.datagram import Address, Datagram, PayloadKind
from repro.rtp.packet import RtpPacket


def reference_process(pipeline: ScallopPipeline, datagram: Datagram) -> PipelineResult:
    """Run one ingress packet through ``pipeline`` on the reference walk."""
    datapath = pipeline.datapath
    if not (datagram.kind is PayloadKind.RTP and isinstance(datagram.payload, RtpPacket)):
        return datapath.process(datagram)
    parse = datapath.parser.parse(datagram)
    result = PipelineResult(parse=parse)
    if parse.packet_class is PacketClass.UNKNOWN:
        # a damaged extension block: punted, never forwarded
        datapath._punt(datagram, parse, result)
    else:
        _handle_media(datapath, datagram, parse, result)
    return result


def _handle_media(
    datapath: PipelineDatapath, datagram: Datagram, parse: ParseResult, result: PipelineResult
) -> None:
    packet: RtpPacket = datagram.payload
    counters = datapath.counters
    entry = datapath.stream_table.lookup((datagram.src, packet.ssrc))
    if entry is None:
        counters.table_misses += 1
        counters.account(parse.packet_class, datagram.size, to_cpu=False)
        return

    to_cpu = parse.needs_cpu and parse.has_extended_descriptor
    counters.account(parse.packet_class, datagram.size, to_cpu=to_cpu)
    if to_cpu:
        result.cpu_copies.append(datagram)

    is_video = parse.packet_class == PacketClass.RTP_VIDEO
    egress_schedule = datapath._egress_schedule(datagram)
    for target in datapath._resolve_targets(entry, parse):
        out_packet: Optional[RtpPacket] = packet
        if is_video:
            out_packet = _apply_adaptation(datapath, packet, parse, target.address)
            if out_packet is None:
                result.dropped_replicas += 1
                counters.adaptation_drops += 1
                continue
        result.outputs.append(
            Datagram(
                src=datapath.sfu_address,
                dst=target.address,
                payload=out_packet,
                arrived_at=egress_schedule,
                meta=dict(datagram.meta),
            )
        )
        counters.replicas_out += 1


def _apply_adaptation(
    datapath: PipelineDatapath, packet: RtpPacket, parse: ParseResult, receiver: Address
) -> Optional[RtpPacket]:
    entry = datapath.adaptation_table.lookup((packet.ssrc, receiver))
    if entry is None:
        return packet
    forward = parse.template_id is None or parse.template_id in entry.allowed_templates
    rewriter = datapath.trackers.read(entry.stream_index)
    if rewriter is None:
        return packet if forward else None
    frame_number = parse.frame_number if parse.frame_number is not None else 0
    new_seq = rewriter.on_packet(packet.sequence_number, frame_number, forward)
    if new_seq is None:
        return None
    return packet.with_sequence_number(new_seq)
