"""The byte-level RTP parse against the object-model walk it replaced, and
damaged wire RTP as a counted CPU punt.

``IngressParser`` walks the RFC 8285 extension elements in place and reads
the AV1 dependency descriptor's prefix with integer ops.  The oracle in
``reference_parser.py`` decodes the same block into element and descriptor
objects.  Over random blocks — both profiles, padding, the one-byte id-15
terminator, more elements than the parse graph has landing states,
descriptor lengths 0-20 with and without the extended flag, unknown
profiles, and blocks the object walk cannot decode — every ``ParseResult``
field and the ``cpu_punts`` delta must agree, for object and wire ingress
alike.  Where the object walk raises, the byte-level parse punts the packet
as damaged.
"""

import struct

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.switch_agent import SwitchAgent
from repro.dataplane.parser import (
    MAX_EXTENSION_ELEMENTS,
    IngressParser,
    PacketClass,
    ParseResult,
)
from repro.dataplane.sharding import ShardedScallopPipeline
from repro.netsim.datagram import Datagram
from repro.rtp.packet import (
    EXTENSION_PROFILE_ONE_BYTE,
    EXTENSION_PROFILE_TWO_BYTE,
    PT_AUDIO_OPUS,
    PT_VIDEO_AV1,
    PT_VIDEO_RTX,
    RtpHeaderExtension,
    RtpPacket,
)
from repro.rtp.wire import PacketView

from reference_datapath import reference_process
from reference_parser import reference_parse_rtp
from test_dataplane_parser_pipeline import ALICE, ALICE_VIDEO_SSRC, SFU, build_pipeline_with_meeting


def damaged(ssrc):
    """What the parser reports for a packet whose extension it cannot decode."""
    return ParseResult(packet_class=PacketClass.UNKNOWN, ssrc=ssrc, needs_cpu=True, parse_depth=12)


# --------------------------------------------------------------------------- strategies


@st.composite
def descriptor_data(draw, max_length):
    """An AV1 DD element body of 0..``max_length`` bytes: the 3-byte prefix
    (flags with or without the extended bit, frame number) and random tail."""
    length = draw(st.integers(min_value=0, max_value=max_length))
    flags = draw(st.integers(min_value=0, max_value=0xFF))
    if draw(st.booleans()):
        flags |= 0x20  # extended: a template structure follows the prefix
    body = bytes([flags]) + struct.pack("!H", draw(st.integers(0, 0xFFFF)))
    body += draw(st.binary(min_size=max(0, length - 3), max_size=max(0, length - 3)))
    return body[:length]


@st.composite
def element_blocks(draw, one_byte):
    """An element-by-element RFC 8285 block, occasionally damaged."""
    out = bytearray()
    # up to three elements past the parse graph's landing states
    for _ in range(draw(st.sampled_from(range(MAX_EXTENSION_ELEMENTS + 4)))):
        out += b"\x00" * draw(st.integers(min_value=0, max_value=2))  # padding
        if draw(st.integers(min_value=0, max_value=2)) == 0:
            ext_id = 12  # the dependency descriptor
            data = draw(descriptor_data(max_length=16 if one_byte else 20))
            if one_byte and not data:
                data = b"\x80"  # the one-byte profile cannot carry an empty element
        else:
            ext_id = draw(st.integers(min_value=1, max_value=14 if one_byte else 255))
            data = draw(st.binary(min_size=1 if one_byte else 0, max_size=16))
        if one_byte:
            out += bytes([(ext_id << 4) | (len(data) - 1)]) + data
        else:
            out += bytes([ext_id, len(data)]) + data
    if one_byte and draw(st.booleans()):
        # id 15 ends the walk; whatever follows is never decoded
        out += bytes([0xF0 | draw(st.integers(0, 15))]) + draw(st.binary(max_size=6))
    damage = draw(st.sampled_from(["none", "none", "none", "cut", "id0"]))
    if damage == "cut" and out:
        del out[len(out) - draw(st.integers(min_value=1, max_value=len(out))) :]
        if out and out[-1] == 0:
            out[-1] = 0x17 if one_byte else 0x05  # an element header left dangling
    elif damage == "id0" and one_byte:
        out += bytes([draw(st.integers(1, 15))]) + b"\x00" * 16  # id 0, non-padding
    out += b"\x00" * (-len(out) % 4)
    return bytes(out)


@st.composite
def extensions(draw):
    kind = draw(st.sampled_from(["none", "one", "two", "unknown", "raw"]))
    if kind == "none":
        return None
    if kind == "unknown":
        profile = draw(
            st.integers(0, 0xFFFF).filter(
                lambda p: p != EXTENSION_PROFILE_ONE_BYTE and p & 0xFFF0 != EXTENSION_PROFILE_TWO_BYTE
            )
        )
        words = draw(st.integers(min_value=0, max_value=6))
        return RtpHeaderExtension(profile, draw(st.binary(min_size=4 * words, max_size=4 * words)))
    one_byte = draw(st.booleans()) if kind == "raw" else kind == "one"
    profile = (
        EXTENSION_PROFILE_ONE_BYTE
        if one_byte
        else EXTENSION_PROFILE_TWO_BYTE | draw(st.integers(min_value=0, max_value=15))
    )
    if kind == "raw":
        words = draw(st.integers(min_value=0, max_value=8))
        return RtpHeaderExtension(profile, draw(st.binary(min_size=4 * words, max_size=4 * words)))
    return RtpHeaderExtension(profile, draw(element_blocks(one_byte)))


# --------------------------------------------------------------------------- oracle


def expected_parse(ssrc, payload_type, extension):
    try:
        return reference_parse_rtp(ssrc, payload_type, extension)
    except ValueError:
        return damaged(ssrc), 1


class TestByteParseEqualsObjectWalk:
    @given(
        ssrc=st.integers(min_value=0, max_value=0xFFFFFFFF),
        payload_type=st.sampled_from([PT_VIDEO_AV1, PT_VIDEO_RTX, PT_AUDIO_OPUS, 0, 127]),
        extension=extensions(),
    )
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_field_and_punt_agree(self, ssrc, payload_type, extension):
        expected, punts = expected_parse(ssrc, payload_type, extension)
        packet = RtpPacket(
            payload_type=payload_type,
            sequence_number=7,
            timestamp=90_000,
            ssrc=ssrc,
            extension=extension,
            payload=b"media",
        )
        view = PacketView.from_packet(packet)
        for payload in (packet, view):
            parser = IngressParser()
            assert parser.parse(Datagram(src=ALICE, dst=SFU, payload=payload)) == expected
            assert (parser.cpu_punts, parser.packets_parsed) == (punts, 1)
        # the memoized parse, on a miss and then on a hit, agrees as well
        object_parser, wire_parser = IngressParser(), IngressParser()
        for parser, memoized, payload in (
            (object_parser, object_parser.parse_rtp_cached, packet),
            (wire_parser, wire_parser.parse_rtp_cached, view),
        ):
            assert memoized(payload) == expected
            assert memoized(payload) == expected
            assert (parser.cpu_punts, parser.packets_parsed) == (2 * punts, 2)
            # a damaged packet is never memoized, so its second parse misses
            assert parser.parse_cache_hits == (expected.packet_class is not PacketClass.UNKNOWN)

    def test_real_stream_agrees(self):
        from test_dataplane_parser_pipeline import video_packets

        for packet in video_packets(frames=12):
            expected, punts = reference_parse_rtp(packet.ssrc, packet.payload_type, packet.extension)
            parser = IngressParser()
            assert parser.parse(Datagram(src=ALICE, dst=SFU, payload=PacketView.from_packet(packet))) == expected
            assert parser.cpu_punts == punts


# --------------------------------------------------------------------------- damaged wire RTP

#: V=2 with the extension bit, payload type AV1, then seq, timestamp, SSRC.
_HEADER = bytes([0x90, PT_VIDEO_AV1]) + struct.pack("!HII", 3, 90_000, ALICE_VIDEO_SSRC)

DAMAGED_WIRE = {
    # 14 bytes: the 4-byte extension header is cut short
    "extension header cut short": _HEADER + b"\xbe\xde",
    # 20 bytes: three extension words declared, one present
    "extension words past the buffer": _HEADER + b"\xbe\xde\x00\x03" + b"\xc2\x80\x00\x01",
    # 20 bytes: a DD element declaring 6 bytes inside a 4-byte block
    "element longer than its block": _HEADER + b"\xbe\xde\x00\x01" + b"\xc5\x80\x00\x01",
}


def _damaged_datagrams():
    for name, raw in DAMAGED_WIRE.items():
        yield name, Datagram(src=ALICE, dst=SFU, payload=PacketView(raw))
    block = RtpHeaderExtension(EXTENSION_PROFILE_ONE_BYTE, b"\xc5\x80\x00\x01")
    packet = RtpPacket(
        payload_type=PT_VIDEO_AV1, sequence_number=3, timestamp=90_000, ssrc=ALICE_VIDEO_SSRC, extension=block
    )
    yield "object packet, element longer than its block", Datagram(src=ALICE, dst=SFU, payload=packet)


class TestDamagedRtpIsACountedPunt:
    def _assert_punted(self, pipeline, datagram, result):
        assert result.parse == damaged(ALICE_VIDEO_SSRC)
        assert result.outputs == []
        assert result.cpu_copies == [datagram]
        assert pipeline.parser.cpu_punts == 1
        assert pipeline.parser.packets_parsed == 1
        counters = pipeline.counters
        assert (counters.cpu_packets, counters.cpu_bytes) == (1, datagram.size)
        assert counters.by_class_packets == {"unknown": 1}
        assert (counters.data_plane_packets, counters.replicas_out, counters.table_misses) == (0, 0, 0)

    def test_hand_built_packets_are_13_to_20_bytes(self):
        assert all(13 <= len(raw) <= 20 for raw in DAMAGED_WIRE.values())

    def test_process_punts(self):
        for name, datagram in _damaged_datagrams():
            pipeline, _ = build_pipeline_with_meeting()
            self._assert_punted(pipeline, datagram, pipeline.process(datagram))

    def test_process_batch_punts_and_keeps_going(self):
        from test_dataplane_parser_pipeline import video_packets

        good = Datagram(src=ALICE, dst=SFU, payload=PacketView.from_packet(video_packets(3)[-1]))
        for name, datagram in _damaged_datagrams():
            pipeline, _ = build_pipeline_with_meeting()
            punted, forwarded = pipeline.process_batch([datagram, good])
            assert punted.parse == damaged(ALICE_VIDEO_SSRC) and punted.outputs == []
            assert punted.cpu_copies == [datagram]
            assert len(forwarded.outputs) == 2
            assert pipeline.counters.by_class_packets == {"unknown": 1, "rtp_video": 1}
            assert pipeline.counters.cpu_packets == 1
            assert pipeline.parser.packets_parsed == 2

    def test_damaged_packets_are_not_memoized(self):
        pipeline, _ = build_pipeline_with_meeting()
        for _name, datagram in _damaged_datagrams():
            pipeline.process_batch([datagram, datagram])
        assert pipeline.parser._rtp_parse_cache == {}
        assert pipeline.parser.cpu_punts == 2 * len(list(_damaged_datagrams()))

    def test_parse_key_never_raises(self):
        for raw in DAMAGED_WIRE.values():
            for cut in range(12, len(raw) + 1):
                key = PacketView(raw[:cut]).parse_key()
                assert key[:2] == (ALICE_VIDEO_SSRC, PT_VIDEO_AV1)

    def test_switch_agent_counts_and_drops_the_punted_copy(self):
        for _name, datagram in _damaged_datagrams():
            pipeline, _ = build_pipeline_with_meeting()
            agent = SwitchAgent(pipeline)
            (copy,) = pipeline.process(datagram).cpu_copies
            agent.handle_cpu_packet(copy)
            assert agent.counters.packets_processed == 1
            assert agent.counters.extended_descriptors_handled == 0

    def test_sharded_engine_and_reference_walk_punt_alike(self):
        for name, datagram in _damaged_datagrams():
            sharded = ShardedScallopPipeline(SFU, n_shards=4)
            (result,) = sharded.process_batch([datagram])
            assert result.parse == damaged(ALICE_VIDEO_SSRC) and result.outputs == []
            assert result.cpu_copies == [datagram]
            assert sharded.parser.cpu_punts == 1
            if isinstance(datagram.payload, RtpPacket):
                reference, _ = build_pipeline_with_meeting()
                self._assert_punted(reference, datagram, reference_process(reference, datagram))
