"""Property tests for the wire-native packet path.

Three layers of guarantees:

1. :class:`~repro.rtp.wire.PacketView` round-trips byte-exactly with the
   object codec (:class:`~repro.rtp.packet.RtpPacket`) across random headers,
   CSRC lists, one-/two-byte extension profiles, and padding.
2. In-place rewriting (sequence number / SSRC / timestamp / DD frame number)
   patches exactly the targeted bytes.
3. The pipeline's one media path is indistinguishable across the two
   representations: wire ingress yields the serialized outputs,
   destinations, metas, drops, counters and (with observability armed)
   trace records and registry series of the same object ingress — per
   packet and per batch, with and without sequence rewriting — and a
   wire-native end-to-end testbed unfolds identically to an object-model
   one.
"""

import dataclasses

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.seqrewrite import (
    SequenceRewriterLowMemory,
    SequenceRewriterLowRetransmission,
    SkipCadence,
)
from repro.dataplane.parser import IngressParser
from repro.dataplane.pipeline import ScallopPipeline
from repro.netsim.datagram import Address, Datagram, PayloadKind
from repro.obs.hooks import ObsConfig
from repro.rtp.av1 import DependencyDescriptor, dependency_descriptor_element
from repro.rtp.extensions import (
    EXT_ID_AV1_DEPENDENCY_DESCRIPTOR,
    ExtensionElement,
    encode_extensions,
)
from repro.rtp.packet import RtpHeaderExtension, RtpPacket, RtpParseError
from repro.rtp.wire import PacketView
from repro.webrtc.encoder import RtpPacketizer, SvcEncoder

from reference_datapath import reference_process

SFU = Address("10.0.0.1", 5000)


# --------------------------------------------------------------------------- strategies

#: Elements drawn wide enough that ``encode_extensions`` picks the one-byte
#: profile for some examples and the two-byte profile for others (ids > 14 or
#: payloads > 16 bytes force two-byte, exactly as libwebrtc does).
extension_elements = st.lists(
    st.builds(
        ExtensionElement,
        ext_id=st.integers(min_value=1, max_value=30),
        data=st.binary(min_size=1, max_size=24),
    ),
    min_size=0,
    max_size=3,
    unique_by=lambda e: e.ext_id,
)


@st.composite
def rtp_packets(draw):
    elements = draw(extension_elements)
    extension = encode_extensions(elements) if elements else None
    return RtpPacket(
        payload_type=draw(st.integers(min_value=0, max_value=127)),
        sequence_number=draw(st.integers(min_value=0, max_value=0xFFFF)),
        timestamp=draw(st.integers(min_value=0, max_value=0xFFFFFFFF)),
        ssrc=draw(st.integers(min_value=0, max_value=0xFFFFFFFF)),
        marker=draw(st.booleans()),
        csrcs=tuple(draw(st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF), max_size=15))),
        extension=extension,
        payload=draw(st.binary(max_size=64)),
    )


# --------------------------------------------------------------------------- round trips


class TestPacketViewRoundTrip:
    @given(packet=rtp_packets())
    @settings(max_examples=200, deadline=None)
    def test_accessors_match_object_model(self, packet):
        view = PacketView.from_packet(packet)
        assert view.payload_type == packet.payload_type
        assert view.sequence_number == packet.sequence_number
        assert view.timestamp == packet.timestamp
        assert view.ssrc == packet.ssrc
        assert view.marker == packet.marker
        assert view.csrcs == packet.csrcs
        assert view.csrc_count == len(packet.csrcs)
        assert view.extension == packet.extension
        assert view.has_extension == (packet.extension is not None)
        assert view.header_length == packet.header_length
        assert view.payload == packet.payload
        assert view.size == packet.size == len(bytes(view))

    @given(packet=rtp_packets())
    @settings(max_examples=200, deadline=None)
    def test_to_packet_round_trip(self, packet):
        view = PacketView.from_packet(packet)
        assert view.to_packet() == packet
        assert bytes(view) == packet.serialize()
        # a view over the serialized bytes is the same view
        assert PacketView(packet.serialize()) == view

    @given(packet=rtp_packets(), pad_len=st.integers(min_value=1, max_value=8))
    @settings(max_examples=100, deadline=None)
    def test_padding_matches_parse_semantics(self, packet, pad_len):
        # craft a padded wire image by hand (the object serializer never pads)
        raw = bytearray(packet.serialize())
        raw[0] |= 0x20
        raw += bytes(pad_len - 1) + bytes([pad_len])
        view = PacketView(bytes(raw))
        assert view.padding
        assert view.size == packet.size + pad_len
        assert view.sequence_number == packet.sequence_number
        # decode-once agrees with the object codec's canonical (stripped) form
        assert view.to_packet() == RtpPacket.parse(bytes(raw))

    def test_datagram_from_wire_matches_from_bytes(self):
        # the wire-native ingress boundary must classify raw UDP payloads
        # exactly like the object-model one; only RTP's representation differs
        from repro.rtp.rtcp import SenderReport, serialize_compound
        from repro.stun.message import make_binding_request

        src, dst = Address("10.0.0.9", 7000), SFU
        packet = RtpPacketizer(ssrc=88, seed=8).packetize(SvcEncoder(seed=8).next_frame(0.0))[0]
        samples = [
            packet.serialize(),
            serialize_compound([SenderReport(sender_ssrc=88)]),
            make_binding_request(bytes(12), "user").serialize(),
            b"\x05garbage-that-is-not-rtp",
        ]
        for raw in samples:
            wire = Datagram.from_wire(src, dst, raw)
            reference = Datagram.from_bytes(src, dst, raw)
            assert wire.kind == reference.kind
            assert wire.size == reference.size
            assert wire.to_bytes() == reference.to_bytes()
            if wire.kind is PayloadKind.RTP:
                assert isinstance(wire.payload, PacketView)
                assert wire.payload.to_packet() == reference.payload
            else:
                assert wire.payload == reference.payload

    def test_rejects_non_rtp(self):
        for bad in (b"", b"\x00" * 4, b"\x00" * 12, b"\xff" + b"\x00" * 11):
            try:
                PacketView(bad)
            except RtpParseError:
                continue
            raise AssertionError(f"accepted non-RTP buffer {bad!r}")


class TestInPlaceRewriting:
    def _media_packet(self, frame_number=7, template_id=2):
        descriptor = DependencyDescriptor(
            start_of_frame=True, end_of_frame=False, template_id=template_id, frame_number=frame_number
        )
        extension = encode_extensions([dependency_descriptor_element(descriptor)])
        return RtpPacket(
            payload_type=45,
            sequence_number=100,
            timestamp=9000,
            ssrc=0xABCD,
            extension=extension,
            payload=b"\x55" * 40,
        )

    def test_set_fields_patch_only_their_bytes(self):
        packet = self._media_packet()
        view = PacketView.from_packet(packet).mutable_copy()
        before = bytes(view)
        view.set_sequence_number(0xBEEF)
        view.set_ssrc(0x11223344)
        view.set_timestamp(0xCAFEBABE)
        after = bytes(view)
        assert view.sequence_number == 0xBEEF
        assert view.ssrc == 0x11223344
        assert view.timestamp == 0xCAFEBABE
        # nothing but the three fields changed
        diff = [i for i, (a, b) in enumerate(zip(before, after)) if a != b]
        assert set(diff) <= set(range(2, 12))
        assert view.to_packet() == dataclasses.replace(
            packet, sequence_number=0xBEEF, ssrc=0x11223344, timestamp=0xCAFEBABE
        )

    def test_with_sequence_number_copies(self):
        view = PacketView.from_packet(self._media_packet())
        rewritten = view.with_sequence_number(4242)
        assert rewritten.sequence_number == 4242
        assert view.sequence_number == 100  # original untouched
        assert rewritten.to_packet() == view.to_packet().with_sequence_number(4242)

    def test_set_frame_number_patches_descriptor(self):
        packet = self._media_packet(frame_number=7)
        view = PacketView.from_packet(packet).mutable_copy()
        view.set_frame_number(999, EXT_ID_AV1_DEPENDENCY_DESCRIPTOR)
        reparsed = view.to_packet()
        from repro.rtp.av1 import extract_dependency_descriptor

        descriptor = extract_dependency_descriptor(reparsed.extension)
        assert descriptor is not None and descriptor.frame_number == 999
        # header fields untouched
        assert view.sequence_number == packet.sequence_number
        assert view.payload == packet.payload

    def test_set_frame_number_requires_descriptor(self):
        packet = RtpPacket(payload_type=111, sequence_number=1, timestamp=2, ssrc=3, payload=b"x")
        view = PacketView.from_packet(packet).mutable_copy()
        try:
            view.set_frame_number(1, EXT_ID_AV1_DEPENDENCY_DESCRIPTOR)
        except RtpParseError:
            return
        raise AssertionError("patched a frame number into a packet without a DD")

    def test_immutable_buffer_rejects_mutation(self):
        view = PacketView.from_packet(self._media_packet())  # bytes-backed
        try:
            view.set_sequence_number(1)
        except TypeError:
            return
        raise AssertionError("mutated an immutable buffer")


# --------------------------------------------------------------------------- parser equivalence


class TestWireParserEquivalence:
    @given(packet=rtp_packets())
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_wire_parse_equals_object_parse(self, packet):
        object_parser = IngressParser()
        wire_parser = IngressParser()
        expected = object_parser.parse_rtp_cached(packet)
        actual = wire_parser.parse_rtp_cached(PacketView.from_packet(packet))
        assert actual == expected

    def test_real_av1_stream_parses_identically_and_hits_cache(self):
        encoder = SvcEncoder(seed=3)
        packetizer = RtpPacketizer(ssrc=404, seed=3)
        packets = []
        for index in range(8):
            packets.extend(packetizer.packetize(encoder.next_frame(index / 30)))
        object_parser, wire_parser = IngressParser(), IngressParser()
        for packet in packets:
            expected = object_parser.parse_rtp_cached(packet)
            actual = wire_parser.parse_rtp_cached(PacketView.from_packet(packet))
            assert actual == expected
        assert wire_parser.packets_parsed == object_parser.packets_parsed
        assert wire_parser.cpu_punts == object_parser.cpu_punts
        assert wire_parser.parse_cache_hits == object_parser.parse_cache_hits
        assert wire_parser.parse_cache_hits > 0


# --------------------------------------------------------------------------- pipeline equivalence


def _build_adapted_pipeline(pipeline=None):
    """Two meetings, three receivers each, with rate adaptation + rewriters
    installed on two receivers (one S-LM, one S-LR) so the wire path's
    in-place rewrite and drop branches are exercised."""
    from repro.dataplane.pipeline import ForwardingMode, ReplicaTarget, StreamForwardingEntry
    from repro.dataplane.pre import L2Port

    pipeline = pipeline or ScallopPipeline(SFU)
    senders = []
    for meeting in range(2):
        mgid = pipeline.pre.create_tree()
        addresses = [Address(f"10.9.{meeting}.{i + 2}", 6000 + i) for i in range(4)]
        for rid, address in enumerate(addresses, start=1):
            pipeline.pre.add_node(mgid, rid=rid, ports=[L2Port(port=rid, l2_xid=rid)], l1_xid=1, prune_enabled=True)
            pipeline.install_replica_target(mgid, rid, ReplicaTarget(address=address, participant_id=f"m{meeting}-p{rid}"))
        ssrc = 5_000 + meeting
        pipeline.install_stream(
            (addresses[0], ssrc),
            StreamForwardingEntry(
                mode=ForwardingMode.REPLICATE, meeting_id=f"m{meeting}", sender=addresses[0],
                mgid=mgid, rid=1, l2_xid=1,
            ),
        )
        pipeline.install_adaptation(ssrc, addresses[1], frozenset({0, 1, 2}), SequenceRewriterLowRetransmission(SkipCadence(1, 2)))
        pipeline.install_adaptation(ssrc, addresses[2], frozenset({0, 1}), SequenceRewriterLowMemory(SkipCadence(1, 2)))
        senders.append((addresses[0], ssrc))
    return pipeline, senders


def _media(senders, frames=10, wire=False):
    traffic = []
    for address, ssrc in senders:
        encoder = SvcEncoder(target_bitrate_bps=1_000_000, seed=ssrc)
        packetizer = RtpPacketizer(ssrc=ssrc, seed=ssrc)
        for index in range(frames):
            for packet in packetizer.packetize(encoder.next_frame(index / 30)):
                payload = PacketView.from_packet(packet) if wire else packet
                traffic.append(Datagram(src=address, dst=SFU, payload=payload, meta={"tx_time": index / 30}))
    return traffic


def assert_wire_results_match(object_results, wire_results):
    assert len(object_results) == len(wire_results)
    for expected, actual in zip(object_results, wire_results):
        assert actual.parse == expected.parse
        assert actual.dropped_replicas == expected.dropped_replicas
        assert len(actual.outputs) == len(expected.outputs)
        for out_expected, out_actual in zip(expected.outputs, actual.outputs):
            assert out_actual.dst == out_expected.dst
            assert out_actual.src == out_expected.src
            assert out_actual.size == out_expected.size
            assert out_actual.kind is PayloadKind.RTP
            assert out_actual.arrived_at == out_expected.arrived_at
            assert out_actual.to_bytes() == out_expected.to_bytes()
            assert dict(out_actual.meta) == dict(out_expected.meta)
        assert [c.to_bytes() for c in actual.cpu_copies] == [
            c.to_bytes() for c in expected.cpu_copies
        ]


class TestWirePipelineEquivalence:
    def test_batch_outputs_byte_identical_with_rewriting(self):
        object_pipeline, senders = _build_adapted_pipeline()
        wire_pipeline, _ = _build_adapted_pipeline()
        object_results = object_pipeline.process_batch(_media(senders, wire=False))
        wire_results = wire_pipeline.process_batch(_media(senders, wire=True))
        assert_wire_results_match(object_results, wire_results)
        assert dataclasses.asdict(object_pipeline.counters) == dataclasses.asdict(wire_pipeline.counters)
        assert object_pipeline.parser.cpu_punts == wire_pipeline.parser.cpu_punts
        assert object_pipeline.parser.packets_parsed == wire_pipeline.parser.packets_parsed
        # rewriting actually happened (drops prove suppressed templates)
        assert object_pipeline.counters.adaptation_drops > 0

    def test_per_packet_process_equals_batch(self):
        reference, senders = _build_adapted_pipeline()
        wire_single, _ = _build_adapted_pipeline()
        traffic_obj = _media(senders, wire=False)
        traffic_wire = _media(senders, wire=True)
        object_results = [reference_process(reference, d) for d in traffic_obj]
        wire_results = [wire_single.process(d) for d in traffic_wire]
        assert_wire_results_match(object_results, wire_results)
        assert dataclasses.asdict(reference.counters) == dataclasses.asdict(wire_single.counters)

    def test_armed_obs_records_identically_for_both_representations(self):
        # every flow sampled; meeting 0 adapted, meeting 1 plain, plus a flow
        # no table knows: all three traced return sites of _process_media,
        # on the memo's misses and hits, per batch and per packet
        stray = RtpPacketizer(ssrc=99_999, seed=1).packetize(SvcEncoder(seed=1).next_frame(0.0))
        snapshots = []
        for wire in (False, True):
            pipeline, senders = _build_adapted_pipeline(
                ScallopPipeline(SFU, obs=ObsConfig(trace_sample_rate=1, max_trace_records=1 << 20))
            )
            for receiver in (Address("10.9.1.3", 6001), Address("10.9.1.4", 6002)):
                pipeline.remove_adaptation(senders[1][1], receiver)
            traffic = _media(senders, wire=wire) + [
                Datagram(src=Address("10.66.0.1", 6000), dst=SFU, payload=PacketView.from_packet(p) if wire else p)
                for p in stray
            ]
            half = len(traffic) // 2
            pipeline.process_batch(traffic[:half])
            for datagram in traffic[half:]:
                pipeline.process(datagram)
            obs = pipeline.datapath.obs
            snapshots.append((list(obs.tracer.records), obs.registry.snapshot_series()))
        (object_records, object_series), (wire_records, wire_series) = snapshots
        assert wire_records == object_records
        assert wire_series == object_series
        assert {record[1] for record in object_records} == {
            "10.9.0.2:6000/5000", "10.9.1.2:6000/5001", "10.66.0.1:6000/99999"
        }

    def test_object_replicas_carry_the_ingress_size(self):
        pipeline, senders = _build_adapted_pipeline()
        traffic = _media(senders, wire=False)
        results = pipeline.process_batch(traffic[: len(traffic) // 2])
        results += [pipeline.process(datagram) for datagram in traffic[len(traffic) // 2 :]]
        rewritten = 0
        for datagram, result in zip(traffic, results):
            for out in result.outputs:
                assert out.size == datagram.size == out.payload.size
                rewritten += out.payload.sequence_number != datagram.payload.sequence_number
        assert rewritten > 0

    def test_same_number_rewrite_aliases_the_ingress_payload(self):
        class SameNumber:
            state_cells = 1

            def on_packet(self, sequence_number, frame_number, forward):
                return sequence_number

        for wire in (False, True):
            pipeline, senders = _build_adapted_pipeline()
            receiver = Address("10.9.0.3", 6001)
            pipeline.install_adaptation(senders[0][1], receiver, frozenset(range(32)), SameNumber())
            traffic = _media(senders[:1], frames=3, wire=wire)
            for results in (pipeline.process_batch(traffic), [pipeline.process(d) for d in traffic]):
                for datagram, result in zip(traffic, results):
                    (out,) = [out for out in result.outputs if out.dst == receiver]
                    assert out.payload is datagram.payload

    def test_junk_wire_flow_counts_table_miss(self):
        pipeline, _ = _build_adapted_pipeline()
        stray = RtpPacketizer(ssrc=99_999, seed=1).packetize(SvcEncoder(seed=1).next_frame(0.0))[0]
        result = pipeline.process(Datagram(src=Address("10.66.0.1", 6000), dst=SFU, payload=PacketView.from_packet(stray)))
        assert not result.outputs and not result.cpu_copies
        assert pipeline.counters.table_misses == 1


class TestWireNativeEndToEnd:
    """A wire-native testbed must unfold identically to an object-model one:
    encode once at the sender, rewrite in place at the SFU, decode once at
    the receiver — with every stat, jitter, and frame count unchanged."""

    @staticmethod
    def _run(wire_native):
        from repro.scenario import Scenario, TrafficSpec, build_scenario

        testbed = build_scenario(
            Scenario.uniform(
                num_meetings=2,
                participants_per_meeting=3,
                traffic=TrafficSpec(frame_bursts=True, wire_native=wire_native),
                seed=6,
            )
        )
        testbed.run_for(2.5)
        return testbed

    def test_simulation_identical_to_object_model(self):
        reference = self._run(False)
        wire = self._run(True)
        assert dataclasses.asdict(wire.sfu.stats) == dataclasses.asdict(reference.sfu.stats)
        assert dataclasses.asdict(wire.sfu.pipeline.counters) == dataclasses.asdict(
            reference.sfu.pipeline.counters
        )
        for ref_client, wire_client in zip(reference.clients, wire.clients):
            assert wire_client.packets_sent == ref_client.packets_sent
            assert wire_client.bytes_sent == ref_client.bytes_sent
            for ssrc, stream in ref_client.video_receivers.items():
                twin = wire_client.video_receivers[ssrc]
                assert twin.frames_decoded == stream.frames_decoded
                assert abs(twin.jitter_rtp_units - stream.jitter_rtp_units) < 1e-9
        reference.close()
        wire.close()
