"""Property-based tests (hypothesis) for the core data structures and invariants."""

from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.seqrewrite import (
    SequenceRewriterLowMemory,
    SequenceRewriterLowRetransmission,
    SkipCadence,
    ideal_rewrite_map,
)
from repro.dataplane.pre import L2Port, PacketReplicationEngine
from repro.dataplane.tables import IndexAllocator
from repro.rtp.extensions import ExtensionElement, decode_extensions, encode_extensions
from repro.rtp.packet import RtpHeaderExtension, RtpPacket, seq_add, seq_delta
from repro.rtp.rtcp import Nack, Remb, parse_compound
from repro.stun.message import StunMessage, make_binding_request

common_settings = settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)


# ---------------------------------------------------------------------------
# Wire-format round trips
# ---------------------------------------------------------------------------

rtp_packets = st.builds(
    RtpPacket,
    payload_type=st.integers(min_value=0, max_value=127),
    sequence_number=st.integers(min_value=0, max_value=65_535),
    timestamp=st.integers(min_value=0, max_value=2**32 - 1),
    ssrc=st.integers(min_value=0, max_value=2**32 - 1),
    marker=st.booleans(),
    csrcs=st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=15).map(tuple),
    extension=st.one_of(
        st.none(),
        st.builds(
            RtpHeaderExtension,
            profile=st.just(0xBEDE),
            data=st.integers(min_value=0, max_value=8).map(lambda words: b"\x00" * (4 * words)),
        ),
    ),
    payload=st.binary(max_size=1400),
)


@common_settings
@given(packet=rtp_packets)
def test_rtp_serialize_parse_round_trip(packet):
    assert RtpPacket.parse(packet.serialize()) == packet


@common_settings
@given(
    packet=rtp_packets,
    seq=st.integers(min_value=0, max_value=2**17),
    ssrc=st.integers(min_value=0, max_value=2**32 - 1),
    payload=st.binary(max_size=64),
    csrcs=st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=15).map(tuple),
)
def test_rtp_size_is_the_serialized_length_of_every_copy(packet, seq, ssrc, payload, csrcs):
    # size is derived once at construction; each copy derives its own
    copies = (
        packet,
        packet.with_sequence_number(seq),
        packet.with_ssrc(ssrc),
        replace(packet, payload=payload),
        replace(packet, csrcs=csrcs, extension=None),
        RtpPacket.parse(packet.serialize()),
    )
    for copy in copies:
        assert copy.size == len(copy.serialize())


@common_settings
@given(
    elements=st.lists(
        st.builds(
            ExtensionElement,
            ext_id=st.integers(min_value=1, max_value=14),
            data=st.binary(min_size=1, max_size=16),
        ),
        max_size=4,
    )
)
def test_extension_elements_round_trip(elements):
    assert decode_extensions(encode_extensions(elements)) == elements


@common_settings
@given(
    bitrate=st.floats(min_value=1_000, max_value=5e8, allow_nan=False),
    ssrcs=st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=4).map(tuple),
)
def test_remb_bitrate_precision(bitrate, ssrcs):
    parsed = parse_compound(Remb(sender_ssrc=1, bitrate_bps=bitrate, media_ssrcs=ssrcs).serialize())[0]
    assert abs(parsed.bitrate_bps - bitrate) <= max(bitrate * 0.01, 1.0)
    assert parsed.media_ssrcs == ssrcs


@common_settings
@given(lost=st.lists(st.integers(min_value=0, max_value=65_535), min_size=1, max_size=40, unique=True))
def test_nack_round_trip_preserves_lost_set(lost):
    parsed = parse_compound(Nack(1, 2, tuple(lost)).serialize())[0]
    assert set(parsed.lost_sequence_numbers) == set(lost)


@common_settings
@given(
    transaction_id=st.binary(min_size=12, max_size=12),
    username=st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")), min_size=1, max_size=16),
)
def test_stun_round_trip(transaction_id, username):
    request = make_binding_request(transaction_id, username)
    parsed = StunMessage.parse(request.serialize())
    assert parsed.transaction_id == transaction_id
    assert parsed.attribute(0x0006) == username.encode()


# ---------------------------------------------------------------------------
# Sequence arithmetic and rewriting invariants
# ---------------------------------------------------------------------------


@common_settings
@given(seq=st.integers(min_value=0, max_value=65_535), delta=st.integers(min_value=-30_000, max_value=30_000))
def test_seq_delta_inverts_seq_add(seq, delta):
    assert seq_delta(seq_add(seq, delta), seq) == delta


@st.composite
def rewrite_histories(draw):
    """Random frame-structured packet histories with suppression, loss, and reordering."""
    num_frames = draw(st.integers(min_value=4, max_value=60))
    packets_per_frame = draw(st.integers(min_value=1, max_value=4))
    decode_target = draw(st.integers(min_value=0, max_value=2))
    start_seq = draw(st.integers(min_value=0, max_value=65_535))
    events = []
    seq = start_seq
    for frame in range(num_frames):
        layer = (0, 2, 1, 2)[frame % 4]
        suppressed = layer > decode_target
        for _ in range(packets_per_frame):
            lost = draw(st.booleans()) and draw(st.booleans())  # ~25% loss
            events.append((seq, frame, suppressed, lost))
            seq = (seq + 1) % 65_536
    return decode_target, events


@common_settings
@given(history=rewrite_histories(), use_lr=st.booleans())
def test_rewriters_never_emit_duplicates(history, use_lr):
    decode_target, events = history
    cadence = SkipCadence.for_decode_target(decode_target)
    rewriter = (SequenceRewriterLowRetransmission if use_lr else SequenceRewriterLowMemory)(cadence)
    emitted = []
    for seq, frame, suppressed, lost in events:
        if lost:
            continue
        out = rewriter.on_packet(seq, frame, forward=not suppressed)
        if out is not None:
            emitted.append(out)
    assert len(emitted) == len(set(emitted))


@common_settings
@given(history=rewrite_histories())
def test_rewriter_matches_oracle_without_loss(history):
    """With no loss and no reordering the heuristic must be exactly ideal."""
    decode_target, events = history
    cadence = SkipCadence.for_decode_target(decode_target)
    rewriter = SequenceRewriterLowRetransmission(cadence)
    ideal = ideal_rewrite_map([(seq, suppressed, False) for seq, _f, suppressed, _l in events])
    for seq, frame, suppressed, _lost in events:
        out = rewriter.on_packet(seq, frame, forward=not suppressed)
        assert out == ideal[seq]


@common_settings
@given(history=rewrite_histories())
def test_ideal_map_has_no_gaps_over_suppression(history):
    _target, events = history
    mapping = ideal_rewrite_map([(seq, suppressed, lost) for seq, _f, suppressed, lost in events])
    kept = [v for (seq, _f, suppressed, _l), v in zip(events, mapping.values()) if not suppressed]
    assert kept == [(kept[0] + i) % 65_536 for i in range(len(kept))]


# ---------------------------------------------------------------------------
# PRE and allocator invariants
# ---------------------------------------------------------------------------


@common_settings
@given(
    num_participants=st.integers(min_value=2, max_value=12),
    sender_index=st.integers(min_value=0, max_value=11),
)
def test_pre_never_replicates_to_sender(num_participants, sender_index):
    sender_index %= num_participants
    pre = PacketReplicationEngine()
    mgid = pre.create_tree()
    for index in range(num_participants):
        pre.add_node(mgid, rid=index + 1, ports=[L2Port(port=index + 1, l2_xid=index + 1)])
    replicas = pre.replicate(mgid, rid=sender_index + 1, l2_xid=sender_index + 1)
    ports = [r.egress_port for r in replicas]
    assert sender_index + 1 not in ports
    assert len(ports) == num_participants - 1


@common_settings
@given(keys=st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=32, unique=True))
def test_index_allocator_assigns_unique_indices(keys):
    allocator = IndexAllocator(64)
    indices = [allocator.allocate(key) for key in keys]
    assert len(set(indices)) == len(keys)
    for key in keys:
        allocator.release(key)
    assert allocator.in_use == 0
