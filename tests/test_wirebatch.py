"""Property tests for the columnar burst view (`repro.rtp.wirebatch`).

Two layers of guarantees:

1. **Bulk extraction is field-identical to per-packet accessors**: for any
   mixed burst (wire ``PacketView`` rows across random headers, CSRC lists,
   extensions, and padding; decoded ``RtpPacket`` rows; raw/control rows),
   every :class:`~repro.rtp.wirebatch.WireBatchView` column equals the value
   the per-packet accessor would have returned — the contract the module
   docstring promises.
2. **The memoized flow-key cache never changes a routing decision**: the
   partitioner's ``_crc_shard`` is asserted identical to the module-level
   :func:`~repro.dataplane.sharding.flow_shard`, and ``_shard_of_key``
   identical to ``shard_for_flow``, for pinned and unpinned flows, before
   and after live migrations (the assertion ``_crc_shard``'s docstring
   points at).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane.sharding import ShardedScallopPipeline, flow_shard
from repro.netsim.datagram import Address, Datagram
from repro.rtp.extensions import ExtensionElement, encode_extensions
from repro.rtp.packet import SEQ_MOD, RtpHeaderExtension, RtpPacket
from repro.rtp.rtcp import SenderReport
from repro.rtp.wire import PacketView
from repro.rtp.wirebatch import (
    RECORD_OBJECT,
    RECORD_OTHER,
    RECORD_WIRE,
    WireBatchView,
)
from repro.stun.message import make_binding_request

SFU = Address("10.0.0.1", 5000)


# --------------------------------------------------------------------------- strategies

extension_elements = st.lists(
    st.builds(
        ExtensionElement,
        ext_id=st.integers(min_value=1, max_value=30),
        data=st.binary(min_size=1, max_size=24),
    ),
    min_size=1,
    max_size=3,
    unique_by=lambda e: e.ext_id,
)


@st.composite
def rtp_packets(draw):
    """Random RTP packets spanning CSRCs, extension profiles, and padding."""
    extension = None
    if draw(st.booleans()):
        extension = encode_extensions(draw(extension_elements))
    return RtpPacket(
        ssrc=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        sequence_number=draw(st.integers(min_value=0, max_value=SEQ_MOD - 1)),
        timestamp=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        payload_type=draw(st.integers(min_value=0, max_value=127)),
        marker=draw(st.booleans()),
        padding=draw(st.booleans()),
        csrcs=tuple(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=2**32 - 1),
                    min_size=0,
                    max_size=4,
                )
            )
        ),
        extension=extension,
        payload=draw(st.binary(min_size=0, max_size=64)),
    )


addresses = st.builds(
    Address,
    ip=st.sampled_from([f"10.1.0.{host}" for host in range(1, 7)]),
    port=st.sampled_from([4000, 4001, 4002]),
)

#: One burst row: an RTP packet plus how it rides the wire (``"wire"`` =
#: serialized ``PacketView``, ``"object"`` = decoded dataclass), or a raw
#: non-RTP payload (``"other"``).
burst_rows = st.lists(
    st.one_of(
        st.tuples(st.just("wire"), addresses, rtp_packets()),
        st.tuples(st.just("object"), addresses, rtp_packets()),
        st.tuples(
            st.just("other"), addresses, st.binary(min_size=1, max_size=40)
        ),
    ),
    min_size=1,
    max_size=12,
)


def build_burst(rows):
    datagrams = []
    for kind, src, body in rows:
        if kind == "wire":
            payload = PacketView(bytearray(body.serialize()))
        else:
            payload = body
        datagrams.append(Datagram(src=src, dst=SFU, payload=payload))
    return datagrams


# --------------------------------------------------------------------------- extraction


class TestColumnarExtraction:
    @given(rows=burst_rows)
    @settings(max_examples=60, deadline=None)
    def test_columns_match_per_packet_accessors(self, rows):
        datagrams = build_burst(rows)
        view = WireBatchView.from_datagrams(datagrams)
        assert len(view) == len(datagrams)
        assert view.datagrams is datagrams
        for index, datagram in enumerate(datagrams):
            assert view.sources[view.src_index[index]] == datagram.src
            assert view.wire_size[index] == datagram.size
            payload = datagram.payload
            if isinstance(payload, PacketView):
                assert view.kinds[index] == RECORD_WIRE
                assert view.ssrc[index] == payload.ssrc
                assert view.seq[index] == payload.sequence_number
                assert view.pt[index] == payload.payload_type
                assert view.marker[index] == (1 if payload.marker else 0)
            elif isinstance(payload, RtpPacket):
                assert view.kinds[index] == RECORD_OBJECT
                assert view.ssrc[index] == payload.ssrc
                assert view.seq[index] == payload.sequence_number
                assert view.pt[index] == payload.payload_type
                assert view.marker[index] == (1 if payload.marker else 0)
            else:
                assert view.kinds[index] == RECORD_OTHER
                assert view.ssrc[index] == -1
                assert view.seq[index] == -1
                assert view.pt[index] == -1
                assert view.marker[index] == 0

    @given(rows=burst_rows)
    @settings(max_examples=30, deadline=None)
    def test_sources_are_interned_per_burst(self, rows):
        datagrams = build_burst(rows)
        view = WireBatchView.from_datagrams(datagrams)
        # every distinct source appears exactly once, in first-seen order
        assert len(set(view.sources)) == len(view.sources)
        seen = []
        for datagram in datagrams:
            if datagram.src not in seen:
                seen.append(datagram.src)
        assert view.sources == seen

    def test_empty_burst(self):
        view = WireBatchView.from_datagrams([])
        assert len(view) == 0
        assert view.sources == []

    def test_rtcp_and_stun_rows_carry_no_media_key(self):
        src = Address("10.1.0.2", 4000)
        datagrams = [
            Datagram(src=src, dst=SFU, payload=(SenderReport(sender_ssrc=77),)),
            Datagram(src=src, dst=SFU, payload=make_binding_request(bytes(12), "u")),
        ]
        view = WireBatchView.from_datagrams(datagrams)
        assert list(view.kinds) == [RECORD_OTHER, RECORD_OTHER]
        assert list(view.ssrc) == [-1, -1]
        assert list(view.src_index) == [0, 0]
        assert view.sources == [src]

    def test_wire_and_object_twins_share_a_flow_key(self):
        packet = RtpPacket(ssrc=4242, sequence_number=9, timestamp=1, payload_type=96, payload=b"x")
        src = Address("10.1.0.3", 4001)
        datagrams = [
            Datagram(src=src, dst=SFU, payload=packet),
            Datagram(src=src, dst=SFU, payload=PacketView(bytearray(packet.serialize()))),
        ]
        view = WireBatchView.from_datagrams(datagrams)
        assert list(view.kinds) == [RECORD_OBJECT, RECORD_WIRE]
        assert (view.src_index[0], view.ssrc[0]) == (view.src_index[1], view.ssrc[1])
        assert list(view.seq) == [9, 9]
        assert view.wire_size[0] == view.wire_size[1]


# --------------------------------------------------------------------------- flow-key cache


class TestShardAssignmentIdentity:
    """The memoized CRC cache is routing-invisible (satellite of PR 8).

    ``_crc_shard``'s docstring points here: the bounded per-engine cache and
    the placement fast path must produce exactly the shard the uncached
    ``flow_shard`` / ``shard_for_flow`` pair would have picked.
    """

    def _flows(self, count=64, seed=8):
        rng = random.Random(seed)
        return [
            (
                Address(f"10.2.{rng.randrange(4)}.{rng.randrange(1, 30)}", 4000 + rng.randrange(8)),
                rng.randrange(2**32),
            )
            for _ in range(count)
        ]

    def test_crc_shard_matches_flow_shard(self):
        engine = ShardedScallopPipeline(SFU, n_shards=4)
        try:
            flows = self._flows()
            for src, ssrc in flows:
                assert engine._crc_shard(src, ssrc) == flow_shard(src, ssrc, 4)
            # second pass is all cache hits — answers must not drift
            for src, ssrc in flows:
                assert engine._crc_shard(src, ssrc) == flow_shard(src, ssrc, 4)
            assert len(engine._crc_cache) == len({f for f in flows})
        finally:
            engine.close()

    def test_shard_of_key_matches_shard_for_flow_across_migrations(self):
        engine = ShardedScallopPipeline(SFU, n_shards=4)
        try:
            flows = self._flows(count=32, seed=81)
            engine._sync_placement_cache()
            for src, ssrc in flows:
                assert engine._shard_of_key((src, ssrc)) == engine.shard_for_flow(src, ssrc)
            # pin a third of the flows away from their CRC default
            pinned = flows[::3]
            for src, ssrc in pinned:
                target = (flow_shard(src, ssrc, 4) + 1) % 4
                assert engine.migrate_flow(src, ssrc, target)
            engine._sync_placement_cache()
            for src, ssrc in flows:
                expected = engine.shard_for_flow(src, ssrc)
                assert engine._shard_of_key((src, ssrc)) == expected
                if (src, ssrc) in set(pinned):
                    assert expected == (flow_shard(src, ssrc, 4) + 1) % 4
                else:
                    assert expected == flow_shard(src, ssrc, 4)
            # unpin: routing must fall back to the CRC default everywhere
            for src, ssrc in pinned:
                engine.control.remove_placement(src, ssrc)
            engine._sync_placement_cache()
            for src, ssrc in flows:
                assert engine._shard_of_key((src, ssrc)) == flow_shard(src, ssrc, 4)
        finally:
            engine.close()

    def test_cache_bound_is_enforced(self):
        engine = ShardedScallopPipeline(SFU, n_shards=2)
        try:
            limit = engine.FLOW_SHARD_CACHE_LIMIT
            engine.FLOW_SHARD_CACHE_LIMIT = 8
            src = Address("10.3.0.1", 4000)
            for ssrc in range(40):
                engine._crc_shard(src, ssrc)
                assert len(engine._crc_cache) <= 8
            # the cache keeps answering correctly through clears
            for ssrc in range(40):
                assert engine._crc_shard(src, ssrc) == flow_shard(src, ssrc, 2)
        finally:
            engine.FLOW_SHARD_CACHE_LIMIT = limit
            engine.close()
