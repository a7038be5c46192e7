"""Columnar bulk extraction over a burst of RTP records (`WireBatchView`).

The sharded coordinator reads the same fields off every packet of a burst —
source and SSRC — to partition it and fold telemetry.  Doing that through
per-packet accessors costs a Python method call (or three) per field per
packet; at coordinator scale the burst is the natural unit, not the
packet.  :class:`WireBatchView` makes **one pass** over the burst and yields
the fields as parallel columns (stdlib ``array`` typed arrays — the repo
takes no numpy dependency), extracted with one precompiled
:class:`struct.Struct` unpack per wire record.

Columnar layout
---------------

One row per ingress datagram, in burst order.  Columns (all ``array``):

``kinds``      ``'B'``  — :data:`RECORD_WIRE` (PacketView payload),
                          :data:`RECORD_OBJECT` (RtpPacket payload), or
                          :data:`RECORD_OTHER` (RTCP / STUN / raw bytes).
``src_index``  ``'I'``  — index into :attr:`sources` (per-burst interned
                          source addresses; a burst has few sources and many
                          packets, so address hashing happens per source).
``ssrc``       ``'q'``  — media SSRC, or ``-1`` for non-RTP records (signed
                          so the partitioner's source-only bucketing of
                          control traffic needs no separate flag check).
``seq``        ``'i'``  — RTP sequence number (``-1`` for non-RTP).
``pt``         ``'i'``  — payload type (``-1`` for non-RTP).
``marker``     ``'B'``  — marker bit as 0/1 (0 for non-RTP).
``wire_size``  ``'I'``  — UDP payload size (``Datagram.size``, every record).

Wire records fill their row from a single ``_FIXED_HEADER.unpack_from`` on
the buffer; object records read the already-decoded dataclass attributes
(cheap loads, no construction — the wire-hygiene archlint rule covers this
module).  Bulk extraction is property-tested field-identical to per-packet
:class:`~repro.rtp.wire.PacketView` accessors in ``tests/test_wirebatch.py``.

When the per-packet path remains
--------------------------------

Non-RTP records (RTCP compounds, STUN, raw junk) only contribute
``src_index``/``wire_size`` rows; everything else about them — parsing and
feedback fan-out — stays on the per-packet path, which is fine because they
are a vanishing fraction of a media burst.
"""

from __future__ import annotations

from array import array
from typing import List, Sequence

from ..netsim.datagram import Address, Datagram
from .packet import RtpPacket
from .wire import _FIXED_HEADER, PacketView

#: Row kinds (the ``kinds`` column).
RECORD_OTHER = 0   # RTCP / STUN / raw bytes: src + size only, per-packet path
RECORD_WIRE = 1    # PacketView payload: columns unpacked off the buffer
RECORD_OBJECT = 2  # RtpPacket payload: columns read off the dataclass


class WireBatchView:
    """Parallel field columns over one burst of ingress datagrams."""

    __slots__ = (
        "datagrams",
        "sources",
        "kinds",
        "src_index",
        "ssrc",
        "seq",
        "pt",
        "marker",
        "wire_size",
    )

    def __init__(
        self,
        datagrams: Sequence[Datagram],
        sources: List[Address],
        kinds: array,
        src_index: array,
        ssrc: array,
        seq: array,
        pt: array,
        marker: array,
        wire_size: array,
    ) -> None:
        self.datagrams = datagrams
        self.sources = sources
        self.kinds = kinds
        self.src_index = src_index
        self.ssrc = ssrc
        self.seq = seq
        self.pt = pt
        self.marker = marker
        self.wire_size = wire_size

    def __len__(self) -> int:
        return len(self.kinds)

    @classmethod
    def from_datagrams(cls, datagrams: Sequence[Datagram]) -> "WireBatchView":
        """One pass over the burst, filling every column.

        The loop body is the columnar replacement for ``len(burst)`` calls
        to ``payload.ssrc`` / ``payload.sequence_number`` / … — one
        precompiled struct unpack per wire record, plain attribute loads per
        object record, local-bound list appends for everything.
        """
        unpack = _FIXED_HEADER.unpack_from
        src_ids: dict = {}
        sources: List[Address] = []
        kinds: List[int] = []
        src_col: List[int] = []
        ssrc_col: List[int] = []
        seq_col: List[int] = []
        pt_col: List[int] = []
        marker_col: List[int] = []
        size_col: List[int] = []
        k_append = kinds.append
        src_append = src_col.append
        ssrc_append = ssrc_col.append
        seq_append = seq_col.append
        pt_append = pt_col.append
        m_append = marker_col.append
        size_append = size_col.append
        get_src = src_ids.get
        for datagram in datagrams:
            src = datagram.src
            index = get_src(src)
            if index is None:
                index = src_ids[src] = len(sources)
                sources.append(src)
            src_append(index)
            size_append(datagram.size)
            payload = datagram.payload
            if isinstance(payload, PacketView):
                _first, second, seq, _ts, ssrc = unpack(payload.buf, 0)
                k_append(RECORD_WIRE)
                ssrc_append(ssrc)
                seq_append(seq)
                pt_append(second & 0x7F)
                m_append(second >> 7)
            elif isinstance(payload, RtpPacket):
                k_append(RECORD_OBJECT)
                ssrc_append(payload.ssrc)
                seq_append(payload.sequence_number)
                pt_append(payload.payload_type)
                m_append(1 if payload.marker else 0)
            else:
                k_append(RECORD_OTHER)
                ssrc_append(-1)
                seq_append(-1)
                pt_append(-1)
                m_append(0)
        return cls(
            datagrams,
            sources,
            array("B", kinds),
            array("I", src_col),
            array("q", ssrc_col),
            array("i", seq_col),
            array("i", pt_col),
            array("B", marker_col),
            array("I", size_col),
        )
