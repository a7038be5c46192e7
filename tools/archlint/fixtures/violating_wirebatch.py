# archlint: module=repro.rtp.wirebatch
"""Violating fixture for the wire-hygiene rule's wirebatch jurisdiction.

The columnar bulk-extraction module is fast path in its entirety, so
constructing ``RtpPacket`` (or round-tripping through ``to_packet``)
anywhere in it must be flagged — including module scope and helper
functions, not just ``_process_media``-named scopes.  CI runs the
fixtures directory with ``--no-baseline`` and requires a non-zero exit,
proving the extended rule bites.  DO NOT "fix" these violations.
"""


def from_datagrams(datagrams):
    rows = []
    for datagram in datagrams:
        # rule 5: wire-hygiene — columnar pass materializes the object model
        packet = RtpPacket(ssrc=1, sequence_number=0)
        rows.append(packet)
    return rows


def replay_payloads(view, seqs):
    # rule 5: wire-hygiene — object-model round trip inside the bulk mutator
    return [view.to_packet() for _ in seqs]


class RtpPacket:
    def __init__(self, ssrc, sequence_number):
        self.ssrc = ssrc
        self.sequence_number = sequence_number
