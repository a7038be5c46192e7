# archlint: module=repro.dataplane.pipeline
"""Purpose-built violating fixture: one finding per archlint rule.

CI runs ``python -m tools.archlint --no-baseline tools/archlint/fixtures``
and requires a non-zero exit, proving the gate actually gates.  The module
override on line 1 puts this file in the scoped rules' jurisdiction without
it living under ``src/``.  DO NOT "fix" these violations.
"""

import pickle  # rule 2: zero-pickle — pickle is banned outright
import random


class PipelineDatapath:
    def _resolve_and_cache(self, datagram):
        self.pre.copies_produced += 1  # rule 1: share-nothing — datapath writes PRE state
        self.stream_table.install(("flow", 1), datagram)  # rule 3 (and 1): bypasses control plane
        return pickle.dumps(datagram)

    def _process_media(self, datagram):
        jitter = random.random()  # rule 4: determinism — bare module-level RNG
        packet = RtpPacket(ssrc=1, sequence_number=int(jitter * 100))  # rule 5: wire-hygiene
        return packet


def forget_meeting(sfu, meeting_id):
    sfu.agent.replication.remove_meeting(meeting_id)  # rule 6: one-membership-path


class RtpPacket:
    def __init__(self, ssrc, sequence_number):
        self.ssrc = ssrc
        self.sequence_number = sequence_number
