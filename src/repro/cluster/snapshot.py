"""Versioned control-plane snapshots for cross-SFU meeting migration.

A migration ships three things between boxes, none of them pickled:

* the dataplane's per-flow state — adaptation entries plus packed sequence-
  rewriter register images, via
  :meth:`~repro.dataplane.pipeline.PipelineControlPlane.export_flow_state`
  (the PR 4 ``pack_rewriter_state`` wire format generalized across boxes),
* the agent's decode-target tracker records (current target + estimate
  history per (sender, receiver) pair, so hysteresis survives the cutover),
* each sender's learned SVC template structure (so template resolution does
  not regress to the l1t3 default until the next key frame).

Every snapshot carries :data:`~repro.dataplane.pipeline.CONTROL_SNAPSHOT_VERSION`;
restore goes through :func:`~repro.dataplane.pipeline.decode_flow_state`, the
single enforcement point that rejects a mismatched version loudly
(:class:`~repro.dataplane.pipeline.SnapshotVersionError`) instead of
best-effort-guessing field semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..dataplane.pipeline import CONTROL_SNAPSHOT_VERSION, decode_flow_state
from ..rtp.av1 import TemplateStructure

#: Fixed per-record framing estimate (key fields + lengths) used by
#: :func:`snapshot_size_bytes`; the dominant term is the packed rewriter.
_RECORD_OVERHEAD_BYTES = 24


@dataclass(frozen=True)
class MeetingSnapshot:
    """Everything one box ships when a meeting migrates away from it."""

    meeting_id: str
    version: int
    #: versioned flow payload (``export_flow_state`` dict)
    flows: dict
    #: decode-target tracker records (sender, receiver, target, history)
    decode_targets: Tuple[Tuple[str, str, int, Tuple[float, ...]], ...]
    #: learned SVC structure per migrating sender
    structures: Dict[str, TemplateStructure] = field(default_factory=dict)
    #: participant ids covered by this snapshot
    participant_ids: Tuple[str, ...] = ()


def snapshot_size_bytes(snapshot: MeetingSnapshot) -> int:
    """Shipped size of a snapshot: packed rewriter images plus framing (the
    ``repro.trunk.snapshot_bytes`` counter; no pickle, so the size is the sum
    of the packed forms, not an object graph)."""
    total = 0
    for record in snapshot.flows["flows"]:
        total += len(record["rewriter"]) + _RECORD_OVERHEAD_BYTES
    total += sum(
        _RECORD_OVERHEAD_BYTES + 8 * len(history)
        for _s, _r, _t, history in snapshot.decode_targets
    )
    return total


def snapshot_meeting(sfu, meeting_id: str) -> MeetingSnapshot:
    """Image one meeting's migratable state on its current box.

    Flows are filtered to the box's local receivers of the meeting — by the
    egress-locality invariant those are exactly the flows whose rewriters
    live here, whether the sender is local or trunked in.
    """
    meeting = sfu.controller.meetings.get(meeting_id)
    records = list(meeting.participants.values()) if meeting is not None else []
    participant_ids = tuple(sorted(record.participant_id for record in records))
    addresses = {record.address for record in records}
    flows = sfu.pipeline.export_flow_state(receivers=addresses)
    decode_records = tuple(sfu.agent.decode_targets.export_for(participant_ids))
    structures: Dict[str, TemplateStructure] = {}
    for pid in participant_ids:
        structure = sfu.agent.sender_structure(pid)
        if structure is not None:
            structures[pid] = structure
    return MeetingSnapshot(
        meeting_id=meeting_id,
        version=CONTROL_SNAPSHOT_VERSION,
        flows=flows,
        decode_targets=decode_records,
        structures=structures,
        participant_ids=participant_ids,
    )


def restore_meeting(snapshot: MeetingSnapshot, sfu) -> int:
    """Adopt a shipped snapshot on the destination box; returns flows restored.

    Must run *after* the covered participants have joined the destination
    (their endpoints/meeting state exist) and restores through the agent's
    adoption API so the next REMB updates templates in place instead of
    resetting the shipped rewriter images.  Version enforcement happens in
    :func:`~repro.dataplane.pipeline.decode_flow_state` before any state is
    touched.
    """
    records = decode_flow_state(snapshot.flows)
    with sfu.pipeline.batched_writes():
        for sender_ssrc, receiver, allowed, rewriter in records:
            sfu.agent.adopt_adaptation(snapshot.meeting_id, sender_ssrc, receiver, allowed, rewriter)
    sfu.agent.decode_targets.adopt(snapshot.decode_targets)
    for pid, structure in snapshot.structures.items():
        sfu.agent.adopt_sender_structure(pid, structure)
    return len(records)
