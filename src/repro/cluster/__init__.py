"""repro.cluster — multi-SFU federation.

Inter-SFU trunks (one subscription per co-hosted meeting, fanned out through
the subscriber's own PRE), the :class:`SfuCluster` placement coordinator, and
cross-SFU meeting migration over versioned zero-pickle control-plane
snapshots.
"""

from .cluster import ClusterSfu, SfuCluster, audit_box, trunk_participant_id
from .snapshot import (
    MeetingSnapshot,
    restore_meeting,
    snapshot_meeting,
    snapshot_size_bytes,
)
from .trunk import TRUNK_FORWARD_SRC_META, SfuTrunk, TrunkManager, TrunkStats

__all__ = [
    "ClusterSfu",
    "SfuCluster",
    "audit_box",
    "MeetingSnapshot",
    "SfuTrunk",
    "TrunkManager",
    "TrunkStats",
    "TRUNK_FORWARD_SRC_META",
    "restore_meeting",
    "snapshot_meeting",
    "snapshot_size_bytes",
    "trunk_participant_id",
]
