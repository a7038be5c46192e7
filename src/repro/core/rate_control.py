"""Rate-adaptation logic that runs on the switch agent (paper §5.3 and §5.4).

Two pieces live here:

* :class:`DownlinkFilter` — the filter function *f* of Figure 8.  Scallop
  splits WebRTC streams per participant so each REMB refers to exactly one
  sender; the filter keeps an EWMA of every receiver's estimates per sender,
  periodically picks the best-performing downlink, and tells the data plane to
  forward only that receiver's REMB messages to the sender.  The sender then
  transmits at the rate allowed by its uplink and the best downlink, while the
  SFU adapts the stream down for everyone else.

* :func:`select_decode_target` — the default implementation of the
  ``selectDecodeTarget(currDT, estHist, newEst)`` hook.  Adopters can plug in
  arbitrary policies; the default is the fixed-threshold heuristic the paper's
  prototype uses, with hysteresis so the decode target does not flap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..rtp.av1 import DecodeTarget

#: Default thresholds (bits/second) at which the L1T3 decode target changes.
#: Streams above ``high`` get all three temporal layers, streams between
#: ``low`` and ``high`` get two, and anything below gets only the base layer.
DEFAULT_THRESHOLD_HIGH_BPS = 1_200_000.0
DEFAULT_THRESHOLD_LOW_BPS = 500_000.0
#: Hysteresis factor applied when *upgrading* the decode target, so a stream
#: does not oscillate around a threshold.
UPGRADE_HYSTERESIS = 1.15

SelectDecodeTargetFn = Callable[[DecodeTarget, Sequence[float], float], DecodeTarget]


def select_decode_target(
    current: DecodeTarget,
    estimate_history: Sequence[float],
    new_estimate: float,
    threshold_high_bps: float = DEFAULT_THRESHOLD_HIGH_BPS,
    threshold_low_bps: float = DEFAULT_THRESHOLD_LOW_BPS,
) -> DecodeTarget:
    """The default ``selectDecodeTarget`` heuristic (fixed thresholds + hysteresis).

    ``estimate_history`` holds recent REMB values for the stream (oldest
    first); the decision uses the new estimate, requiring a margin above the
    threshold before upgrading the quality again.
    """
    if new_estimate >= threshold_high_bps * (UPGRADE_HYSTERESIS if current < DecodeTarget.DT2 else 1.0):
        return DecodeTarget.DT2
    if new_estimate >= threshold_low_bps * (UPGRADE_HYSTERESIS if current < DecodeTarget.DT1 else 1.0):
        return DecodeTarget.DT1
    return DecodeTarget.DT0


@dataclass
class _DownlinkState:
    """EWMA of one receiver's bandwidth estimates for one sender."""

    ewma_bps: float
    last_update: float
    samples: int = 1


class DownlinkFilter:
    """Selects, per sender, the best-performing downlink (filter *f* in Fig. 8).

    The switch agent feeds every REMB it copies from the data plane into
    :meth:`observe`; :meth:`best_receiver` returns the receiver whose EWMA
    estimate is currently highest for a given sender.  :meth:`reselect`
    reports whether the selection changed since the last call, which is when
    the agent must reconfigure the data plane's feedback-forwarding rules.
    """

    def __init__(self, alpha: float = 0.3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        # (sender_id, receiver_id) -> state
        self._state: Dict[Tuple[str, str], _DownlinkState] = {}
        self._selected: Dict[str, str] = {}

    def observe(self, sender_id: str, receiver_id: str, estimate_bps: float, now: float) -> None:
        """Record a REMB estimate from ``receiver_id`` about ``sender_id``'s stream."""
        key = (sender_id, receiver_id)
        state = self._state.get(key)
        if state is None:
            self._state[key] = _DownlinkState(ewma_bps=estimate_bps, last_update=now)
            return
        state.ewma_bps = self.alpha * estimate_bps + (1.0 - self.alpha) * state.ewma_bps
        state.last_update = now
        state.samples += 1

    def estimate(self, sender_id: str, receiver_id: str) -> Optional[float]:
        state = self._state.get((sender_id, receiver_id))
        return None if state is None else state.ewma_bps

    def best_receiver(self, sender_id: str) -> Optional[Tuple[str, float]]:
        """The receiver with the highest EWMA estimate for this sender."""
        best: Optional[Tuple[str, float]] = None
        for (sender, receiver), state in self._state.items():
            if sender != sender_id:
                continue
            if best is None or state.ewma_bps > best[1]:
                best = (receiver, state.ewma_bps)
        return best

    def reselect(self, sender_id: str) -> Tuple[Optional[str], bool]:
        """Pick the best downlink for a sender.

        Returns ``(receiver_id, changed)`` where ``changed`` indicates that the
        selection differs from the previous one (and the data plane's REMB
        forwarding rules must be updated).
        """
        best = self.best_receiver(sender_id)
        if best is None:
            return None, False
        receiver_id, _ = best
        changed = self._selected.get(sender_id) != receiver_id
        self._selected[sender_id] = receiver_id
        return receiver_id, changed

    def selected_receiver(self, sender_id: str) -> Optional[str]:
        return self._selected.get(sender_id)

    def forget_receiver(self, receiver_id: str) -> None:
        """Remove all state about a receiver that left the meeting."""
        for key in [k for k in self._state if k[1] == receiver_id]:
            del self._state[key]
        for sender in [s for s, r in self._selected.items() if r == receiver_id]:
            del self._selected[sender]

    def forget_sender(self, sender_id: str) -> None:
        for key in [k for k in self._state if k[0] == sender_id]:
            del self._state[key]
        self._selected.pop(sender_id, None)


@dataclass
class DecodeTargetTracker:
    """Per (sender, receiver) decode-target state maintained by the agent."""

    select_fn: SelectDecodeTargetFn = select_decode_target
    history_length: int = 16
    _targets: Dict[Tuple[str, str], DecodeTarget] = field(default_factory=dict)
    _history: Dict[Tuple[str, str], List[float]] = field(default_factory=dict)

    def current(self, sender_id: str, receiver_id: str) -> DecodeTarget:
        return self._targets.get((sender_id, receiver_id), DecodeTarget.DT2)

    def update(self, sender_id: str, receiver_id: str, new_estimate_bps: float) -> Tuple[DecodeTarget, bool]:
        """Feed a new estimate; returns ``(decode_target, changed)``."""
        key = (sender_id, receiver_id)
        history = self._history.setdefault(key, [])
        current = self._targets.get(key, DecodeTarget.DT2)
        new_target = self.select_fn(current, tuple(history), new_estimate_bps)
        history.append(new_estimate_bps)
        if len(history) > self.history_length:
            del history[: len(history) - self.history_length]
        changed = new_target != current
        self._targets[key] = new_target
        return new_target, changed

    def forget(self, participant_id: str) -> None:
        for key in [k for k in self._targets if participant_id in k]:
            self._targets.pop(key, None)
            self._history.pop(key, None)

    def export_for(self, participant_ids) -> List[Tuple[str, str, int, Tuple[float, ...]]]:
        """Image the decode-target state of pairs touching ``participant_ids``
        as plain records (sender, receiver, target value, estimate history) —
        the agent-side half of a cross-SFU meeting migration snapshot.
        Deterministically ordered so identical trackers export identically."""
        ids = set(participant_ids)
        records: List[Tuple[str, str, int, Tuple[float, ...]]] = []
        for key in sorted(k for k in self._targets if k[0] in ids or k[1] in ids):
            records.append(
                (key[0], key[1], int(self._targets[key]), tuple(self._history.get(key, ())))
            )
        return records

    def adopt(self, records) -> None:
        """Restore records produced by :meth:`export_for` into this tracker,
        so a migrated meeting's next REMB continues the same hysteresis state
        instead of re-deciding from the DT2 default."""
        for sender_id, receiver_id, target, history in records:
            key = (sender_id, receiver_id)
            self._targets[key] = DecodeTarget(target)
            self._history[key] = list(history)
