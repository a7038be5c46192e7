"""Receiver-side Google Congestion Control (GCC) producing REMB estimates.

Scallop adopts GCC's *receiver-driven* mode (paper §5.2): each receiver
estimates the available bandwidth of its path from packet arrival-time
variation and periodically reports it upstream with REMB messages.  This
module implements a faithful-but-compact version of that estimator:

* an **arrival filter** computes the inter-group delay gradient (the change in
  one-way queuing delay between consecutive packet bursts),
* an **over-use detector** compares the gradient against an adaptive
  threshold, and
* a **rate controller** (AIMD) raises the estimate multiplicatively while the
  path is underused and cuts it to ``beta * incoming_rate`` on overuse.

The absolute constants follow the published GCC description (Carlucci et al.,
"Congestion Control for Web Real-Time Communication").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

#: Bounds of the adaptive over-use threshold.  The detector operates on the
#: *slope* of the one-way queuing delay (seconds of delay growth per second),
#: so 0.01 means the queue grows by 10 ms every second.
ADAPTIVE_THRESHOLD_MIN = 0.005
ADAPTIVE_THRESHOLD_MAX = 0.5
BETA = 0.85
INCREASE_FACTOR = 1.05
RATE_WINDOW_S = 1.0
MIN_ESTIMATE_BPS = 50_000.0
MAX_ESTIMATE_BPS = 30_000_000.0
#: The estimate never runs more than this factor ahead of the measured
#: incoming rate (GCC's 1.5x cap on the REMB value).
OVERSHOOT_FACTOR = 1.5


#: Packets whose send times are within this window belong to the same burst
#: (packet group); GCC's arrival filter works on inter-group delay variation
#: so that the serialization of a multi-packet video frame does not look like
#: congestion.
BURST_INTERVAL_S = 0.005


@dataclass
class _PacketGroup:
    first_send_time: float
    last_send_time: float
    last_recv_time: float
    size_bytes: int = 0


class RemoteBitrateEstimator:
    """Receiver-side bandwidth estimator for a single incoming transport.

    ``on_packet`` is called for every received media packet with its send and
    receive timestamps (the send time is derived from the RTP timestamp by the
    caller); ``estimate_bps`` is the current REMB value.
    """

    def __init__(self, initial_estimate_bps: float = 1_500_000.0) -> None:
        self._estimate_bps = float(initial_estimate_bps)
        #: ``(recv_time, size_bytes)`` per packet of the rate window in call
        #: order, their running byte total, and how many adjacent pairs run
        #: backwards in time (burst schedules with jitter are not monotone)
        self._arrivals: Deque[Tuple[float, int]] = deque()
        self._window_bytes = 0
        self._inversions = 0
        self._current_group: Optional[_PacketGroup] = None
        self._previous_group: Optional[_PacketGroup] = None
        self._delay_slope_avg = 0.0
        self._threshold = 0.02
        self._state = "hold"
        self._last_update_time: Optional[float] = None
        self.overuse_events = 0
        self.underuse_events = 0

    @property
    def estimate_bps(self) -> float:
        return self._estimate_bps

    @property
    def state(self) -> str:
        """Current detector state: ``increase``, ``hold`` or ``decrease``."""
        return self._state

    # -- input -------------------------------------------------------------------

    def on_packet(self, recv_time: float, send_time: float, size_bytes: int) -> None:
        """Register the arrival of one media packet."""
        arrivals = self._arrivals
        if arrivals and recv_time < arrivals[-1][0]:
            self._inversions += 1
        arrivals.append((recv_time, size_bytes))
        self._window_bytes += size_bytes
        cutoff = recv_time - RATE_WINDOW_S
        while arrivals[0][0] < cutoff:
            expired_time, expired_bytes = arrivals.popleft()
            self._window_bytes -= expired_bytes
            if arrivals[0][0] < expired_time:
                self._inversions -= 1
        if self._last_update_time is None:
            self._last_update_time = recv_time

        group = self._current_group
        if group is not None and send_time - group.first_send_time <= BURST_INTERVAL_S:
            # the packet belongs to the current burst (e.g. one video frame)
            group.last_send_time = max(group.last_send_time, send_time)
            group.last_recv_time = max(group.last_recv_time, recv_time)
            group.size_bytes += size_bytes
            return

        # the current burst ended; compare it against the previous one
        if group is not None and self._previous_group is not None:
            d_send = group.last_send_time - self._previous_group.last_send_time
            d_recv = group.last_recv_time - self._previous_group.last_recv_time
            if d_send > 1e-9:
                slope = (d_recv - d_send) / d_send
                self._delay_slope_avg = 0.8 * self._delay_slope_avg + 0.2 * slope
                self._update_threshold(slope)
                self._detect(recv_time)
        if group is not None:
            self._previous_group = group
        self._current_group = _PacketGroup(
            first_send_time=send_time,
            last_send_time=send_time,
            last_recv_time=recv_time,
            size_bytes=size_bytes,
        )

    # -- estimator internals -------------------------------------------------------

    def _update_threshold(self, slope: float) -> None:
        k = 0.01 if abs(slope) < self._threshold else 0.0005
        self._threshold += k * (abs(slope) - self._threshold)
        self._threshold = min(ADAPTIVE_THRESHOLD_MAX, max(ADAPTIVE_THRESHOLD_MIN, self._threshold))

    def _detect(self, now: float) -> None:
        if self._delay_slope_avg > self._threshold:
            self._state = "decrease"
            self.overuse_events += 1
        elif self._delay_slope_avg < -self._threshold:
            self._state = "hold"
            self.underuse_events += 1
        else:
            self._state = "increase"
        self._update_rate(now)

    def incoming_rate_bps(self, now: float) -> float:
        """Received bitrate over the last :data:`RATE_WINDOW_S` seconds."""
        arrivals = self._arrivals
        if not arrivals:
            return 0.0
        oldest = arrivals[0][0]
        window_start = max(oldest, now - RATE_WINDOW_S)
        duration = max(1e-3, now - window_start)
        if window_start == oldest and not self._inversions:
            # receive times ascend from the window start: every arrival is
            # inside the window and the running total is the scan's sum
            total_bytes = self._window_bytes
        else:
            total_bytes = sum(size for recv_time, size in arrivals if recv_time >= window_start)
        return total_bytes * 8.0 / duration

    def _update_rate(self, now: float) -> None:
        if self._last_update_time is None:
            self._last_update_time = now
            return
        elapsed = now - self._last_update_time
        if elapsed < 0.05:
            return
        self._last_update_time = now

        incoming = self.incoming_rate_bps(now)
        if self._state == "decrease":
            self._estimate_bps = max(MIN_ESTIMATE_BPS, BETA * max(incoming, MIN_ESTIMATE_BPS))
        elif self._state == "increase":
            # while the path is underused the estimate tracks the measured
            # incoming rate and probes multiplicatively above it, but never
            # runs more than OVERSHOOT_FACTOR ahead of what actually arrives.
            increased = self._estimate_bps * (INCREASE_FACTOR ** min(1.0, elapsed))
            if incoming > 0:
                candidate = max(increased, incoming)
                ceiling = max(OVERSHOOT_FACTOR * incoming, MIN_ESTIMATE_BPS)
                self._estimate_bps = min(MAX_ESTIMATE_BPS, candidate, ceiling)
            else:
                self._estimate_bps = min(MAX_ESTIMATE_BPS, increased)
        # "hold" keeps the estimate unchanged

    def force_estimate(self, bitrate_bps: float) -> None:
        """Override the estimate (used by tests and trace replay)."""
        self._estimate_bps = min(MAX_ESTIMATE_BPS, max(MIN_ESTIMATE_BPS, bitrate_bps))
