"""A small discrete-event simulator.

All end-to-end experiments in the reproduction (overload of the software SFU,
forwarding-latency CDFs, rate-adaptation traces, the Table 1 packet accounting)
run on this engine.  It is intentionally minimal: a monotonic clock, a binary
heap of timestamped events, and deterministic FIFO ordering for events that
share a timestamp.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, List, Optional, Sequence


class SimulationError(RuntimeError):
    """Raised on scheduling errors (e.g. scheduling in the past)."""


class EventHandle(list):
    """One pending event: ``[time, order, callback, args]``.

    The heap entry is itself the handle :meth:`Simulator.schedule` returns.
    Being a list, entries compare in C, and ``order`` is unique, so a
    comparison never reaches the callback.  Cancelling nulls the callback;
    the run loop skips such entries when they surface.
    """

    __slots__ = ()

    def cancel(self) -> None:
        """Cancel the event if it has not fired yet."""
        self[2] = None

    @property
    def time(self) -> float:
        return self[0]

    @property
    def cancelled(self) -> bool:
        return self[2] is None


class Simulator:
    """Discrete-event simulation engine with a floating-point clock in seconds."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[EventHandle] = []
        self._counter = itertools.count()
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (useful for sanity checks)."""
        return self._events_processed

    #: Negative delays no larger than this are treated as floating-point
    #: drift and clamped to "now".  Periodic processes computing absolute
    #: deadlines (``schedule_at(start + n * interval)``) accumulate error on
    #: the order of one ULP per step; without the clamp a multi-hour
    #: rate-adaptation run crashes on an infinitesimally negative delta.
    NEGATIVE_DELAY_TOLERANCE = 1e-9

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            if delay < -self.NEGATIVE_DELAY_TOLERANCE:
                raise SimulationError(f"cannot schedule in the past (delay={delay})")
            delay = 0.0
        event = EventHandle((self._now + delay, next(self._counter), callback, args))
        heapq.heappush(self._queue, event)
        return event

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``."""
        return self.schedule(time - self._now, callback, *args)

    def schedule_batch(self, delay: float, callbacks: Sequence[Callable[[], None]]) -> EventHandle:
        """Schedule a list of callbacks to fire back-to-back as one event.

        Burst delivery uses this so an N-packet burst costs one heap
        operation instead of N; the callbacks run in FIFO order at the same
        timestamp, which is exactly what :meth:`schedule` in a loop would
        produce for equal delays.
        """
        return self.schedule(delay, lambda: [callback() for callback in callbacks])

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue is empty, ``until`` is reached, or
        ``max_events`` have been processed.

        When ``until`` is given the clock is advanced to exactly ``until`` even
        if the queue drains earlier, so periodic processes can compute rates
        over a fixed horizon.
        """
        queue = self._queue
        heappop = heapq.heappop
        horizon = math.inf if until is None else until
        processed = 0
        try:
            while queue:
                time, _order, callback, args = event = heappop(queue)
                if time > horizon:
                    # put it back: the (time, order) keys are unique, so the
                    # pop sequence does not depend on the heap's layout
                    heapq.heappush(queue, event)
                    break
                if callback is None:
                    continue
                # popped times never go backwards: schedule() clamps
                # negative delays and the horizon only ever moves forwards
                self._now = time
                callback(*args)
                processed += 1
                if max_events is not None and processed >= max_events:
                    return
        finally:
            self._events_processed += processed
        if until is not None and self._now < until:
            self._now = until

    def run_for(self, duration: float) -> None:
        """Run for ``duration`` seconds of simulated time."""
        self.run(until=self._now + duration)

    def clear(self) -> None:
        """Drop all pending events (used between experiment phases)."""
        self._queue.clear()
