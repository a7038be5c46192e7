"""Link and network models for the discrete-event simulator.

The topology used by every experiment is the SFU star of Figure 1: each
participant has an access link (uplink towards the SFU, downlink from it) and
the SFU sits behind a high-capacity switch port.  A :class:`LinkProfile`
captures the properties the paper varies — bandwidth, propagation delay,
jitter, random loss, and reordering — and a :class:`Link` enforces them with a
simple FIFO queue (serialization delay + bounded queueing, i.e. a token-less
tail-drop queue like a home router).

Bursts are **deliver-with-schedule**: a burst rides one simulator event per
hop, but every datagram inside it carries the arrival timestamp it would have
had under per-packet delivery (``Datagram.arrived_at``, re-stamped hop by
hop through the same admission arithmetic as :meth:`Link.send`).  Receivers
therefore observe true per-packet pacing — GCC's inter-arrival filter sees
the same timings in burst mode as in per-packet mode — while batch-capable
endpoints still ingest one batch per event.  On the receive side the network
keeps a per-endpoint RX queue: every burst landing at an endpoint is drained
in one pass, so batch sizes follow instantaneous load (an IO-driven dataplane
draining its socket) instead of the sender's fixed frame-burst size.

Burst hops are payload-agnostic: re-stamping ``arrived_at`` copies the
datagram *record*, never its payload, so wire-native packets
(:class:`~repro.rtp.wire.PacketView` buffers encoded once at the sender)
ride every hop — links, merges, RX drains — as the same packed bytes until
the receiving endpoint decodes them exactly once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from heapq import heappush
from typing import Callable, Dict, List, Optional, Protocol, Sequence

from .datagram import NETWORK_OVERHEAD_BYTES, Address, Datagram
from .simulator import Simulator


class Endpoint(Protocol):
    """Anything that can receive datagrams from the network.

    Endpoints may optionally also define ``handle_datagram_batch(datagrams)``;
    the network then hands them whole RX-queue drains (see
    :meth:`Network.send_burst`) so batch-capable receivers such as the Scallop
    SFU can amortize per-packet work through their batch APIs.
    """

    address: Address

    def handle_datagram(self, datagram: Datagram) -> None:
        ...


@dataclass(frozen=True)
class LinkProfile:
    """Static properties of a one-way link."""

    bandwidth_bps: float = 1_000_000_000.0
    propagation_delay_s: float = 0.005
    jitter_s: float = 0.0
    loss_rate: float = 0.0
    reorder_rate: float = 0.0
    reorder_extra_delay_s: float = 0.03
    queue_limit_bytes: int = 256_000

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError("loss rate must be in [0, 1]")
        if not 0.0 <= self.reorder_rate <= 1.0:
            raise ValueError("reorder rate must be in [0, 1]")

    def with_bandwidth(self, bandwidth_bps: float) -> "LinkProfile":
        return replace(self, bandwidth_bps=bandwidth_bps)

    def with_loss(self, loss_rate: float) -> "LinkProfile":
        return replace(self, loss_rate=loss_rate)


#: Profile of the switch/server port the SFU is attached to (1 Gbit/s testbed
#: link in the paper's Mediasoup experiment; the Tofino port is far faster but
#: never the bottleneck in these experiments).
SFU_PORT_PROFILE = LinkProfile(bandwidth_bps=1_000_000_000.0, propagation_delay_s=0.0002)

#: A typical well-provisioned residential access link.
DEFAULT_ACCESS_PROFILE = LinkProfile(bandwidth_bps=50_000_000.0, propagation_delay_s=0.01)


def _arrival_key(datagram: Datagram) -> float:
    return datagram.arrived_at if datagram.arrived_at is not None else 0.0


class Link:
    """A one-way link delivering datagrams to a destination callback.

    Serialization delay is modelled with a per-link "busy until" time so
    back-to-back packets queue behind one another; datagrams that would exceed
    the queue limit are dropped (tail drop), which is how downlink congestion
    produces both loss and delay in the rate-adaptation experiments.
    """

    def __init__(
        self,
        simulator: Simulator,
        profile: LinkProfile,
        deliver: Callable[[Datagram], None],
        rng: Optional[random.Random] = None,
        name: str = "link",
        deliver_batch: Optional[Callable[[List[Datagram]], None]] = None,
        admission_coalesce_window_s: float = 0.0,
    ) -> None:
        self.simulator = simulator
        self.profile = profile
        self.deliver = deliver
        self.deliver_batch = deliver_batch
        self.rng = rng or random.Random(0)
        self.name = name
        self._busy_until = 0.0
        #: Monotone admission clock — a backstop for bursts from different
        #: sources reaching a shared link as separate events: their packets'
        #: scheduled admission times can interleave into the past relative to
        #: packets already admitted, and lifting late-admitted packets to this
        #: frontier keeps the queue model FIFO-in-admission-order instead of
        #: charging them phantom queue backlog built by "future" packets.
        #: The admission-coalescing window below exists to make such lifts
        #: rare: sub-bursts landing within the window are merged and admitted
        #: in true arrival order, which preserves the interleaved pacing a
        #: per-packet simulation would produce.
        self._admission_frontier = 0.0
        #: Merge window for burst admissions on shared links (0 = admit each
        #: ``send_burst`` call immediately).
        self.admission_coalesce_window_s = admission_coalesce_window_s
        self._pending_burst: List[Datagram] = []
        self._pending_flush = False
        self.packets_sent = 0
        self.packets_dropped = 0
        self.bytes_sent = 0

    def set_profile(self, profile: LinkProfile) -> None:
        """Change link properties mid-simulation (used to emulate congestion)."""
        self.profile = profile

    def send(self, datagram: Datagram) -> bool:
        """Enqueue a datagram; returns False if it was dropped."""
        # admission is FIFO: a burst held for admission coalescing arrived
        # first and must claim its queue slots before this packet, or the
        # per-packet path would overtake it and skew the burst's schedule
        if self._pending_burst:
            self._flush_pending_burst()
        simulator = self.simulator
        now = simulator._now
        delay = self._admit(datagram, now)
        if delay is None:
            return False
        # Simulator.schedule inlined (the delay is never negative): the entry
        # holds what schedule() would push, as a plain list, which compares
        # like an EventHandle; nothing cancels a link delivery
        entry = [now + delay, next(simulator._counter), self.deliver, (datagram,)]
        heappush(simulator._queue, entry)
        return True

    def send_burst(self, datagrams: Sequence[Datagram]) -> int:
        """Enqueue a burst with deliver-with-schedule semantics; returns how
        many datagrams were accepted.

        Every datagram passes through exactly the same loss, queue-limit, and
        delay arithmetic as :meth:`send`, evaluated at the datagram's own
        admission time: its ``arrived_at`` stamp from the previous hop, or
        "now" for a freshly originated burst (a sender emits a frame's packets
        back-to-back at one instant, so this matches per-packet sends).
        Admission happens in true arrival order — each call's datagrams are
        sorted by schedule first, and on a link with an admission-coalescing
        window, sub-bursts from separate upstream events landing within the
        window are merged before admission — so the queue model sees the same
        interleaving a per-packet simulation would.  Each accepted packet is
        re-stamped with its per-packet arrival time at the far end, and the
        merged burst rides a single simulator event at the last packet's
        arrival.  Returns how many datagrams were admitted (for a coalescing
        link, how many were enqueued for the deferred admission).
        """
        pending = list(datagrams)
        if self.admission_coalesce_window_s <= 0.0:
            return self._admit_burst(pending)
        self._pending_burst.extend(pending)
        if not self._pending_flush:
            self._pending_flush = True
            self.simulator.schedule(self.admission_coalesce_window_s, self._flush_pending_burst)
        return len(pending)

    def _flush_pending_burst(self) -> None:
        self._pending_flush = False
        pending, self._pending_burst = self._pending_burst, []
        if pending:
            self._admit_burst(pending)

    def _admit_burst(self, datagrams: List[Datagram]) -> int:
        now = self.simulator.now
        # admit in true arrival order (stable on ties, i.e. send order): the
        # queue/busy arithmetic, the RNG draws, and the far end must all see
        # packets in the order a per-packet simulation would produce
        datagrams.sort(key=_arrival_key)
        accepted: List[Datagram] = []
        last_arrival = now
        for datagram in datagrams:
            at = datagram.arrived_at
            if at is None:
                at = now
            delay = self._admit(datagram, at)
            if delay is None:
                continue
            arrival = at + delay
            accepted.append(datagram.restamped(arrival))
            if arrival > last_arrival:
                last_arrival = arrival
        if accepted:
            accepted.sort(key=_arrival_key)  # jitter/reordering can permute
            event_delay = max(0.0, last_arrival - now)
            if self.deliver_batch is not None:
                self.simulator.schedule(event_delay, self.deliver_batch, accepted)
            else:
                self.simulator.schedule_batch(
                    event_delay, [lambda d=datagram: self.deliver(d) for datagram in accepted]
                )
        return len(accepted)

    def _admit(self, datagram: Datagram, at: float) -> Optional[float]:
        """Run one datagram through the link model at admission time ``at``;
        returns its delivery delay relative to ``at``, or ``None`` if it was
        dropped (loss or queue overflow)."""
        profile = self.profile
        now = at
        if now < self._admission_frontier:
            now = self._admission_frontier
        else:
            self._admission_frontier = now

        if profile.loss_rate > 0 and self.rng.random() < profile.loss_rate:
            self.packets_dropped += 1
            return None

        wire_size = datagram.size + NETWORK_OVERHEAD_BYTES
        bandwidth_bps = profile.bandwidth_bps
        busy_until = self._busy_until
        if busy_until < now:
            busy_until = now  # an idle link: the queue delay below is 0.0
        queue_delay = busy_until - now
        if queue_delay * bandwidth_bps / 8.0 + wire_size > profile.queue_limit_bytes:
            self.packets_dropped += 1
            return None

        serialization = wire_size * 8.0 / bandwidth_bps
        self._busy_until = busy_until + serialization
        # the returned delay is relative to the caller's admission time, so a
        # frontier lift shows up as extra queueing delay
        delay = (now - at) + queue_delay + serialization + profile.propagation_delay_s
        if profile.jitter_s > 0:
            delay += self.rng.uniform(0, profile.jitter_s)
        if profile.reorder_rate > 0 and self.rng.random() < profile.reorder_rate:
            delay += self.rng.uniform(0, profile.reorder_extra_delay_s)

        self.packets_sent += 1
        self.bytes_sent += wire_size
        return delay

    @property
    def queue_delay(self) -> float:
        """Current queueing delay a newly arriving packet would experience."""
        return max(0.0, self._busy_until - self.simulator.now)


class Network:
    """The SFU-star network: endpoints plus per-endpoint uplink/downlink.

    Sending resolves the destination endpoint by address and routes through
    the sender's uplink and the receiver's downlink.  The SFU registers itself
    as a normal endpoint with a high-bandwidth profile.
    """

    def __init__(
        self, simulator: Simulator, seed: int = 0, rx_coalesce_window_s: float = 0.0
    ) -> None:
        self.simulator = simulator
        self._rng = random.Random(seed)
        self._endpoints: Dict[Address, Endpoint] = {}
        self._uplinks: Dict[Address, Link] = {}
        self._downlinks: Dict[Address, Link] = {}
        #: Per-endpoint receive queues for burst deliveries: every burst
        #: landing at an endpoint is appended here and drained in one pass,
        #: so the batch an endpoint sees grows with instantaneous load
        #: (adaptive batch sizing) instead of the sender's frame-burst size.
        self._rx_queues: Dict[Address, List[Datagram]] = {}
        self._rx_drain_pending: Dict[Address, bool] = {}
        #: NIC-style interrupt moderation for burst deliveries: bursts that
        #: land within this window of the first pending one join the same
        #: RX-queue drain.  Because datagrams carry their true arrival times
        #: (deliver-with-schedule), widening the window changes only *event*
        #: times, never the packet timings receivers measure; 0 coalesces
        #: same-instant deliveries only.
        self.rx_coalesce_window_s = rx_coalesce_window_s
        self.datagrams_delivered = 0

    # -- topology management --------------------------------------------------

    def attach(
        self,
        endpoint: Endpoint,
        uplink: Optional[LinkProfile] = None,
        downlink: Optional[LinkProfile] = None,
    ) -> None:
        """Attach an endpoint with the given access-link profiles."""
        address = endpoint.address
        if address in self._endpoints:
            raise ValueError(f"address already attached: {address}")
        self._endpoints[address] = endpoint
        up_profile = uplink or DEFAULT_ACCESS_PROFILE
        down_profile = downlink or DEFAULT_ACCESS_PROFILE
        # uplinks must keep admission_coalesce_window_s == 0: each sender's
        # bursts arrive in one event (no cross-source merging to do), and
        # Network.send_burst's accepted-count return relies on uplink
        # admission being synchronous (a coalescing link can only report how
        # many datagrams it enqueued, not how many survive admission)
        self._uplinks[address] = Link(
            self.simulator,
            up_profile,
            self._make_core_hop(),
            rng=random.Random(self._rng.getrandbits(32)),
            name=f"up:{address}",
            deliver_batch=self._core_hop_burst,
        )
        self._downlinks[address] = Link(
            self.simulator,
            down_profile,
            self._make_delivery(address),
            rng=random.Random(self._rng.getrandbits(32)),
            name=f"down:{address}",
            deliver_batch=self._make_delivery_burst(address),
            # a downlink is the shared fan-in point of the star: sub-bursts
            # from many uplinks land as separate events, and merging them
            # within the moderation window lets the link admit them in true
            # arrival order (interleaved, as per-packet delivery would)
            admission_coalesce_window_s=self.rx_coalesce_window_s,
        )

    def detach(self, address: Address) -> None:
        """Remove an endpoint (a participant leaving)."""
        self._endpoints.pop(address, None)
        self._uplinks.pop(address, None)
        self._downlinks.pop(address, None)
        self._rx_queues.pop(address, None)
        self._rx_drain_pending.pop(address, None)

    def endpoint(self, address: Address) -> Optional[Endpoint]:
        return self._endpoints.get(address)

    def uplink(self, address: Address) -> Link:
        return self._uplinks[address]

    def downlink(self, address: Address) -> Link:
        return self._downlinks[address]

    def set_downlink_profile(self, address: Address, profile: LinkProfile) -> None:
        """Emulate downlink congestion for one participant."""
        self._downlinks[address].set_profile(profile)

    def set_uplink_profile(self, address: Address, profile: LinkProfile) -> None:
        self._uplinks[address].set_profile(profile)

    def reprofile(
        self,
        address: Address,
        uplink: Optional[LinkProfile] = None,
        downlink: Optional[LinkProfile] = None,
    ) -> None:
        """Re-profile an attached endpoint's access links mid-simulation.

        The phased link-change primitive of the scenario schedule: either
        direction (or both) gets a new profile; in-flight packets keep the
        delays they were admitted with, packets admitted after the change see
        the new bandwidth/loss/queue arithmetic.  Raises ``KeyError`` for a
        detached address (a schedule targeting a departed participant is a
        scenario bug worth surfacing).
        """
        if address not in self._endpoints:
            raise KeyError(f"endpoint not attached: {address}")
        if uplink is not None:
            self._uplinks[address].set_profile(uplink)
        if downlink is not None:
            self._downlinks[address].set_profile(downlink)

    # -- data path -------------------------------------------------------------

    def send(self, datagram: Datagram) -> bool:
        """Send a datagram from its ``src`` towards its ``dst``."""
        uplink = self._uplinks.get(datagram.src)
        if uplink is None:
            raise KeyError(f"source not attached: {datagram.src}")
        # per-packet mode: the simulator event carries the timing, so any
        # stale burst schedule from an earlier hop must not leak through
        if datagram.arrived_at is not None:
            datagram = datagram.restamped(None)
        return uplink.send(datagram)

    def send_burst(self, datagrams: Sequence[Datagram]) -> int:
        """Send a burst of datagrams (e.g. one video frame) as a unit.

        Bursts traverse the same links and arithmetic as :meth:`send` with
        per-packet arrival schedules preserved hop by hop (deliver-with-
        schedule), so an endpoint that implements ``handle_datagram_batch``
        (the Scallop SFU) receives them together and can run its batch
        pipeline while timing-sensitive receivers still observe true pacing.
        Datagrams may come from multiple sources; each source's packets use
        that source's uplink.  A datagram whose ``arrived_at`` is already set
        (the SFU stamps its replicas with their switch-egress times) is
        admitted to its uplink at that time rather than "now".
        Returns how many datagrams were accepted by their uplinks.
        """
        accepted = 0
        by_src: Dict[Address, List[Datagram]] = {}
        for datagram in datagrams:
            by_src.setdefault(datagram.src, []).append(datagram)
        # validate every source before transmitting anything, so a burst with
        # a detached sender fails atomically instead of half-sent
        for src in by_src:
            if src not in self._uplinks:
                raise KeyError(f"source not attached: {src}")
        for src, group in by_src.items():
            accepted += self._uplinks[src].send_burst(group)
        return accepted

    def _make_core_hop(self) -> Callable[[Datagram], None]:
        downlinks = self._downlinks

        def hop(datagram: Datagram) -> None:
            downlink = downlinks.get(datagram.dst)
            if downlink is None:
                return  # destination left the meeting; drop silently
            downlink.send(datagram)

        return hop

    def _core_hop_burst(self, datagrams: List[Datagram]) -> None:
        """Core hop for bursts: route each destination's share as a burst."""
        by_dst: Dict[Address, List[Datagram]] = {}
        for datagram in datagrams:
            by_dst.setdefault(datagram.dst, []).append(datagram)
        for dst, group in by_dst.items():
            downlink = self._downlinks.get(dst)
            if downlink is None:
                continue  # destination left the meeting; drop silently
            downlink.send_burst(group)

    def _make_delivery(self, dst: Address) -> Callable[[Datagram], None]:
        endpoints = self._endpoints

        def deliver(datagram: Datagram) -> None:
            endpoint = endpoints.get(dst)
            if endpoint is None:
                return
            self.datagrams_delivered += 1
            endpoint.handle_datagram(datagram)

        return deliver

    def _make_delivery_burst(self, dst: Address) -> Callable[[List[Datagram]], None]:
        def deliver_burst(datagrams: List[Datagram]) -> None:
            if dst not in self._endpoints:
                return
            queue = self._rx_queues.setdefault(dst, [])
            queue.extend(datagrams)
            # coalesce: every burst landing at this endpoint within the
            # moderation window joins the queue before the (single) drain
            # event runs, so the endpoint sees one load-sized batch per event
            if not self._rx_drain_pending.get(dst):
                self._rx_drain_pending[dst] = True
                self.simulator.schedule(self.rx_coalesce_window_s, self._drain_rx_queue, dst)

        return deliver_burst

    def _drain_rx_queue(self, dst: Address) -> None:
        """Hand an endpoint everything queued for it (adaptive batch size)."""
        if dst in self._rx_drain_pending:
            self._rx_drain_pending[dst] = False
        # (a drain whose endpoint detached mid-window must not resurrect the
        # popped bookkeeping keys for the departed address)
        queue = self._rx_queues.get(dst)
        if not queue:
            return
        batch = queue[:]
        queue.clear()
        endpoint = self._endpoints.get(dst)
        if endpoint is None:
            return
        self.datagrams_delivered += len(batch)
        batch_handler = getattr(endpoint, "handle_datagram_batch", None)
        if batch_handler is not None:
            batch_handler(batch)
            return
        handle = endpoint.handle_datagram
        for datagram in batch:
            handle(datagram)

