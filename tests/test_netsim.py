"""Unit tests for the discrete-event simulator, datagrams, links, and network."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.datagram import Address, Datagram, PayloadKind, payload_size
from repro.netsim.link import DEFAULT_ACCESS_PROFILE, Link, LinkProfile, Network
from repro.netsim.simulator import SimulationError, Simulator
from repro.rtp.packet import RtpPacket
from repro.rtp.rtcp import Remb
from repro.stun.message import make_binding_request

A = Address("10.0.0.2", 6000)
B = Address("10.0.0.3", 6001)


def video_packet(seq=1):
    return RtpPacket(payload_type=45, sequence_number=seq, timestamp=1000, ssrc=7, payload=b"x" * 100)


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(0.2, lambda: order.append("b"))
        sim.schedule(0.1, lambda: order.append("a"))
        sim.schedule(0.3, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_fifo_for_same_timestamp(self):
        sim = Simulator()
        order = []
        for name in "abc":
            sim.schedule(0.1, lambda n=name: order.append(n))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_run_until_advances_clock(self):
        sim = Simulator()
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_run_for(self):
        sim = Simulator()
        sim.run_for(2.0)
        sim.run_for(3.0)
        assert sim.now == 5.0

    def test_cancel(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(0.1, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_fp_drift_negative_delay_clamped(self):
        # periodic processes computing absolute deadlines accumulate ULP-scale
        # error; schedule_at must tolerate an infinitesimally negative delta
        sim = Simulator()
        sim.run(until=0.1 + 0.1 + 0.1)  # 0.30000000000000004
        fired = []
        sim.schedule_at(0.3, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [sim.now]
        with pytest.raises(SimulationError):
            sim.schedule_at(sim.now - 1.0, lambda: None)

    def test_schedule_batch_runs_fifo_at_one_time(self):
        sim = Simulator()
        order = []
        sim.schedule_batch(0.2, [lambda: order.append(("a", sim.now)), lambda: order.append(("b", sim.now))])
        sim.schedule(0.1, lambda: order.append(("early", sim.now)))
        sim.run()
        assert order == [("early", 0.1), ("a", 0.2), ("b", 0.2)]

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append(sim.now)
            sim.schedule(1.0, lambda: seen.append(sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert seen == [1.0, 2.0]


class _ModelSimulator:
    """The event-order contract as a sorted list: fire by ``(time, order)``,
    ``order`` being the position of the ``schedule`` call among all of them."""

    def __init__(self):
        self.now = 0.0
        self.pending = []  # [time, order, tag, respawn_delay, cancelled]
        self.order = 0
        self.fired = []

    def schedule(self, delay, tag, respawn_delay):
        entry = [self.now + delay, self.order, tag, respawn_delay, False]
        self.order += 1
        self.pending.append(entry)
        return entry

    def run(self, until, max_events):
        processed = 0
        while self.pending:
            self.pending.sort(key=lambda entry: (entry[0], entry[1]))
            entry = self.pending[0]
            if until is not None and entry[0] > until:
                break
            self.pending.pop(0)
            if entry[4]:
                continue
            self.now = max(self.now, entry[0])
            self.fired.append((entry[2], self.now))
            if entry[3] is not None:
                self.schedule(entry[3], entry[2] + 1000, None)
            processed += 1
            if max_events is not None and processed >= max_events:
                return
        if until is not None and self.now < until:
            self.now = until


# few distinct delays, so that ties on the timestamp are the common case
_DELAYS = st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0])
_SIM_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _DELAYS, st.none() | _DELAYS),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63)),
        st.tuples(st.just("run"), st.none() | _DELAYS, st.none() | st.integers(min_value=1, max_value=4)),
    ),
    max_size=40,
)


class TestSimulatorEventOrder:
    @settings(max_examples=200, deadline=None)
    @given(ops=_SIM_OPS)
    def test_fires_in_sorted_time_order_model(self, ops):
        sim, model = Simulator(), _ModelSimulator()
        fired = []
        handles = []  # (handle, model entry)

        def fire(tag, respawn_delay):
            fired.append((tag, sim.now))
            if respawn_delay is not None:
                sim.schedule(respawn_delay, fire, tag + 1000, None)

        for op in ops:
            if op[0] == "schedule":
                _, delay, respawn_delay = op
                tag = len(handles)
                handle = sim.schedule(delay, fire, tag, respawn_delay)
                handles.append((handle, model.schedule(delay, tag, respawn_delay)))
            elif op[0] == "cancel":
                if handles:
                    handle, entry = handles[op[1] % len(handles)]
                    handle.cancel()
                    entry[4] = True
            else:
                _, horizon, max_events = op
                until = None if horizon is None else sim.now + horizon
                sim.run(until=until, max_events=max_events)
                model.run(until, max_events)
            assert fired == model.fired
            assert sim.now == model.now
            assert sim.events_processed == len(fired)
            for handle, entry in handles:
                assert handle.time == entry[0]
                assert handle.cancelled == entry[4]
        sim.run()
        model.run(None, None)
        assert fired == model.fired

    def test_arguments_are_delivered(self):
        sim = Simulator()
        seen = []
        sim.schedule(0.2, lambda *args: seen.append(args), 1, "two")
        sim.schedule_at(0.1, seen.append, "first")
        sim.schedule(0.3, lambda: seen.append("no args"))
        sim.run()
        assert seen == ["first", (1, "two"), "no args"]

    def test_entries_never_compare_callbacks(self):
        # same timestamp, incomparable callbacks and arguments: the unique
        # order number decides before the comparison can reach them
        sim = Simulator()
        seen = []
        for index in range(50):
            sim.schedule(0.5, lambda arg, i=index: seen.append(i), object())
        sim.run()
        assert seen == list(range(50))


class TestAddress:
    def test_hash_order_and_str_are_those_of_the_field_tuple(self):
        address = Address("10.0.0.2", 6000)
        assert hash(address) == hash(("10.0.0.2", 6000))
        assert str(address) == f"{address}" == "10.0.0.2:6000"
        assert repr(address) == "Address(ip='10.0.0.2', port=6000)"
        unsorted = [Address("10.0.0.3", 1), Address("10.0.0.2", 9), Address("10.0.0.2", 5)]
        assert sorted(unsorted) == [unsorted[2], unsorted[1], unsorted[0]]
        assert {address: 1}[Address("10.0.0.2", 6000)] == 1

    def test_fields_are_read_only(self):
        address = Address("10.0.0.2", 6000)
        with pytest.raises(AttributeError):
            address.port = 6001  # type: ignore[misc]
        assert address == Address("10.0.0.2", 6000)


class TestDatagram:
    def test_restamped_copies_the_record_only(self):
        packet = video_packet()
        meta = {"tx_time": 1.5}
        original = Datagram(src=A, dst=B, payload=packet, meta=meta)
        before = dict(original.__dict__)
        stamped = original.restamped(2.5)
        assert stamped.arrived_at == 2.5
        assert stamped.payload is packet and stamped.meta is meta
        assert (stamped.src, stamped.dst) == (A, B)
        assert (stamped.size, stamped.kind) == (original.size, PayloadKind.RTP)
        assert stamped.wire_size == original.wire_size
        # value semantics: the source record is untouched
        assert original.__dict__ == before and original.arrived_at is None
        assert stamped.restamped(None) == original
        assert sorted(stamped.__dict__) == sorted(before)

    def test_size_and_kind_derived(self):
        packet = video_packet()
        datagram = Datagram(src=A, dst=B, payload=packet)
        assert datagram.size == packet.size
        assert datagram.kind == PayloadKind.RTP
        assert datagram.wire_size == packet.size + 42

    def test_rtcp_kind(self):
        datagram = Datagram(src=A, dst=B, payload=(Remb(1, 1000.0, (2,)),))
        assert datagram.kind == PayloadKind.RTCP

    def test_stun_kind(self):
        request = make_binding_request(bytes(12), "alice")
        assert Datagram(src=A, dst=B, payload=request).kind == PayloadKind.STUN

    def test_bytes_round_trip(self):
        datagram = Datagram(src=A, dst=B, payload=video_packet())
        restored = Datagram.from_bytes(A, B, datagram.to_bytes())
        assert restored.kind == PayloadKind.RTP
        assert restored.payload == datagram.payload

    def test_redirect(self):
        datagram = Datagram(src=A, dst=B, payload=video_packet())
        moved = datagram.redirect(B, A)
        assert (moved.src, moved.dst) == (B, A)
        assert moved.payload == datagram.payload

    def test_payload_size_helper(self):
        assert payload_size(b"12345") == 5


class _Sink:
    def __init__(self, address):
        self.address = address
        self.received = []

    def handle_datagram(self, datagram):
        self.received.append(datagram)


class TestLink:
    def test_delivery_with_delay(self):
        sim = Simulator()
        got = []
        link = Link(sim, LinkProfile(bandwidth_bps=1e9, propagation_delay_s=0.01), got.append)
        link.send(Datagram(src=A, dst=B, payload=video_packet()))
        sim.run()
        assert len(got) == 1
        assert sim.now >= 0.01

    def test_serialization_delay_queues_packets(self):
        sim = Simulator()
        got = []
        # 1 Mbit/s: a ~142 byte wire packet takes ~1.1 ms to serialize
        link = Link(sim, LinkProfile(bandwidth_bps=1e6, propagation_delay_s=0.0), got.append)
        for seq in range(5):
            link.send(Datagram(src=A, dst=B, payload=video_packet(seq)))
        sim.run()
        assert len(got) == 5
        assert sim.now > 4 * (142 * 8 / 1e6)

    def test_loss(self):
        sim = Simulator()
        got = []
        link = Link(sim, LinkProfile(loss_rate=1.0), got.append)
        assert link.send(Datagram(src=A, dst=B, payload=video_packet())) is False
        sim.run()
        assert got == [] and link.packets_dropped == 1

    def test_queue_overflow_drops(self):
        sim = Simulator()
        got = []
        profile = LinkProfile(bandwidth_bps=1e6, queue_limit_bytes=500)
        link = Link(sim, profile, got.append)
        results = [link.send(Datagram(src=A, dst=B, payload=video_packet(i))) for i in range(20)]
        assert not all(results)
        assert link.packets_dropped > 0

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            LinkProfile(bandwidth_bps=0)
        with pytest.raises(ValueError):
            LinkProfile(loss_rate=1.5)


class _BatchSink:
    def __init__(self, address):
        self.address = address
        self.received = []
        self.batches = []

    def handle_datagram(self, datagram):
        self.received.append(datagram)

    def handle_datagram_batch(self, datagrams):
        self.batches.append(list(datagrams))
        self.received.extend(datagrams)


class TestLinkBursts:
    def test_burst_applies_same_admission_math_as_send(self):
        profile = LinkProfile(bandwidth_bps=1e6, propagation_delay_s=0.001)
        burst = [Datagram(src=A, dst=B, payload=video_packet(seq)) for seq in range(5)]

        sim_a, got_a = Simulator(), []
        reference = Link(sim_a, profile, got_a.append)
        for datagram in burst:
            reference.send(datagram)
        sim_a.run()

        sim_b, got_b = Simulator(), []
        link = Link(sim_b, profile, got_b.append)
        assert link.send_burst(burst) == 5
        sim_b.run()

        # same packets in order, same total counters, and the burst arrives
        # when its last bit would have (the per-packet path's final delivery)
        assert [d.payload.sequence_number for d in got_b] == [d.payload.sequence_number for d in got_a]
        assert (link.packets_sent, link.bytes_sent) == (reference.packets_sent, reference.bytes_sent)
        assert sim_b.now == pytest.approx(sim_a.now)

    def test_burst_respects_loss_and_queue_limit(self):
        sim = Simulator()
        got = []
        link = Link(sim, LinkProfile(loss_rate=1.0), got.append)
        assert link.send_burst([Datagram(src=A, dst=B, payload=video_packet())]) == 0
        assert link.packets_dropped == 1

        sim = Simulator()
        link = Link(sim, LinkProfile(bandwidth_bps=1e6, queue_limit_bytes=500), got.append)
        accepted = link.send_burst([Datagram(src=A, dst=B, payload=video_packet(i)) for i in range(20)])
        assert 0 < accepted < 20
        assert link.packets_dropped == 20 - accepted

    def test_send_behind_a_burst_frontier_is_lifted_to_it(self):
        # a burst stamped for the future (an SFU's replicas) moves the
        # admission frontier past the clock; a per-packet send made before
        # that time is admitted at the frontier, behind the burst
        prop = 0.001
        sim, got = Simulator(), []
        profile = LinkProfile(bandwidth_bps=1e6, propagation_delay_s=prop)
        link = Link(sim, profile, lambda d: got.append((sim.now, d)))
        early = Datagram(src=A, dst=B, payload=video_packet(1)).restamped(0.05)
        late = Datagram(src=A, dst=B, payload=video_packet(2))
        assert link.send_burst([early]) == 1
        sim.run(until=0.01)
        assert link.send(late)
        sim.run()
        serialization = late.wire_size * 8.0 / 1e6
        burst_arrival = 0.05 + (0.0 + serialization + prop)
        queue_delay = (0.05 + serialization) - 0.05
        late_arrival = 0.01 + ((0.05 - 0.01) + queue_delay + serialization + prop)
        assert [(time, d.payload.sequence_number, d.arrived_at) for time, d in got] == [
            (burst_arrival, 1, burst_arrival),
            (late_arrival, 2, None),
        ]
        assert got[1][1] is late

    def test_burst_coalesced_into_one_simulator_event(self):
        sim = Simulator()
        got = []
        link = Link(sim, DEFAULT_ACCESS_PROFILE, got.append)
        link.send_burst([Datagram(src=A, dst=B, payload=video_packet(seq)) for seq in range(10)])
        sim.run()
        assert len(got) == 10
        assert sim.events_processed == 1


class TestNetworkBursts:
    def test_batch_endpoint_receives_whole_burst(self):
        sim = Simulator()
        net = Network(sim, seed=1)
        sender, receiver = _Sink(A), _BatchSink(B)
        net.attach(sender)
        net.attach(receiver)
        burst = [Datagram(src=A, dst=B, payload=video_packet(seq)) for seq in range(4)]
        assert net.send_burst(burst) == 4
        sim.run()
        assert len(receiver.batches) == 1 and len(receiver.batches[0]) == 4
        # deliver-with-schedule: each datagram carries its own arrival time
        assert all(d.arrived_at is not None for d in receiver.received)

    def test_plain_endpoint_receives_burst_per_packet(self):
        sim = Simulator()
        net = Network(sim, seed=1)
        sender, receiver = _Sink(A), _Sink(B)
        net.attach(sender)
        net.attach(receiver)
        net.send_burst([Datagram(src=A, dst=B, payload=video_packet(seq)) for seq in range(4)])
        sim.run()
        assert [d.payload.sequence_number for d in receiver.received] == [0, 1, 2, 3]
        assert net.datagrams_delivered == 4

    def test_burst_to_multiple_destinations_routed_per_downlink(self):
        sim = Simulator()
        net = Network(sim, seed=1)
        c = Address("10.0.0.4", 6002)
        sender, rx_b, rx_c = _Sink(A), _BatchSink(B), _BatchSink(c)
        net.attach(sender)
        net.attach(rx_b)
        net.attach(rx_c)
        burst = [Datagram(src=A, dst=B, payload=video_packet(1)), Datagram(src=A, dst=c, payload=video_packet(2))]
        net.send_burst(burst)
        sim.run()
        assert len(rx_b.received) == 1 and len(rx_c.received) == 1

    def test_burst_from_unattached_source_raises(self):
        sim = Simulator()
        net = Network(sim, seed=1)
        with pytest.raises(KeyError):
            net.send_burst([Datagram(src=A, dst=B, payload=video_packet())])

    def test_mixed_burst_with_detached_source_sends_nothing(self):
        # atomic failure: if any source of the burst is unattached, no part
        # of the burst may have been transmitted
        sim = Simulator()
        net = Network(sim, seed=1)
        ghost = Address("10.9.9.9", 9999)
        sender, receiver = _Sink(A), _Sink(B)
        net.attach(sender)
        net.attach(receiver)
        with pytest.raises(KeyError):
            net.send_burst(
                [
                    Datagram(src=A, dst=B, payload=video_packet(1)),
                    Datagram(src=ghost, dst=B, payload=video_packet(2)),
                ]
            )
        sim.run()
        assert receiver.received == []

    def test_burst_to_departed_destination_dropped_silently(self):
        sim = Simulator()
        net = Network(sim, seed=1)
        sender = _Sink(A)
        net.attach(sender)
        net.send_burst([Datagram(src=A, dst=B, payload=video_packet())])
        sim.run()
        assert net.datagrams_delivered == 0


class TestNetwork:
    def test_end_to_end_delivery(self):
        sim = Simulator()
        net = Network(sim, seed=1)
        a, b = _Sink(A), _Sink(B)
        net.attach(a)
        net.attach(b)
        net.send(Datagram(src=A, dst=B, payload=video_packet()))
        sim.run()
        assert len(b.received) == 1
        assert b.received[0].arrived_at is None

    def test_send_forwards_an_unstamped_datagram_as_is(self):
        sim = Simulator()
        net = Network(sim, seed=1)
        a, b = _Sink(A), _Sink(B)
        net.attach(a)
        net.attach(b)
        datagram = Datagram(src=A, dst=B, payload=video_packet())
        net.send(datagram)
        sim.run()
        assert b.received == [datagram] and b.received[0] is datagram

    def test_send_clears_a_stale_burst_schedule_on_a_copy(self):
        sim = Simulator()
        net = Network(sim, seed=1)
        a, b = _Sink(A), _Sink(B)
        net.attach(a)
        net.attach(b)
        original = Datagram(src=A, dst=B, payload=video_packet(), meta={"tx_time": 0.0})
        stale = original.restamped(7.0)
        before = dict(stale.__dict__)
        net.send(stale)
        sim.run()
        (received,) = b.received
        assert received is not stale and received.arrived_at is None
        assert received.payload is stale.payload and received.meta is stale.meta
        assert stale.__dict__ == before

    def test_unknown_destination_dropped_silently(self):
        sim = Simulator()
        net = Network(sim, seed=1)
        a = _Sink(A)
        net.attach(a)
        net.send(Datagram(src=A, dst=B, payload=video_packet()))
        sim.run()
        assert net.datagrams_delivered == 0

    def test_unknown_source_raises(self):
        sim = Simulator()
        net = Network(sim, seed=1)
        with pytest.raises(KeyError):
            net.send(Datagram(src=A, dst=B, payload=video_packet()))

    def test_duplicate_attach_rejected(self):
        sim = Simulator()
        net = Network(sim, seed=1)
        net.attach(_Sink(A))
        with pytest.raises(ValueError):
            net.attach(_Sink(A))

    def test_downlink_profile_change_applies(self):
        sim = Simulator()
        net = Network(sim, seed=1)
        a, b = _Sink(A), _Sink(B)
        net.attach(a)
        net.attach(b)
        net.set_downlink_profile(B, LinkProfile(loss_rate=1.0))
        net.send(Datagram(src=A, dst=B, payload=video_packet()))
        sim.run()
        assert b.received == []

    def test_detach_stops_delivery(self):
        sim = Simulator()
        net = Network(sim, seed=1)
        a, b = _Sink(A), _Sink(B)
        net.attach(a)
        net.attach(b)
        net.detach(B)
        net.send(Datagram(src=A, dst=B, payload=video_packet()))
        sim.run()
        assert b.received == []
