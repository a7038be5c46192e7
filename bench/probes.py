"""Boundary probes: one public function per layer, called in a loop.

A probe is the undiluted form of one layer's cost: host nanoseconds (or
milliseconds) per operation, median of ``BLOCKS`` blocks of at least
``block_s`` seconds each, inputs generated from the workload's seed.  Probes
run only inside a traced run, after its windows, and each belongs to the
workload whose cost it isolates (``metrics.PROBES``).

A probe whose target no longer exists reports ``None`` with the error as the
reason; deleting a path must never require editing this file.
"""

from __future__ import annotations

import functools
import random
import statistics
import time
from dataclasses import replace
from typing import Callable, Dict, Optional, Tuple

from .metrics import PROBES

BLOCKS = 5
BLOCK_S = 0.1
SMOKE_BLOCK_S = 0.001

Step = Callable[[], Tuple[float, int]]


def _measure(step: Step, block_s: float) -> float:
    """Median over blocks of nanoseconds per operation; ``step`` runs one
    timed piece and returns ``(seconds, operations)``."""
    per_block = []
    for _ in range(BLOCKS):
        spent, ops = 0.0, 0
        while spent < block_s:
            seconds, count = step()
            spent += seconds
            ops += count
        per_block.append(spent / ops * 1e9)
    return statistics.median(per_block)


def _timed(fn: Callable[[], object], ops: int) -> Step:
    def step() -> Tuple[float, int]:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start, ops

    return step


def _video_packets(seed: int, frames: int = 120, ssrc: int = 0x5150):
    """``(packet, template id, capture time)`` of a 900 kbit/s L1T3 stream."""
    from repro.webrtc.encoder import RtpPacketizer, SvcEncoder

    encoder = SvcEncoder(target_bitrate_bps=900_000.0, seed=seed)
    packetizer = RtpPacketizer(ssrc=ssrc, seed=seed)
    out = []
    for index in range(frames):
        frame = encoder.next_frame(index / 30.0)
        out.extend((packet, frame.template_id, frame.capture_time) for packet in packetizer.packetize(frame))
    return out


class _Sink:
    """A network endpoint that counts what reaches it."""

    def __init__(self, address) -> None:
        self.address = address
        self.received = 0

    def handle_datagram(self, datagram) -> None:
        self.received += 1

    def handle_datagram_batch(self, datagrams) -> None:
        self.received += len(datagrams)


# --------------------------------------------------------------------------- netsim


def schedule_run(seed: int, block_s: float) -> float:
    from repro.netsim.simulator import Simulator

    rng = random.Random(seed)
    simulator = Simulator()

    def noop() -> None:
        pass

    for _ in range(1000):  # parked far in the future: holds the heap ~1k deep
        simulator.schedule(1e9 + rng.random(), noop)
    delays = [rng.random() * 1e-3 for _ in range(1000)]

    def fn() -> None:
        schedule = simulator.schedule
        for delay in delays:
            schedule(delay, noop)
        simulator.run_for(2e-3)

    return _measure(_timed(fn, len(delays)), block_s)


def _network_send(seed: int, block_s: float, burst: bool) -> float:
    from repro.netsim.datagram import Address, Datagram
    from repro.netsim.link import Network
    from repro.netsim.simulator import Simulator
    from repro.rtp.wire import PacketView

    simulator = Simulator()
    network = Network(simulator, seed=seed, rx_coalesce_window_s=250e-6 if burst else 0.0)
    client, sink = _Sink(Address("10.9.0.2", 6000)), _Sink(Address("10.9.0.3", 6001))
    network.attach(client)
    network.attach(sink)
    packets = [packet for packet, _template, _at in _video_packets(seed, frames=16)]
    datagrams = [
        Datagram(
            src=client.address,
            dst=sink.address,
            payload=PacketView.from_packet(packet) if burst else packet,
        )
        for packet in packets
    ]

    def fn() -> None:
        if burst:
            network.send_burst(datagrams)
        else:
            for datagram in datagrams:
                network.send(datagram)
        simulator.run_for(0.2)

    value = _measure(_timed(fn, len(datagrams)), block_s)
    if sink.received == 0:
        raise RuntimeError("probe traffic never reached the sink")
    return value


# --------------------------------------------------------------------------- webrtc


def encode(seed: int, block_s: float) -> float:
    from repro.webrtc.encoder import RtpPacketizer, SvcEncoder

    encoder = SvcEncoder(target_bitrate_bps=900_000.0, seed=seed)
    packetizer = RtpPacketizer(ssrc=0x5150, seed=seed)
    frames = [0]

    def step() -> Tuple[float, int]:
        start = time.perf_counter()
        packets = packetizer.packetize(encoder.next_frame(frames[0] / 30.0))
        elapsed = time.perf_counter() - start
        frames[0] += 1
        return elapsed, len(packets)

    return _measure(step, block_s)


def decode(seed: int, block_s: float) -> float:
    from repro.webrtc.decoder import VideoReceiveStream

    stream_input = [(packet, at + 0.02) for packet, _template, at in _video_packets(seed)]

    def fn() -> None:
        stream = VideoReceiveStream(0x5150)
        on_packet = stream.on_packet
        for packet, at in stream_input:
            on_packet(packet, at)

    return _measure(_timed(fn, len(stream_input)), block_s)


def gcc(seed: int, block_s: float) -> float:
    from repro.webrtc.gcc import RemoteBitrateEstimator

    rng = random.Random(seed)
    arrivals = [
        (at + 0.02 + rng.random() * 2e-3, packet.timestamp / 90_000, packet.size)
        for packet, _template, at in _video_packets(seed)
    ]

    def fn() -> None:
        estimator = RemoteBitrateEstimator()
        on_packet = estimator.on_packet
        for recv_time, send_time, size in arrivals:
            on_packet(recv_time=recv_time, send_time=send_time, size_bytes=size)

    return _measure(_timed(fn, len(arrivals)), block_s)


# --------------------------------------------------------------------------- rtp


def to_wire(seed: int, block_s: float) -> float:
    from repro.rtp.wire import PacketView

    packets = [packet for packet, _template, _at in _video_packets(seed)]

    def fn() -> None:
        from_packet = PacketView.from_packet
        for packet in packets:
            from_packet(packet)

    return _measure(_timed(fn, len(packets)), block_s)


def from_wire(seed: int, block_s: float) -> float:
    from repro.rtp.wire import PacketView

    buffers = [bytes(PacketView.from_packet(packet)) for packet, _t, _at in _video_packets(seed)]

    def fn() -> None:
        for buffer in buffers:
            PacketView(buffer).to_packet()

    return _measure(_timed(fn, len(buffers)), block_s)


def rtcp_roundtrip(seed: int, block_s: float) -> float:
    from repro.rtp.rtcp import (
        Nack,
        ReceiverReport,
        Remb,
        ReportBlock,
        parse_compound,
        serialize_compound,
    )

    rng = random.Random(seed)
    compounds = [
        (
            ReceiverReport(sender_ssrc=7, report_blocks=(ReportBlock(ssrc=9, highest_sequence=rng.randrange(65536)),)),
            Remb(7, rng.uniform(0.3e6, 1.2e6), (9,)),
            Nack(7, 9, tuple(sorted(rng.sample(range(65536), 3)))),
        )
        for _ in range(64)
    ]

    def fn() -> None:
        for compound in compounds:
            parse_compound(serialize_compound(compound))

    return _measure(_timed(fn, len(compounds)), block_s)


def wirebatch(seed: int, block_s: float) -> float:
    from repro.netsim.datagram import Address, Datagram
    from repro.rtp.wire import PacketView
    from repro.rtp.wirebatch import WireBatchView

    src, dst = Address("10.9.0.2", 6000), Address("10.0.0.1", 5000)
    burst = [
        Datagram(src=src, dst=dst, payload=PacketView.from_packet(packet))
        for packet, _template, _at in _video_packets(seed, frames=16)
    ]
    return _measure(_timed(lambda: WireBatchView.from_datagrams(burst), len(burst)), block_s)


# --------------------------------------------------------------------------- seqrewrite


def _rewriter(seed: int, block_s: float, class_name: str) -> float:
    from repro.core import seqrewrite

    rewriter_class = getattr(seqrewrite, class_name)
    cadence = seqrewrite.SkipCadence(1, 2)
    history = [
        (packet.sequence_number, index, template in (0, 1, 2))
        for index, (packet, template, _at) in enumerate(_video_packets(seed))
    ]

    def fn() -> None:
        on_packet = rewriter_class(cadence).on_packet
        for sequence_number, frame_number, forward in history:
            on_packet(sequence_number, frame_number, forward)

    return _measure(_timed(fn, len(history)), block_s)


# --------------------------------------------------------------------------- dataplane


def _batch_probe(seed: int, block_s: float, smoke: bool, wire: bool, per_packet: bool = False, cold: bool = False) -> float:
    """``process`` / ``process_batch`` over fresh ticks of the
    ``dataplane_batch`` traffic (rewriters are stateful, so ticks never
    replay); generation stays outside the timed piece."""
    from .workloads import build_batch_pipeline, to_datagrams

    pipeline, traffic, adapted = build_batch_pipeline(seed, 4 if smoke else 48)
    key, allowed = next(iter(adapted.items()))
    for _ in range(3):  # fill parse memo and flow caches
        pipeline.process_batch(to_datagrams(traffic.next_tick(), wire))

    def step() -> Tuple[float, int]:
        batch = to_datagrams(traffic.next_tick(), wire)
        if cold:
            # a control write between batches: the next batch pays the
            # read-side cache rebuild
            pipeline.update_adaptation_templates(key[0], key[1], allowed)
        start = time.perf_counter()
        if per_packet:
            process = pipeline.process
            for datagram in batch:
                process(datagram)
        else:
            pipeline.process_batch(batch)
        return time.perf_counter() - start, len(batch)

    return _measure(step, block_s)


def parse(seed: int, block_s: float) -> float:
    from .workloads import build_batch_pipeline, to_datagrams

    pipeline, traffic, _adapted = build_batch_pipeline(seed, 4)
    batch = to_datagrams(traffic.next_tick(), wire=True)
    parser = pipeline.parser

    def fn() -> None:
        parse_one = parser.parse
        for datagram in batch:
            parse_one(datagram)

    return _measure(_timed(fn, len(batch)), block_s)


def pre_expand(seed: int, block_s: float) -> float:
    from repro.dataplane.pipeline import ScallopPipeline
    from repro.dataplane.pre import L2Port
    from repro.netsim.datagram import Address

    pre = ScallopPipeline(Address("10.0.0.1", 5000)).pre
    mgid = pre.create_tree()
    for rid in range(1, 7):
        pre.add_node(mgid, rid=rid, ports=[L2Port(port=rid, l2_xid=rid)], l1_xid=1, prune_enabled=True)
    replicas = len(pre.replicate(mgid, rid=1, l2_xid=1))

    def fn() -> None:
        replicate = pre.replicate
        for rid in range(1, 7):
            replicate(mgid, rid=rid, l2_xid=rid)

    return _measure(_timed(fn, 6 * replicas), block_s)


# --------------------------------------------------------------------------- sharding


def _sharded_engine(seed: int, block_s: float) -> Tuple[float, float]:
    """Feed the canned ``zipf_hotset`` scenario's own engine (built through
    the scenario API, profile armed) harness-generated wire bursts; returns
    (ns per packet end to end, coordinator partition ns per packet)."""
    from repro.netsim.datagram import Datagram
    from repro.rtp.wire import PacketView
    from repro.scenario import LIBRARY, build_scenario
    from repro.webrtc.encoder import RtpPacketizer, SvcEncoder

    spec = LIBRARY["zipf_hotset"](True)
    spec = replace(spec, seed=seed, backend=replace(spec.backend, profile=True))
    with build_scenario(spec) as run:
        engine = run.sfu.pipeline
        senders = [
            (
                client.address,
                SvcEncoder(target_bitrate_bps=900_000.0, seed=seed + index),
                RtpPacketizer(ssrc=client.video_ssrc, seed=seed + index),
            )
            for index, client in enumerate(run.clients)
            if client.config.send_video
        ]
        ticks = [0]

        def step() -> Tuple[float, int]:
            now = ticks[0] / 30.0
            ticks[0] += 1
            burst = [
                Datagram(src=address, dst=run.sfu.address, payload=PacketView.from_packet(packet))
                for address, encoder, packetizer in senders
                for packet in packetizer.packetize(encoder.next_frame(now))
            ]
            start = time.perf_counter()
            engine.process_batch(burst)
            return time.perf_counter() - start, len(burst)

        end_to_end = _measure(step, block_s)
        stats = engine.coordinator_stats
        return end_to_end, stats.partition_ns / stats.packets


# --------------------------------------------------------------------------- core


def signaling(seed: int, block_s: float) -> float:
    """SDP offer -> join message -> parsed offer: the codec work of one join."""
    from repro.scenario import LIBRARY, build_scenario
    from repro.signaling.messages import join_message

    with build_scenario(replace(LIBRARY["steady"](True), seed=seed)) as run:
        client = run.clients[0]

        def fn() -> None:
            message = join_message(
                client.config.meeting_id, client.config.participant_id, client.create_offer()
            )
            message.session_description()

        return _measure(_timed(fn, 1), block_s) / 1e6


# --------------------------------------------------------------------------- dispatch


def run_probes(
    workload: str, seed: int, smoke: bool, spans: Dict[str, Dict[str, float]]
) -> Tuple[Dict[str, Optional[float]], Dict[str, str]]:
    """Run the probes that belong to ``workload``; returns values and, for
    each ``None``, the reason."""
    block_s = SMOKE_BLOCK_S if smoke else BLOCK_S
    values: Dict[str, Optional[float]] = {}
    reasons: Dict[str, str] = {}

    def attempt(name: str, fn: Callable[[], float]) -> None:
        try:
            values[name] = fn()
        except (ImportError, AttributeError, TypeError, KeyError) as exc:
            values[name] = None
            reasons[name] = f"probe target unavailable: {exc!r}"

    def span_p50(name: str) -> float:
        return spans[name]["p50_ms"]

    @functools.lru_cache(maxsize=None)
    def sharded() -> Tuple[float, float]:  # one measurement feeds two metrics
        return _sharded_engine(seed, block_s)

    table: Dict[str, Callable[[], float]] = {
        "netsim.schedule_run_ns_per_event": lambda: schedule_run(seed, block_s),
        "netsim.send_ns_per_pkt": lambda: _network_send(seed, block_s, burst=False),
        "netsim.send_burst_ns_per_pkt": lambda: _network_send(seed, block_s, burst=True),
        "webrtc.encode_ns_per_pkt": lambda: encode(seed, block_s),
        "webrtc.decode_ns_per_pkt": lambda: decode(seed, block_s),
        "webrtc.gcc_ns_per_pkt": lambda: gcc(seed, block_s),
        "rtp.to_wire_ns_per_pkt": lambda: to_wire(seed, block_s),
        "rtp.from_wire_ns_per_pkt": lambda: from_wire(seed, block_s),
        "rtp.rtcp_roundtrip_ns": lambda: rtcp_roundtrip(seed, block_s),
        "rtp.wirebatch_ns_per_pkt": lambda: wirebatch(seed, block_s),
        "seqrewrite.slm_ns_per_pkt": lambda: _rewriter(seed, block_s, "SequenceRewriterLowMemory"),
        "seqrewrite.slr_ns_per_pkt": lambda: _rewriter(
            seed, block_s, "SequenceRewriterLowRetransmission"
        ),
        "dataplane.parse_ns_per_pkt": lambda: parse(seed, block_s),
        "dataplane.process_ns_per_pkt": lambda: _batch_probe(seed, block_s, smoke, wire=False, per_packet=True),
        "dataplane.batch_obj_ns_per_pkt": lambda: _batch_probe(seed, block_s, smoke, wire=False),
        "dataplane.batch_wire_ns_per_pkt": lambda: _batch_probe(seed, block_s, smoke, wire=True),
        "dataplane.batch_cold_ns_per_pkt": lambda: _batch_probe(seed, block_s, smoke, wire=True, cold=True),
        "dataplane.pre_expand_ns_per_replica": lambda: pre_expand(seed, block_s),
        "core.signaling_ms_per_join": lambda: signaling(seed, block_s),
        "core.sfu_join_ms_p50": lambda: span_p50("sfu.join"),
        "core.sfu_leave_ms_p50": lambda: span_p50("sfu.leave"),
        "cluster.migrate_ms_p50": lambda: span_p50("cluster.migrate"),
        "sharding.k4_serial_ns_per_pkt": lambda: sharded()[0],
        "sharding.partition_ns_per_pkt": lambda: sharded()[1],
    }
    for name, _unit, _better in PROBES.get(workload, []):
        attempt(name, table[name])
    return values, reasons
