"""The five ledger workloads.

Every workload is closed loop, single process, single thread: the harness
issues the next step (a ``run_for`` slice, a membership op, an ingress
batch) only after the previous one returned.  A workload object offers

``setup(seed, smoke)``   build the system and warm it up (this is ``setup_s``)
``prepare(state)``       untimed, unprofiled work before a step (input generation)
``step(state)``          one timed step; returns the seconds to book for the
                         step's operation when that is not the step's own
                         wall (a narrower op, or a per-work normalisation),
                         else ``None``
``packets(state)``       SFU packets so far, ``(ingress, egress)``
``progress(state)``      work done so far in the unit of ``rss_checkpoint``
                         (where the harness reads peak RSS)
``report(state)``        finish the run, check outputs, collect counts
``teardown(state)``      release the system

``smoke=True`` shrinks populations so the tier-1 smoke test stays fast; it
is never used for a ledger number.  The simulated program sees only the
spec or the datagrams generated here from the seed.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.seqrewrite import (
    SequenceRewriterLowRetransmission,
    SkipCadence,
    ideal_rewrite_sequence,
)
from repro.dataplane.pipeline import (
    FeedbackRule,
    ForwardingMode,
    ReplicaTarget,
    ScallopPipeline,
    StreamForwardingEntry,
)
from repro.dataplane.pre import L2Port
from repro.netsim.datagram import Address, Datagram
from repro.netsim.link import LinkProfile
from repro.rtp.rtcp import Nack, ReceiverReport, Remb, ReportBlock, SenderReport
from repro.rtp.wire import PacketView
from repro.scenario import (
    LIBRARY,
    BackendSpec,
    MeetingSpec,
    Scenario,
    ScenarioRun,
    Schedule,
    build_scenario,
)
from repro.webrtc.encoder import AudioSource, RtpPacketizer, SvcEncoder

from .harness import percentile

#: One timed step of a scenario workload, in simulated seconds.
SLICE_S = 0.25
#: Simulated warm-up inside set-up: joins, STUN, first key frames, cache fill.
WARMUP_S = 0.5
SMOKE_WARMUP_S = 0.2

Span = Tuple[str, float, float, int]  # name, start, end, parent index (-1 = root)

#: Defects of ``src/`` found while sizing the benchmark (README "Findings"),
#: pinned per workload at the most the defect can produce on the workload's
#: population, whatever the seed -- the driver draws seeds from all of 2**31.
#:
#: ``cross_meeting_streams``: the first of the two meetings of a shared tree
#: leaks its audio and video to every client of the second, 2*|A|*|B|
#: streams.  Meetings of three or more pair up in spec order at install (the
#: static part: 36 / 122 / 64) and, each at most once and in the order the
#: seed's congestion makes them start adapting, regroup in new pairs when
#: they move to the RA-R design.  The regrouped pairs leak at most the static
#: sum again (largest pairing by size, each pair met in the direction that
#: did not leak before), so the pin is twice the static count.  Seen over 30
#: to 36 seeds drawn from 2**31: ``steady`` always 36, ``zipf_hotset``
#: 122-244, ``adapt_loss`` 64, 96 or 128.  ``control_churn`` ends with the
#: churn population gone, so its counts (one inconsistent trunk per box, six
#: trunk feedback rules lost) are the same for every seed and window.
#:
#: The counts are reported under their own names whatever they are; every
#: defect *beyond* the pin is a failed operation, so the gate sees a leak the
#: mechanism cannot explain, one more inconsistent trunk or a larger rule
#: deficit, and a fix (count 0) needs no edit here.  Below the pin, the exact
#: gate is ``compare`` on two ``--fixed-work`` sets of one seed.
KNOWN_DEFECTS: Dict[str, Dict[str, int]] = {
    "steady": {"cross_meeting_streams": 72},
    "zipf_hotset": {"cross_meeting_streams": 244},
    "adapt_loss": {"cross_meeting_streams": 128},
    "control_churn": {"reconcile_problems": 2, "fingerprint_drift": 6},
}


# --------------------------------------------------------------------------- scenario helpers


def boxes(run: ScenarioRun) -> list:
    """The SFU boxes of a run: the cluster's members, or the single SFU."""
    return list(getattr(run.sfu, "members", None) or [run.sfu])


def scenario_packets(run: ScenarioRun) -> Tuple[int, int]:
    """SFU packets received and sent so far, summed over boxes."""
    stats = [box.stats for box in boxes(run)]
    return sum(s.packets_in for s in stats), sum(s.packets_out for s in stats)


def control_fingerprint(run: ScenarioRun) -> Dict[str, int]:
    """Control-plane occupancy summed over boxes, from public tables only."""
    out: Dict[str, int] = {}
    for box in boxes(run):
        pipeline = box.pipeline
        for name, value in (
            ("stream_entries", len(pipeline.stream_table)),
            ("replica_entries", len(pipeline.replica_table)),
            ("adaptation_entries", len(pipeline.adaptation_table)),
            ("feedback_entries", len(pipeline.feedback_table)),
            ("placement_entries", len(pipeline.placement_table)),
            ("trees", pipeline.pre.num_trees),
            ("l1_nodes", pipeline.pre.total_l1_nodes()),
            ("tracker_cells", pipeline.accountant.stream_tracker_cells_used),
            ("controller_participants", box.controller.total_participants()),
        ):
            out[name] = out.get(name, 0) + value
    return out


StreamPackets = Dict[Tuple[str, int], int]

#: A stream counts as flowing when it received a packet within this many
#: simulated seconds before the end of the run.
FLOW_WINDOW_S = 2.0


def stream_packets(run: ScenarioRun) -> StreamPackets:
    """Packets received so far per (receiver, ssrc) inbound stream."""
    out: StreamPackets = {}
    for client in run.clients:
        pid = client.config.participant_id
        for ssrc, stream in client.video_receivers.items():
            out[(pid, ssrc)] = stream.packets_received
        for ssrc, stream in client.audio_receivers.items():
            out[(pid, ssrc)] = stream.packets_received
    return out


def scenario_report(
    run: ScenarioRun,
    earlier: StreamPackets,
    ops_attempted: int,
    op_failures: List[str],
    known: Dict[str, int],
    fingerprint_drift: Optional[Dict[str, Tuple[int, int]]] = None,
) -> dict:
    """Output checks, simulated-quality metrics and exact counts of a run.

    ``attempted`` = every (receiver, sender, kind) stream the surviving
    population expects + every membership/link/migrate op issued; ``failed``
    = expected streams that received nothing since ``earlier`` (a snapshot
    about ``FLOW_WINDOW_S`` old), ops that raised or were dropped, and every
    cross-meeting stream, ``reconcile()`` problem and unit of control-plane
    fingerprint drift beyond the workload's ``known`` count
    (``KNOWN_DEFECTS``).  A stream that receives packets but cannot decode
    them is a quality matter (``webrtc.freeze_events``), not a failed
    delivery.
    """
    now = run.simulator.now
    clients = run.clients
    meetings_of_ssrc: Dict[int, set] = {}
    for client in clients:
        for ssrc in (client.audio_ssrc, client.video_ssrc):
            meetings_of_ssrc.setdefault(ssrc, set()).add(client.config.meeting_id)

    failures = list(op_failures)
    expected = 0
    cross_meeting = 0
    fps: List[float] = []
    fps_window_s = min(4.0, now)
    latest = stream_packets(run)
    for receiver in clients:
        meeting_id = receiver.config.meeting_id
        pid = receiver.config.participant_id
        for sender in run.clients_by_meeting.get(meeting_id, ()):
            if sender is receiver:
                continue
            for kind, sends, ssrc in (
                ("video", sender.config.send_video, sender.video_ssrc),
                ("audio", sender.config.send_audio, sender.audio_ssrc),
            ):
                if not sends:
                    continue
                expected += 1
                if latest.get((pid, ssrc), 0) <= earlier.get((pid, ssrc), 0):
                    failures.append(
                        f"{pid} received no {kind} from {sender.config.participant_id} "
                        f"since the flow snapshot (<= {FLOW_WINDOW_S:g} sim-s ago)"
                    )
            stream = receiver.video_receivers.get(sender.video_ssrc)
            if stream is not None:
                fps.append(stream.frame_rate(fps_window_s, now))
        for ssrc in list(receiver.video_receivers) + list(receiver.audio_receivers):
            owners = meetings_of_ssrc.get(ssrc)
            if owners and meeting_id not in owners:
                cross_meeting += 1

    for _at_s, message in run.event_log:
        if message.startswith("drop "):
            failures.append(f"scheduled event dropped: {message}")
    ops_attempted += sum(1 for _at_s, message in run.event_log if message.startswith("link "))

    problems = run.reconcile()
    drift = fingerprint_drift or {}
    defects = {
        "cross_meeting_streams": cross_meeting,
        "reconcile_problems": len(problems),
        "fingerprint_drift": sum(abs(after - before) for before, after in drift.values()),
    }
    detail = {
        "cross_meeting_streams": "streams delivered outside the sender's meeting",
        "reconcile_problems": f"reconcile() reported {problems}",
        "fingerprint_drift": f"control-plane entries (pre-churn, now) {drift}",
    }
    for kind, found in defects.items():
        pinned = known.get(kind, 0)
        failures.extend(
            [f"{kind} = {found}, {pinned} known: {detail[kind]}"] * max(0, found - pinned)
        )

    latency: List[float] = []
    for client in clients + run.departed:
        latency.extend(client.rtp_latency_samples_ms)
    sim = {
        "sim_latency_ms_p50": percentile(latency, 0.50) if latency else None,
        "sim_latency_ms_p99": percentile(latency, 0.99) if latency else None,
        "sim_recv_fps_mean": sum(fps) / len(fps) if fps else None,
    }

    counts: Dict[str, float] = {"latency_samples": len(latency)}
    counts["netsim.events"] = run.simulator.events_processed
    sent = dropped = 0
    for address in [client.address for client in clients] + [box.address for box in boxes(run)]:
        for link in (run.network.uplink(address), run.network.downlink(address)):
            sent += link.packets_sent
            dropped += link.packets_dropped
    counts["netsim.link_pkts_sent"] = sent
    counts["netsim.link_pkts_dropped"] = dropped

    pkts = frames = nacks = plis = freezes = 0
    for client in clients:
        stats = client.get_stats()
        for video in stats.inbound_video:
            pkts += video.packets_received
            frames += video.frames_decoded
            nacks += video.nack_count
            plis += video.pli_count
            freezes += video.freeze_count
        pkts += sum(audio.packets_received for audio in stats.inbound_audio)
    counts["webrtc.pkts_received"] = pkts
    counts["webrtc.frames_decoded"] = frames
    counts["webrtc.nacks_sent"] = nacks
    counts["webrtc.plis_sent"] = plis
    counts["webrtc.freeze_events"] = freezes

    pkts_in = pkts_out = to_cpu = 0
    adaptation_drops = table_misses = replicas = 0
    agent = {"rule_updates": 0, "decode_target_changes": 0, "remb_handled": 0, "nack_pli_handled": 0}
    for box in boxes(run):
        pkts_in += box.stats.packets_in
        pkts_out += box.stats.packets_out
        to_cpu += box.stats.packets_to_cpu
        counters = box.pipeline.counters
        adaptation_drops += counters.adaptation_drops
        table_misses += counters.table_misses
        replicas += counters.replicas_out
        for name in agent:
            agent[name] += getattr(box.agent.counters, name)
    counts["dataplane.pkts_in"] = pkts_in
    counts["dataplane.replicas_out"] = replicas
    counts["dataplane.replication_factor"] = pkts_out / pkts_in if pkts_in else 0.0
    counts["dataplane.cpu_punt_share"] = to_cpu / pkts_in if pkts_in else 0.0
    counts["dataplane.adaptation_drops"] = adaptation_drops
    counts["dataplane.table_misses"] = table_misses
    counts["netsim.events_per_fwd_pkt"] = (
        run.simulator.events_processed / pkts_out if pkts_out else 0.0
    )
    for name, value in agent.items():
        counts[f"core.{name}"] = value
    counts["core.cross_meeting_streams"] = cross_meeting
    counts["scenario.reconcile_problems"] = len(problems)
    if fingerprint_drift is not None:
        counts["scenario.fingerprint_drift"] = defects["fingerprint_drift"]

    summary = run.summary()
    batches = summary.get("rebalance_batches_observed")
    if batches is not None:
        counts["sharding.batches"] = batches
        counts["sharding.mean_batch_pkts"] = pkts_in / batches if batches else 0.0
        counts["sharding.skew"] = summary["rebalance_skew"]
        counts["sharding.migrations"] = summary["migrations_applied"]
    if "trunk_packets_in" in summary:
        counts["cluster.trunk_pkts_in"] = summary["trunk_packets_in"]
        counts["cluster.meeting_migrations"] = summary["meeting_migrations"]
        counts["cluster.snapshot_bytes"] = summary["snapshot_bytes_shipped"]

    return {
        "attempted": expected + ops_attempted,
        "failures": failures,
        "defects": dict(defects, known=known, reconcile=problems, fingerprint=drift),
        "skipped": {},
        "sim": sim,
        "counts": counts,
        "summary": summary,
    }


@dataclass
class ScenarioState:
    run: ScenarioRun
    spans: List[Span] = field(default_factory=list)
    #: one ``stream_packets`` snapshot per slice, the oldest FLOW_WINDOW_S back
    history: Deque[StreamPackets] = field(
        default_factory=lambda: deque(maxlen=int(FLOW_WINDOW_S / SLICE_S) + 1)
    )


class ScenarioWorkload:
    """A declarative scenario advanced in ``SLICE_S`` slices, open-ended."""

    sim_s_per_step = SLICE_S
    step_name = "0.25 sim-s run_for slice; op = 1000 SFU packets of it"

    #: SFU packets handled when the harness reads peak RSS: ~60 % of what a
    #: 10-second window reaches on the box the bounds were sized on.  Packets
    #: rather than slices because state held grows with traffic, and how
    #: much traffic a simulated second carries depends on the seed.
    rss_checkpoint = 140_000

    def __init__(self, name: str, default_seed: int, spec) -> None:
        self.name = name
        self.default_seed = default_seed
        self._spec = spec

    def setup(self, seed: int, smoke: bool) -> ScenarioState:
        run = build_scenario(self._spec(seed, smoke))
        run.run_for(SMOKE_WARMUP_S if smoke else WARMUP_S)
        return ScenarioState(run)

    def prepare(self, state: ScenarioState) -> None:
        state.history.append(stream_packets(state.run))

    def step(self, state: ScenarioState) -> Optional[float]:
        """One slice.  How many packets a simulated second carries depends
        on the seed (congestion control is a feedback loop), so the slice's
        operation is booked per 1000 SFU packets, not per slice."""
        run = state.run
        before = sum(scenario_packets(run))
        start = time.perf_counter()
        run.run_for(SLICE_S)
        end = time.perf_counter()
        state.spans.append(("run_for", start, end, -1))
        handled = sum(scenario_packets(run)) - before
        return (end - start) * 1000.0 / handled if handled else None

    def packets(self, state: ScenarioState) -> Tuple[int, int]:
        return scenario_packets(state.run)

    def progress(self, state: ScenarioState) -> int:
        return sum(scenario_packets(state.run))

    def report(self, state: ScenarioState) -> dict:
        return scenario_report(state.run, state.history[0], 0, [], KNOWN_DEFECTS[self.name])

    def teardown(self, state: ScenarioState) -> None:
        state.run.close()


def _steady_spec(seed: int, smoke: bool) -> Scenario:
    return replace(LIBRARY["steady"](smoke), seed=seed)


def _zipf_hotset_spec(seed: int, smoke: bool) -> Scenario:
    return replace(LIBRARY["zipf_hotset"](smoke), seed=seed)


LOSSY_UPLINK = LinkProfile(bandwidth_bps=2_000_000, propagation_delay_s=0.01, loss_rate=0.03)
CONGESTED_DOWNLINK = LinkProfile(
    bandwidth_bps=1_300_000, propagation_delay_s=0.01, queue_limit_bytes=60_000
)
ADAPT_BITRATE_BPS = 900_000.0


def _adapt_loss_spec(seed: int, smoke: bool) -> Scenario:
    """The links stay impaired for good: a time-boxed window ends wherever
    the host's speed puts it, and must not reach a restored phase that a
    slower run would not."""
    meetings = 2 if smoke else 4
    impair_at_s = 0.3 if smoke else 2.0
    schedule = Schedule()
    for meeting in range(meetings):
        schedule = schedule.set_link(impair_at_s, meeting, 0, uplink=LOSSY_UPLINK).set_link(
            impair_at_s, meeting, 1, downlink=CONGESTED_DOWNLINK
        )
    return Scenario(
        name="adapt_loss",
        meetings=tuple(
            MeetingSpec(participants=4, video_bitrate_bps=ADAPT_BITRATE_BPS)
            for _ in range(meetings)
        ),
        backend=BackendSpec(
            adaptation_thresholds_bps=(0.8 * ADAPT_BITRATE_BPS, 0.4 * ADAPT_BITRATE_BPS)
        ),
        schedule=schedule,
        duration_s=3600.0,  # open-ended: the harness decides how far the run goes
        seed=seed,
    )


# --------------------------------------------------------------------------- control_churn

CHURN_STEP_S = 0.005
CHURN_MIGRATE_EVERY = 250
CHURN_MAX_SIZE = 24
#: A meeting retires once it has admitted this many participants: the
#: driver puts the cumulative participant index in the last IPv4 octet, so
#: the 254th join of one meeting raises (README "Findings", 2).
CHURN_JOINS_PER_MEETING = 150


@dataclass
class ChurnSlot:
    meeting: int
    target: int
    members: List[str] = field(default_factory=list)
    joins: int = 0
    next_home: int = 1


@dataclass
class ChurnState:
    run: ScenarioRun
    rng: random.Random
    slots: List[ChurnSlot]
    next_meeting: int
    baseline: Dict[str, int]
    drain_s: float
    spans: List[Span] = field(default_factory=list)
    ops: int = 0
    failures: List[str] = field(default_factory=list)


class ControlChurn:
    """Membership writes beside a live canary meeting on a two-box cluster.

    One 3-party canary meeting cascaded across both boxes keeps media and
    trunk traffic flowing; churn meetings of muted listeners (signaling,
    STUN and receiver reports only) are driven toward per-meeting target
    sizes 4..24 by joins and leaves drawn from the seeded RNG, with a live
    migration of the drawn meeting every 250th op.
    """

    name = "control_churn"
    default_seed = 31
    sim_s_per_step = CHURN_STEP_S
    rss_checkpoint = 5000  # ops
    step_name = "membership op + 5 sim-ms; op = the join, leave or migrate alone"

    def setup(self, seed: int, smoke: bool) -> ChurnState:
        n_slots = 4 if smoke else 16
        spec = Scenario(
            name="control_churn",
            meetings=(
                MeetingSpec(participants=3, video_bitrate_bps=900_000.0, cascade=(0, 1, 0)),
            ),
            default_meeting=MeetingSpec(send_audio=False, send_video=False, cascade=(0, 1)),
            backend=BackendSpec.cluster(n_sfus=2),
            duration_s=3600.0,
            seed=seed,
        )
        run = build_scenario(spec)
        # always the full warm-up: the baseline fingerprint below must be the
        # canary's settled state (adaptation entries appear as streams start)
        run.run_for(WARMUP_S)
        slots = [
            ChurnSlot(meeting=1 + index, target=4 + (20 * index) // max(1, n_slots - 1))
            for index in range(n_slots)
        ]
        return ChurnState(
            run=run,
            rng=random.Random(seed),
            slots=slots,
            next_meeting=1 + n_slots,
            baseline=control_fingerprint(run),
            drain_s=1.0 if smoke else 5.0,
        )

    def prepare(self, state: ChurnState) -> None:
        pass

    def step(self, state: ChurnState) -> Optional[float]:
        rng, run, spans = state.rng, state.run, state.spans
        slot = state.slots[rng.randrange(len(state.slots))]
        size = len(slot.members)
        draw = rng.random()
        pick = rng.random()
        state.ops += 1
        clock = time.perf_counter
        parent = len(spans)
        spans.append(("op", 0.0, 0.0, -1))
        start = clock()
        try:
            if state.ops % CHURN_MIGRATE_EVERY == 0 and size:
                run.migrate(slot.meeting, slot.next_home)
                slot.next_home = 1 - slot.next_home
                spans.append(("cluster.migrate", start, clock(), parent))
            elif slot.joins >= CHURN_JOINS_PER_MEETING and size == 0:
                # the retired meeting is empty: the slot moves to a fresh one
                slot.meeting, slot.joins = state.next_meeting, 0
                state.next_meeting += 1
                self._join(run, slot, spans, parent, start)
            elif slot.joins < CHURN_JOINS_PER_MEETING and (
                size == 0
                or (
                    size < CHURN_MAX_SIZE
                    and draw < 0.5 + 0.5 * (slot.target - size) / CHURN_MAX_SIZE
                )
            ):
                self._join(run, slot, spans, parent, start)
            else:
                participant = slot.members.pop(int(pick * size))
                if run.leave(slot.meeting, participant) is None:
                    state.failures.append(f"leave {participant} was dropped")
                spans.append(("sfu.leave", start, clock(), parent))
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            state.failures.append(f"op {state.ops} raised {exc!r}")
        end = clock()
        spans[parent] = ("op", start, end, -1)
        run.run_for(CHURN_STEP_S)
        spans.append(("sim.advance", end, clock(), -1))
        return end - start

    @staticmethod
    def _join(run: ScenarioRun, slot: ChurnSlot, spans: List[Span], parent: int, start: float) -> None:
        clock = time.perf_counter
        client = run.add_participant(slot.meeting, start=False)
        joined = clock()
        client.start()
        spans.append(("sfu.join", start, joined, parent))
        spans.append(("client.start", joined, clock(), parent))
        slot.members.append(client.config.participant_id)
        slot.joins += 1

    def packets(self, state: ChurnState) -> Tuple[int, int]:
        return scenario_packets(state.run)

    def progress(self, state: ChurnState) -> int:
        return state.ops

    def report(self, state: ChurnState) -> dict:
        run = state.run
        ops = state.ops
        for slot in state.slots:
            for participant in slot.members:
                ops += 1
                if run.leave(slot.meeting, participant) is None:
                    state.failures.append(f"final leave {participant} was dropped")
            slot.members.clear()
        flow_s = min(FLOW_WINDOW_S, state.drain_s / 2)
        run.run_for(state.drain_s - flow_s)
        earlier = stream_packets(run)
        run.run_for(flow_s)
        after = control_fingerprint(run)
        drift = {k: (state.baseline[k], after[k]) for k in after if after[k] != state.baseline[k]}
        return scenario_report(run, earlier, ops, state.failures, KNOWN_DEFECTS[self.name], drift)

    def teardown(self, state: ChurnState) -> None:
        state.run.close()


# --------------------------------------------------------------------------- dataplane_batch

SFU_ADDRESS = Address("10.0.0.1", 5000)
BATCH_PARTICIPANTS = 6
BATCH_VIDEO_SENDERS = 2
BATCH_VIDEO_BPS = 900_000.0
TICKS_PER_SIM_S = 30
#: (allowed templates, skip cadence) of the two adapted receiver classes:
#: top temporal layer suppressed (15 fps), top two suppressed (7.5 fps).
_ADAPTED = (
    (frozenset({0, 1, 2}), SkipCadence(1, 2)),
    (frozenset({0, 1}), SkipCadence(3, 4)),
)

#: One ingress record before it becomes a datagram: source, payload (an
#: ``RtpPacket`` or an RTCP tuple) and, for video, the frame's template id.
Record = Tuple[Address, object, Optional[int]]


@dataclass
class BatchTraffic:
    """Seeded media + RTCP generator for the installed meetings."""

    rng: random.Random
    video: List[Tuple[Address, int, SvcEncoder, RtpPacketizer]]
    audio: List[Tuple[Address, AudioSource]]
    #: per meeting: (video senders as (address, ssrc), receivers as (address, own ssrc))
    meetings: List[Tuple[List[Tuple[Address, int]], List[Tuple[Address, int]]]]
    tick: int = 0
    last_seq: Dict[int, int] = field(default_factory=dict)

    def next_tick(self) -> List[Record]:
        tick = self.tick
        self.tick += 1
        now = tick / TICKS_PER_SIM_S
        records: List[Record] = []
        for address, ssrc, encoder, packetizer in self.video:
            frame = encoder.next_frame(now)
            for packet in packetizer.packetize(frame):
                records.append((address, packet, frame.template_id))
                self.last_seq[ssrc] = packet.sequence_number
        # 50 audio packets per second on a 30 Hz tick: 2, 2, 1, 2, 2, 1, ...
        for address, source in self.audio:
            for _ in range(1 if tick % 3 == 2 else 2):
                records.append((address, source.next_packet(now), None))
        # about 5% RTCP: one datagram per meeting per tick
        for senders, receivers in self.meetings:
            sender_address, media_ssrc = senders[tick % len(senders)]
            if tick % 3 == 0:
                records.append((sender_address, (SenderReport(sender_ssrc=media_ssrc),), None))
                continue
            pick = self.rng.randrange(len(receivers))
            if receivers[pick][0] == sender_address:
                pick = (pick + 1) % len(receivers)
            address, own_ssrc = receivers[pick]
            if tick % 3 == 1:
                payload: tuple = (
                    ReceiverReport(sender_ssrc=own_ssrc, report_blocks=(ReportBlock(ssrc=media_ssrc),)),
                    Remb(own_ssrc, self.rng.uniform(0.3, 1.2) * BATCH_VIDEO_BPS, (media_ssrc,)),
                )
            else:
                payload = (Nack(own_ssrc, media_ssrc, (self.last_seq.get(media_ssrc, 0),)),)
            records.append((address, payload, None))
        return records


def to_datagrams(records: List[Record], wire: bool) -> List[Datagram]:
    """Materialise records as ingress datagrams; ``wire`` encodes RTP once
    into packed ``PacketView`` buffers, the representation the ledger cites."""
    out = []
    for address, payload, _template in records:
        if wire and not isinstance(payload, tuple):
            payload = PacketView.from_packet(payload)
        out.append(Datagram(src=address, dst=SFU_ADDRESS, payload=payload))
    return out


def build_batch_pipeline(seed: int, meetings: int) -> Tuple[ScallopPipeline, BatchTraffic, Dict[Tuple[int, Address], frozenset]]:
    """Install ``meetings`` six-party meetings through the public control
    API; returns the pipeline, its traffic generator and the adapted
    ``(video ssrc, receiver) -> allowed templates`` map."""
    pipeline = ScallopPipeline(SFU_ADDRESS)
    traffic = BatchTraffic(rng=random.Random(seed), video=[], audio=[], meetings=[])
    adapted: Dict[Tuple[int, Address], frozenset] = {}
    for meeting in range(meetings):
        mgid = pipeline.pre.create_tree()
        addresses = [
            Address(f"10.{1 + meeting // 200}.{meeting % 200}.{index + 2}", 6000 + index)
            for index in range(BATCH_PARTICIPANTS)
        ]
        senders: List[Tuple[Address, int]] = []
        receivers: List[Tuple[Address, int]] = []
        with pipeline.batched_writes():
            for rid, address in enumerate(addresses, start=1):
                pipeline.pre.add_node(
                    mgid, rid=rid, ports=[L2Port(port=rid, l2_xid=rid)], l1_xid=1, prune_enabled=True
                )
                pipeline.install_replica_target(
                    mgid, rid, ReplicaTarget(address=address, participant_id=f"m{meeting}-p{rid - 1}")
                )
            for index, address in enumerate(addresses):
                audio_ssrc = 0x10_0000 + (meeting * BATCH_PARTICIPANTS + index) * 16
                source_seed = seed * 100_003 + audio_ssrc
                entry = StreamForwardingEntry(
                    mode=ForwardingMode.REPLICATE,
                    meeting_id=f"meeting-{meeting}",
                    sender=address,
                    mgid=mgid,
                    rid=index + 1,
                    l2_xid=index + 1,
                )
                pipeline.install_stream((address, audio_ssrc), entry)
                traffic.audio.append((address, AudioSource(ssrc=audio_ssrc, seed=source_seed)))
                receivers.append((address, audio_ssrc))
                if index >= BATCH_VIDEO_SENDERS:
                    continue
                video_ssrc = audio_ssrc + 1
                pipeline.install_stream((address, video_ssrc), entry)
                senders.append((address, video_ssrc))
                traffic.video.append(
                    (
                        address,
                        video_ssrc,
                        SvcEncoder(target_bitrate_bps=BATCH_VIDEO_BPS, seed=source_seed),
                        RtpPacketizer(ssrc=video_ssrc, seed=source_seed),
                    )
                )
                for other, receiver in enumerate(addresses):
                    if other == index:
                        continue
                    # the last receiver is the "best downlink" whose REMB reaches the sender
                    pipeline.install_feedback_rule(
                        receiver,
                        video_ssrc,
                        FeedbackRule(sender=address, forward_remb=other == BATCH_PARTICIPANTS - 1),
                    )
                    if other % 2 == 1:
                        allowed, cadence = _ADAPTED[(other // 2) % 2]
                        pipeline.install_adaptation(
                            video_ssrc, receiver, allowed, SequenceRewriterLowRetransmission(cadence)
                        )
                        adapted[(video_ssrc, receiver)] = allowed
        traffic.meetings.append((senders, receivers))
    return pipeline, traffic, adapted


def check_batch_equivalence(seed: int, meetings: int, ticks: int) -> Tuple[List[str], Optional[str]]:
    """Output check of a sample of ``ticks`` batches: violations, and why the
    optional half was skipped (``None`` if it ran).

    Mandatory, wire ingress only: egress is sequence-continuous per adapted
    (receiver, ssrc) against the ``ideal_rewrite_sequence`` oracle.
    Optional, like a probe: egress is byte-identical between object
    (``RtpPacket``) and wire ingress -- for as long as ``process_batch``
    accepts object ingress; once it raises on it, that half is skipped with
    the error as the reason and the workload stays correct.
    """
    wire_pipeline, traffic, adapted = build_batch_pipeline(seed, meetings)
    object_pipeline, _unused, _adapted = build_batch_pipeline(seed, meetings)
    skipped: Optional[str] = None
    events: Dict[Tuple[int, Address], List[Tuple[int, bool, bool]]] = {key: [] for key in adapted}
    emitted: Dict[Tuple[int, Address], List[Optional[int]]] = {key: [] for key in adapted}
    by_ssrc: Dict[int, List[Tuple[int, Address]]] = {}
    for key in adapted:
        by_ssrc.setdefault(key[0], []).append(key)
    problems: List[str] = []
    for tick in range(ticks):
        records = traffic.next_tick()
        wire_results = wire_pipeline.process_batch(to_datagrams(records, wire=True))
        if skipped is None:
            try:
                object_results = object_pipeline.process_batch(to_datagrams(records, wire=False))
            except Exception as exc:  # the object path is allowed to go away
                skipped = f"process_batch does not take RtpPacket ingress: {exc!r}"
        for index, (record, from_wire) in enumerate(zip(records, wire_results)):
            if skipped is None:
                left = [(d.dst, d.to_bytes()) for d in object_results[index].outputs]
                right = [(d.dst, d.to_bytes()) for d in from_wire.outputs]
                if left != right:
                    problems.append(f"tick {tick} packet {index}: object and wire egress differ")
            _address, payload, template = record
            if template is None:
                continue
            for key in by_ssrc.get(payload.ssrc, ()):
                suppressed = template not in adapted[key]
                events[key].append((payload.sequence_number, suppressed, False))
                sequence = None
                for datagram in from_wire.outputs:
                    if datagram.dst == key[1]:
                        sequence = datagram.payload.sequence_number
                emitted[key].append(sequence)
    for key, history in events.items():
        if emitted[key] != ideal_rewrite_sequence(history):
            problems.append(f"ssrc {key[0]} -> {key[1]}: rewritten sequence departs from the oracle")
    object_pipeline.close()
    wire_pipeline.close()
    return problems, skipped


@dataclass
class BatchState:
    pipeline: ScallopPipeline
    traffic: BatchTraffic
    seed: int
    meetings: int
    smoke: bool
    queue: Deque[List[Datagram]] = field(default_factory=deque)
    spans: List[Span] = field(default_factory=list)
    batches: int = 0
    pkts_in: int = 0
    media_without_replica: int = 0
    uninspected: Optional[Tuple[List[Datagram], list]] = None


class DataplaneBatch:
    """``process_batch`` alone: no netsim, no clients.

    One batch is one 33 ms tick of every sender of every meeting; ingress is
    generated one simulated second at a time outside the timed region.
    """

    name = "dataplane_batch"
    default_seed = 37
    sim_s_per_step = 1.0 / TICKS_PER_SIM_S
    rss_checkpoint = 360  # batches
    step_name = "process_batch of one 33 ms tick; op = the batch"

    def setup(self, seed: int, smoke: bool) -> BatchState:
        meetings = 4 if smoke else 48
        pipeline, traffic, _adapted = build_batch_pipeline(seed, meetings)
        state = BatchState(pipeline, traffic, seed, meetings, smoke)
        # the first simulated second is warm-up: parse memo, flow caches
        for _ in range(6 if smoke else TICKS_PER_SIM_S):
            self.prepare(state)
            self.step(state)
        state.spans.clear()
        state.batches = 0
        return state

    def prepare(self, state: BatchState) -> None:
        self._inspect(state)
        if not state.queue:
            for _ in range(TICKS_PER_SIM_S):
                state.queue.append(to_datagrams(state.traffic.next_tick(), wire=True))

    def step(self, state: BatchState) -> Optional[float]:
        batch = state.queue.popleft()
        start = time.perf_counter()
        results = state.pipeline.process_batch(batch)
        state.spans.append(("process_batch", start, time.perf_counter(), -1))
        state.batches += 1
        state.uninspected = (batch, results)
        return None

    @staticmethod
    def _inspect(state: BatchState) -> None:
        """Output check of the previous batch, kept out of the timed step."""
        if state.uninspected is None:
            return
        batch, results = state.uninspected
        state.uninspected = None
        state.pkts_in += len(batch)
        state.media_without_replica += sum(
            1
            for datagram, result in zip(batch, results)
            if not result.outputs and isinstance(datagram.payload, PacketView)
        )

    def packets(self, state: BatchState) -> Tuple[int, int]:
        self._inspect(state)
        return state.pkts_in, state.pipeline.counters.replicas_out

    def progress(self, state: BatchState) -> int:
        return state.batches

    def report(self, state: BatchState) -> dict:
        self._inspect(state)
        counters = state.pipeline.counters
        failures: List[str] = []
        for label, value in (
            ("table misses", counters.table_misses),
            ("SRTP auth failures", counters.srtp_auth_failures),
            ("media packets that produced no replica", state.media_without_replica),
        ):
            failures.extend([label] * value)
        sample_ticks = 6 if state.smoke else TICKS_PER_SIM_S
        problems, identity_skipped = check_batch_equivalence(state.seed, state.meetings, sample_ticks)
        failures.extend(problems)
        pkts_in = counters.data_plane_packets + counters.cpu_packets
        counts = {
            "dataplane.pkts_in": pkts_in,
            "dataplane.replicas_out": counters.replicas_out,
            "dataplane.replication_factor": counters.replicas_out / pkts_in if pkts_in else 0.0,
            "dataplane.cpu_punt_share": counters.cpu_packets / pkts_in if pkts_in else 0.0,
            "dataplane.adaptation_drops": counters.adaptation_drops,
            "dataplane.table_misses": counters.table_misses,
            "pre.copies_produced": state.pipeline.pre.copies_produced,
            "parser.packets_parsed": state.pipeline.parser.packets_parsed,
        }
        return {
            "attempted": state.pkts_in,
            "failures": failures,
            "defects": {},
            "skipped": {"object_wire_identity": identity_skipped} if identity_skipped else {},
            "sim": {"sim_latency_ms_p50": None, "sim_latency_ms_p99": None, "sim_recv_fps_mean": None},
            "counts": counts,
            "summary": {},
        }

    def teardown(self, state: BatchState) -> None:
        state.pipeline.close()


WORKLOADS = {
    workload.name: workload
    for workload in (
        ScenarioWorkload("steady", 1, _steady_spec),
        ScenarioWorkload("zipf_hotset", 17, _zipf_hotset_spec),
        ScenarioWorkload("adapt_loss", 29, _adapt_loss_spec),
        ControlChurn(),
        DataplaneBatch(),
    )
}
