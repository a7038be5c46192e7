"""The scenario driver: turn a declarative :class:`~repro.scenario.spec.Scenario`
into a live simulation and execute its schedule.

:func:`build_scenario` constructs the simulator, the network, the configured
SFU backend, and the initial meeting population (deterministically — the same
spec and seed always produce the same topology, addresses, and media streams),
then arms the schedule's timed events on the simulator.  The result is a
:class:`ScenarioRun`: a :class:`Testbed` that additionally knows its spec,
supports imperative churn (``add_participant`` / ``leave`` / ``set_link`` —
the same operations the schedule performs), logs every applied event, and
collects uniform per-client / per-meeting metrics plus a state-reconciliation
check (switch-agent, controller, and accountant state must always match the
surviving population).

Both the declarative and the imperative surface go through the same code
paths, so an experiment can mix a scheduled link-degradation phase with an
interactive join loop without caring which side drives the churn.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..baseline.software_sfu import SoftwareSfu
from ..cluster import SfuCluster
from ..core.rate_control import select_decode_target
from ..core.scallop import ScallopSfu
from ..netsim.datagram import Address
from ..netsim.link import LinkProfile, Network
from ..netsim.simulator import Simulator
from ..webrtc.client import ClientConfig, WebRtcClient
from .spec import (
    JoinEvent,
    LeaveEvent,
    LinkEvent,
    MeetingRef,
    MeetingSpec,
    MigrateEvent,
    ParticipantRef,
    Scenario,
)

SFU_ADDRESS = Address("10.0.0.1", 5000)


@dataclass
class Testbed:
    """A built topology: simulator, network, the SFU, and all clients.

    Context manager: ``with build_scenario(spec) as run: ...`` guarantees the
    SFU backend is closed even when the body raises mid-run.
    """

    simulator: Simulator
    network: Network
    sfu: object
    clients: List[WebRtcClient] = field(default_factory=list)
    clients_by_meeting: Dict[str, List[WebRtcClient]] = field(default_factory=dict)
    closed: bool = False

    def meeting(self, meeting_id: str) -> List[WebRtcClient]:
        return self.clients_by_meeting.get(meeting_id, [])

    def run_for(self, duration_s: float) -> None:
        self.simulator.run_for(duration_s)

    def close(self) -> None:
        """Release SFU backend resources; safe to call on any testbed,
        idempotent."""
        self.closed = True
        close = getattr(self.sfu, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "Testbed":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass(frozen=True)
class MeetingStats:
    """Uniform per-meeting metrics collected from the surviving clients."""

    meeting_id: str
    participants: int
    inbound_video_streams: int
    mean_receive_fps: float
    mean_jitter_ms: float
    freeze_events: int
    video_packets_received: int


@dataclass
class ScenarioRun(Testbed):
    """A running scenario: the testbed plus its spec, churn, and metrics."""

    scenario: Optional[Scenario] = None
    #: Clients that left mid-run (kept for post-hoc metric collection).
    departed: List[WebRtcClient] = field(default_factory=list)
    #: ``(sim_time, description)`` per applied schedule/imperative event.
    event_log: List[Tuple[float, str]] = field(default_factory=list)
    joins: int = 0
    leaves: int = 0
    #: Meeting ids in registration order (spec order first, then dynamic
    #: creations) — the iteration order of :meth:`meeting_stats`.
    _meeting_order: List[str] = field(default_factory=list)
    #: Meeting id -> naming/addressing index.  Unique per meeting (it seeds
    #: participant ids and client addresses); spec meetings use their spec
    #: position, canonical ``meeting-<n>`` ids use ``n``, anything else gets
    #: the first unused index.
    _meeting_naming: Dict[str, int] = field(default_factory=dict)
    #: Next fresh participant index per meeting (monotonic across leaves, so
    #: a re-join never reuses a departed participant's address).
    _participant_counter: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------ lifecycle

    def run(self, duration_s: Optional[float] = None) -> "ScenarioRun":
        """Run to the scenario horizon, or for an explicit duration.

        Without an argument this advances the clock *to* ``duration_s`` of
        the spec (a no-op if already there), so mixing ``run_for`` phases
        with a final ``run()`` never overshoots the declared horizon.  An
        explicit ``duration_s`` runs for that long from now.
        """
        if duration_s is not None:
            self.run_for(duration_s)
            return self
        horizon = self.scenario.duration_s if self.scenario is not None else 0.0
        self.run_for(max(0.0, horizon - self.simulator.now))
        return self

    # ------------------------------------------------------------------ selectors

    def meeting_id_for(self, meeting: MeetingRef) -> str:
        """Resolve a meeting reference (spec index or id) to its id.

        Integer references are stable: index ``n`` names the spec's
        ``n``-th meeting, or the canonical ``meeting-<n>`` beyond the spec
        (created lazily by the next join targeting it) — never "whatever was
        registered ``n``-th", so out-of-order dynamic joins cannot alias.
        """
        if isinstance(meeting, str):
            return meeting
        scenario = self.scenario
        if scenario is not None and 0 <= meeting < len(scenario.meetings):
            return scenario.meetings[meeting].meeting_id or f"meeting-{meeting}"
        return f"meeting-{meeting}"

    def _register_meeting(self, meeting_id: str, prefer_index: Optional[int] = None) -> int:
        """Register a meeting (idempotent); returns its naming index."""
        index = self._meeting_naming.get(meeting_id)
        if index is not None:
            return index
        used = set(self._meeting_naming.values())
        candidate = prefer_index
        if candidate is None and meeting_id.startswith("meeting-"):
            suffix = meeting_id[len("meeting-"):]
            if suffix.isdigit():
                candidate = int(suffix)
        if candidate is None or candidate in used:
            candidate = 0
            while candidate in used:
                candidate += 1
        self._meeting_naming[meeting_id] = candidate
        self._meeting_order.append(meeting_id)
        return candidate

    def _spec_for(self, meeting_id: str) -> MeetingSpec:
        scenario = self.scenario
        if scenario is not None:
            for index, spec in enumerate(scenario.meetings):
                if (spec.meeting_id or f"meeting-{index}") == meeting_id:
                    return spec
            if scenario.default_meeting is not None:
                return scenario.default_meeting
        return MeetingSpec()

    def find_client(self, meeting: MeetingRef, participant: ParticipantRef) -> Optional[WebRtcClient]:
        """Look up a surviving client by meeting + participant reference.

        Read-only: a failed lookup registers nothing (an unknown meeting id
        must not claim a spec-order slot later integer references resolve
        through).
        """
        meeting_id = self.meeting_id_for(meeting)
        members = self.clients_by_meeting.get(meeting_id, [])
        if isinstance(participant, str):
            for client in members:
                if client.config.participant_id == participant:
                    return client
            return None
        meeting_index = self._meeting_naming.get(meeting_id)
        if meeting_index is None:
            return None
        wanted = self._participant_id(meeting_index, participant)
        for client in members:
            if client.config.participant_id == wanted:
                return client
        return None

    @staticmethod
    def _participant_id(meeting_index: int, participant_index: int) -> str:
        return f"m{meeting_index}-p{participant_index}"

    @staticmethod
    def _client_address(meeting_index: int, participant_index: int) -> Address:
        # participant indices are cumulative (never reused): joins past the
        # 254th spill, 254 at a time, into the first octets above 10, which
        # nothing else uses.  The first 254 keep their historical addresses
        # (they feed crc32 flow placement).
        page, host = divmod(participant_index, 254)
        return Address(
            f"{10 + page}.{1 + meeting_index // 200}.{meeting_index % 200}.{host + 2}",
            6000 + participant_index,
        )

    # ------------------------------------------------------------------ churn (imperative + scheduled)

    def add_participant(
        self,
        meeting: MeetingRef,
        participant_index: Optional[int] = None,
        start: bool = True,
    ) -> WebRtcClient:
        """Join one new participant (creating the meeting if needed)."""
        meeting_id = self.meeting_id_for(meeting)
        meeting_index = self._register_meeting(
            meeting_id, prefer_index=meeting if isinstance(meeting, int) else None
        )
        if participant_index is None:
            participant_index = self._participant_counter.get(meeting_id, 0)
        client = self._admit(meeting_id, meeting_index, participant_index)
        if start:
            client.start()
        self.joins += 1
        self._log(f"join {client.config.participant_id} -> {meeting_id}")
        return client

    def _admit(self, meeting_id: str, meeting_index: int, participant_index: int) -> WebRtcClient:
        """Create, attach, and sign in one participant (not yet started)."""
        scenario = self.scenario
        spec = self._spec_for(meeting_id)
        traffic = scenario.traffic if scenario is not None else None
        seed = scenario.seed if scenario is not None else 1
        frame_bursts = spec.frame_bursts
        if frame_bursts is None:
            frame_bursts = traffic.frame_bursts if traffic is not None else False
        wire_native = spec.wire_native
        if wire_native is None:
            wire_native = traffic.wire_native if traffic is not None else False
        config = ClientConfig(
            participant_id=self._participant_id(meeting_index, participant_index),
            meeting_id=meeting_id,
            address=self._client_address(meeting_index, participant_index),
            remote=SFU_ADDRESS,
            send_audio=spec.send_audio,
            send_video=spec.send_video,
            video_bitrate_bps=spec.video_bitrate_bps,
            frame_rate=spec.frame_rate,
            seed=seed * 1000 + meeting_index * 37 + participant_index,
            send_frames_as_bursts=frame_bursts,
            wire_native=wire_native,
        )
        client = WebRtcClient(config, self.simulator, self.network)
        self.network.attach(client, uplink=spec.uplink, downlink=spec.downlink)
        self.clients.append(client)
        self.clients_by_meeting.setdefault(meeting_id, []).append(client)
        counter = self._participant_counter.get(meeting_id, 0)
        self._participant_counter[meeting_id] = max(counter, participant_index + 1)
        if isinstance(self.sfu, SfuCluster):
            # declarative placement: an explicit cascade pins participant i
            # to member cascade[i % len], a plain `sfu` homes the whole
            # meeting; otherwise the cluster's default placement applies
            member: Optional[int] = None
            if spec.cascade:
                member = spec.cascade[participant_index % len(spec.cascade)]
            elif spec.sfu is not None:
                member = spec.sfu
            self.sfu.join(client, member=member)
        else:
            self.sfu.join(client)  # type: ignore[attr-defined]
        return client

    def leave(self, meeting: MeetingRef, participant: ParticipantRef) -> Optional[WebRtcClient]:
        """One participant leaves: signaling teardown, then network detach.

        The SFU releases everything the participant consumed (forwarding
        entries, PRE nodes, adaptation registers, feedback rules, accountant
        charges); the client stops producing media and its endpoint leaves
        the network.  The client object is kept in :attr:`departed` so its
        collected metrics remain readable.
        """
        client = self.find_client(meeting, participant)
        if client is None:
            return None
        meeting_id = client.config.meeting_id
        self.sfu.leave(client)  # type: ignore[attr-defined]
        client.detach()
        self.clients.remove(client)
        members = self.clients_by_meeting.get(meeting_id, [])
        if client in members:
            members.remove(client)
        self.departed.append(client)
        self.leaves += 1
        self._log(f"leave {client.config.participant_id} <- {meeting_id}")
        return client

    def set_link(
        self,
        meeting: MeetingRef,
        participant: ParticipantRef,
        uplink: Optional[LinkProfile] = None,
        downlink: Optional[LinkProfile] = None,
    ) -> bool:
        """Apply a link-profile phase change to one participant's access links."""
        client = self.find_client(meeting, participant)
        if client is None:
            return False
        self.network.reprofile(client.address, uplink=uplink, downlink=downlink)
        changed = " ".join(
            part
            for part, profile in (("uplink", uplink), ("downlink", downlink))
            if profile is not None
        )
        self._log(f"link {client.config.participant_id}: {changed or 'no-op'}")
        return True

    def migrate(self, meeting: MeetingRef, to_sfu: int) -> bool:
        """Live-migrate a meeting onto cluster member ``to_sfu``.

        Cross-SFU migration (``repro.cluster``): versioned snapshot, client
        re-home, rewriter adoption, straggler drain.  Returns ``False`` when
        the meeting is already home on the target; raises on a non-cluster
        backend (migration is a federation capability, not a churn event).
        """
        if not isinstance(self.sfu, SfuCluster):
            raise ValueError("migrate() requires a multi-SFU backend (BackendSpec.n_sfus > 1)")
        meeting_id = self.meeting_id_for(meeting)
        moved = self.sfu.migrate_meeting(meeting_id, to_sfu)
        self._log(f"migrate {meeting_id} -> sfu {to_sfu}{'' if moved else ' (already home)'}")
        return moved

    def _log(self, message: str) -> None:
        self.event_log.append((self.simulator.now, message))

    def _apply_event(self, event) -> None:
        if isinstance(event, JoinEvent):
            self.add_participant(event.meeting, event.participant_index)
        elif isinstance(event, LeaveEvent):
            if self.leave(event.meeting, event.participant) is None:
                # a scheduled event aimed at a participant that does not
                # (or no longer) exists is a scenario bug worth surfacing
                self._log(f"drop leave {event.meeting}/{event.participant}: no such participant")
        elif isinstance(event, LinkEvent):
            if not self.set_link(event.meeting, event.participant, event.uplink, event.downlink):
                self._log(f"drop link {event.meeting}/{event.participant}: no such participant")
        elif isinstance(event, MigrateEvent):
            self.migrate(event.meeting, event.to_sfu)
        else:  # pragma: no cover - spec types are closed
            raise TypeError(f"unknown scenario event: {event!r}")

    # ------------------------------------------------------------------ metrics

    def meeting_stats(self, window_s: float = 4.0) -> Dict[str, MeetingStats]:
        """Per-meeting receive metrics over the surviving population."""
        now = self.simulator.now
        stats: Dict[str, MeetingStats] = {}
        for meeting_id in self._meeting_order:
            members = self.clients_by_meeting.get(meeting_id, [])
            rates: List[float] = []
            jitters: List[float] = []
            freezes = 0
            packets = 0
            for client in members:
                for stream in client.video_receivers.values():
                    rates.append(stream.frame_rate(window_s, now))
                    jitters.append(stream.jitter_ms)
                    freezes += stream.freeze_events
                    packets += stream.packets_received
            stats[meeting_id] = MeetingStats(
                meeting_id=meeting_id,
                participants=len(members),
                inbound_video_streams=len(rates),
                mean_receive_fps=sum(rates) / len(rates) if rates else 0.0,
                mean_jitter_ms=sum(jitters) / len(jitters) if jitters else 0.0,
                freeze_events=freezes,
                video_packets_received=packets,
            )
        return stats

    def summary(self) -> Dict[str, object]:
        """One-dict run summary for CLIs and logs."""
        sfu = self.sfu
        out: Dict[str, object] = {
            "scenario": self.scenario.name if self.scenario is not None else "ad-hoc",
            "sim_time_s": round(self.simulator.now, 3),
            "meetings": sum(1 for members in self.clients_by_meeting.values() if members),
            "clients": len(self.clients),
            "departed": len(self.departed),
            "joins": self.joins,
            "leaves": self.leaves,
            "events_applied": len(self.event_log),
        }
        if isinstance(sfu, SfuCluster):
            out["sfu"] = "scallop-cluster"
            out["n_sfus"] = len(sfu.members)
            out["packets_in"] = sum(m.stats.packets_in for m in sfu.members)
            out["packets_out"] = sum(m.stats.packets_out for m in sfu.members)
            out["trunk_packets_in"] = sum(m.trunk_stats.packets_in for m in sfu.members)
            out["trunk_subscriptions"] = sum(m.trunk_stats.subscriptions for m in sfu.members)
            out["meeting_migrations"] = sum(m.trunk_stats.migrations_in for m in sfu.members)
            out["snapshot_bytes_shipped"] = sum(
                m.trunk_stats.snapshot_bytes for m in sfu.members
            ) // 2  # counted on both ends
        elif isinstance(sfu, ScallopSfu):
            out["sfu"] = "scallop"
            out["packets_in"] = sfu.stats.packets_in
            out["packets_out"] = sfu.stats.packets_out
            shares = sfu.data_plane_fraction()
            out["data_plane_packet_share"] = round(shares["packets"], 4)
            pipeline = sfu.pipeline
            migrations = getattr(pipeline, "migrations_applied", None)
            if migrations is not None:
                out["n_shards"] = pipeline.n_shards
                out["migrations_applied"] = migrations
                tracker = getattr(pipeline, "load_tracker", None)
                if tracker is not None:
                    out["rebalance_batches_observed"] = tracker.batches_observed
                    # report the quantity the policy actually drives down:
                    # egress-weighted shard load, under the armed config's
                    # weight (ingress-only skew under-states the balance the
                    # planner achieved on heterogeneous meeting sizes)
                    rebalancer = getattr(pipeline, "rebalancer", None)
                    egress_weight = (
                        rebalancer.config.egress_weight if rebalancer is not None else 0.0
                    )
                    weights = tracker.shard_weights(egress_weight)
                    mean = sum(weights) / len(weights) if weights else 0.0
                    out["rebalance_skew"] = round(max(weights) / mean, 3) if mean else 1.0
        elif isinstance(sfu, SoftwareSfu):
            out["sfu"] = "software"
            out["packets_in"] = sfu.stats.packets_in
            out["packets_out"] = sfu.stats.packets_out
            out["packets_dropped_cpu"] = sfu.stats.packets_dropped_cpu
        return out

    def metrics_snapshot(self) -> Dict[str, object]:
        """The run's unified telemetry snapshot (``repro.obs`` schema).

        Folds the SFU pipeline's entire stat surface through the
        :class:`~repro.obs.bus.TelemetryBus` and adds the client-side
        end-to-end RTP latency samples (surviving and departed clients),
        stamped with the simulator clock.  Works on any backend; the tracing
        series need the declarative ``obs=True`` backend knob and are present
        only when it was armed (``--metrics-out`` arms it).  Every value is
        a function of the seed: two runs write byte-identical snapshots.
        """
        from ..obs.bus import TelemetryBus

        bus = TelemetryBus()
        sim_time_s = self.simulator.now
        if isinstance(self.sfu, SfuCluster):
            for member in self.sfu.members:
                bus.add_engine(member.pipeline, sim_time_s=sim_time_s)
        else:
            pipeline = getattr(self.sfu, "pipeline", None)
            if pipeline is not None:
                bus.add_engine(pipeline, sim_time_s=sim_time_s)
        samples: List[float] = []
        for client in self.clients:
            samples.extend(getattr(client, "rtp_latency_samples_ms", ()))
        for client in self.departed:
            samples.extend(getattr(client, "rtp_latency_samples_ms", ()))
        bus.add_latency_samples(samples)
        return bus.snapshot(sim_time_s)

    # ------------------------------------------------------------------ reconciliation

    def reconcile(self) -> List[str]:
        """Check that SFU-side state matches the surviving population.

        Returns a list of human-readable discrepancies (empty = consistent).
        After any amount of churn the controller, switch agent, data-plane
        tables, and the resource accountant must all describe exactly the
        participants still in the run — a leave that leaks table entries,
        PRE nodes, or accountant charges shows up here.
        """
        problems: List[str] = []
        surviving_ids = {client.config.participant_id for client in self.clients}
        surviving_addresses = {client.address for client in self.clients}
        surviving_ssrcs = set()
        for client in self.clients:
            if client.config.send_audio:
                surviving_ssrcs.add(client.audio_ssrc)
            if client.config.send_video:
                surviving_ssrcs.add(client.video_ssrc)

        sfu = self.sfu
        if isinstance(sfu, SfuCluster):
            # the cluster audits each box against the cross-SFU population it
            # tracks itself (homes, trunk subscriptions, idle baselines); the
            # driver only cross-checks the two population ledgers agree
            if sfu.total_participants() != len(self.clients):
                problems.append(
                    f"cluster tracks {sfu.total_participants()} participants, "
                    f"{len(self.clients)} survive"
                )
            problems.extend(sfu.reconcile())
            return problems
        if isinstance(sfu, SoftwareSfu):
            if sfu.total_participants != len(self.clients):
                problems.append(
                    f"software SFU tracks {sfu.total_participants} participants, "
                    f"{len(self.clients)} survive"
                )
            stale = set(sfu._by_ssrc) - surviving_ssrcs
            if stale:
                problems.append(f"software SFU keeps {len(stale)} departed SSRC routes")
            return problems
        if not isinstance(sfu, ScallopSfu):
            return problems

        controller = sfu.controller
        if controller.total_participants() != len(self.clients):
            problems.append(
                f"controller tracks {controller.total_participants()} participants, "
                f"{len(self.clients)} survive"
            )
        agent_ids = set(sfu.agent._participants)
        if agent_ids != surviving_ids:
            problems.append(
                f"switch agent tracks {sorted(agent_ids ^ surviving_ids)} inconsistently"
            )
        control = sfu.pipeline.control
        for (src, ssrc), _entry in control.stream_table.entries():
            if src not in surviving_addresses or ssrc not in surviving_ssrcs:
                problems.append(f"stale stream entry for departed flow {src}/{ssrc}")
        for (ssrc, receiver), _entry in control.adaptation_table.entries():
            if receiver not in surviving_addresses or ssrc not in surviving_ssrcs:
                problems.append(f"stale adaptation entry ({ssrc}, {receiver})")
        for (receiver, ssrc), _rule in control.feedback_table.entries():
            if receiver not in surviving_addresses or ssrc not in surviving_ssrcs:
                problems.append(f"stale feedback rule ({receiver}, {ssrc})")
        # (the load tracker is deliberately NOT checked: in-flight tail
        # traffic of a departed client legitimately re-mints telemetry rows,
        # which are bounded and decay to zero — placement pins are the state
        # that must not outlive the population, enforced here)
        for (src, ssrc), _shard in control.placement_table.entries():
            if src not in surviving_addresses:
                problems.append(f"stale placement exception for departed flow {src}/{ssrc}")
        accountant = control.accountant
        pre = control.pre
        if accountant.trees_allocated != pre.num_trees:
            problems.append(
                f"accountant holds {accountant.trees_allocated} trees, PRE has {pre.num_trees}"
            )
        if accountant.l1_nodes_allocated != pre.total_l1_nodes():
            problems.append(
                f"accountant holds {accountant.l1_nodes_allocated} L1 nodes, "
                f"PRE has {pre.total_l1_nodes()}"
            )
        tracker_cells = sum(
            getattr(rewriter, "state_cells", 1)
            for _index, rewriter in control.stream_trackers.used_entries()
        )
        if accountant.stream_tracker_cells_used != tracker_cells:
            problems.append(
                f"accountant charges {accountant.stream_tracker_cells_used} tracker cells, "
                f"registers hold {tracker_cells}"
            )
        if control.stream_indices.in_use != len(control.adaptation_table):
            problems.append(
                f"{control.stream_indices.in_use} stream indices allocated for "
                f"{len(control.adaptation_table)} adaptation entries"
            )
        return problems


# --------------------------------------------------------------------------- building


def _build_sfu(scenario: Scenario, simulator: Simulator, network: Network):
    backend = scenario.backend
    if backend.kind == "scallop" and backend.n_sfus > 1:
        # member 0 sits on SFU_ADDRESS, so clients' initial signaling target
        # is unchanged; per-member backend knobs are uniform across the fleet
        return SfuCluster(
            simulator,
            network,
            n_sfus=backend.n_sfus,
            rewrite_variant=backend.rewrite_variant,
            adaptation_thresholds_bps=backend.adaptation_thresholds_bps,
            uplink_profile=backend.sfu_link,
            downlink_profile=backend.sfu_link,
            n_shards=backend.n_shards,
            rebalance=backend.rebalance_config(),
            obs=backend.obs,
        )
    if backend.kind == "scallop":
        return ScallopSfu(
            SFU_ADDRESS,
            simulator,
            network,
            rewrite_variant=backend.rewrite_variant,
            adaptation_thresholds_bps=backend.adaptation_thresholds_bps,
            uplink_profile=backend.sfu_link,
            downlink_profile=backend.sfu_link,
            n_shards=backend.n_shards,
            rebalance=backend.rebalance_config(),
            obs=backend.obs,
        )
    return SoftwareSfu(
        SFU_ADDRESS,
        simulator,
        network,
        cores=backend.cores,
        cpu=backend.cpu,
        uplink_profile=backend.sfu_link,
        downlink_profile=backend.sfu_link,
        select_fn=backend.select_fn or select_decode_target,
    )


def build_scenario(scenario: Scenario) -> ScenarioRun:
    """Build a scenario into a running (not yet advanced) simulation.

    Deterministic: topology, addresses, seeds, and signaling order are pure
    functions of the spec, so two builds of the same scenario are
    stat-identical (this is also what makes the legacy
    ``build_*_testbed`` shims exactly equivalent to their scenario twins).
    The schedule's events are armed on the simulator; ``run()`` (or any
    ``run_for``) executes them at their times.
    """
    late_events = sum(1 for event in scenario.schedule.events if event.at_s >= scenario.duration_s)
    if late_events:
        # legal (an interactive caller may run_for past the horizon) but a
        # trap when the run ends at duration_s: surface it at build time
        warnings.warn(
            f"{late_events} schedule event(s) at/after duration_s="
            f"{scenario.duration_s}; they only fire if the run is advanced "
            "past the scenario horizon",
            stacklevel=2,
        )
    resolved_ids = [
        spec.meeting_id or f"meeting-{index}" for index, spec in enumerate(scenario.meetings)
    ]
    duplicates = {mid for mid in resolved_ids if resolved_ids.count(mid) > 1}
    if duplicates:
        raise ValueError(
            f"scenario declares duplicate meeting ids: {sorted(duplicates)} "
            "(every MeetingSpec must resolve to a distinct meeting)"
        )
    simulator = Simulator()
    network = Network(
        simulator,
        seed=scenario.seed,
        rx_coalesce_window_s=(
            scenario.traffic.rx_coalesce_window_s if scenario.effective_frame_bursts() else 0.0
        ),
    )
    sfu = _build_sfu(scenario, simulator, network)
    run = ScenarioRun(simulator=simulator, network=network, sfu=sfu, scenario=scenario)

    for index, (meeting_id, spec) in enumerate(zip(resolved_ids, scenario.meetings)):
        run._register_meeting(meeting_id, prefer_index=index)
        for participant_index in range(spec.participants):
            run._admit(meeting_id, index, participant_index)
            run.joins += 1
    if isinstance(sfu, (ScallopSfu, SfuCluster)):
        sfu.start()
    for client in run.clients:
        client.start()

    now = simulator.now
    for event in sorted(scenario.schedule.events, key=lambda e: e.at_s):
        simulator.schedule(max(0.0, event.at_s - now), lambda e=event: run._apply_event(e))
    return run
