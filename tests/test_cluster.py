"""Suite for ``repro.cluster`` (PR 10): multi-SFU federation.

Seven layers:

* **cascade stat-identity** — the headline property: a meeting cascaded
  across two Scallop boxes over an inter-SFU trunk delivers *exactly* the
  same packets to every receiver (per-SSRC sequence sets and byte counts)
  as the identical meeting homed on one box.  Trunking must be invisible
  to the media plane.
* **flow-snapshot oracle continuity** — rate adaptation exported mid-stream
  from one control plane (``export_flow_state``) and imported into a fresh
  one continues the rewritten sequence space exactly where
  ``ideal_rewrite_sequence`` says it should be — in-flight wraparound state
  included.  This is the pipeline-level core of cross-SFU migration.
* **snapshot versioning** — a mismatched ``CONTROL_SNAPSHOT_VERSION`` is
  rejected loudly (naming both versions), and an export -> import -> export
  round trip is field-for-field identical.
* **live migration end to end** — a cascaded meeting live-migrates between
  boxes mid-run: no receiver ends with a sequence gap, no decoder-state
  corruption, and the migrated-away box drains to the empty
  ``ClusterSfu.state()``.
* **meetings sharing a trunk** — trunk endpoints are keyed per meeting, so
  emptying one cascaded meeting leaves the trunk endpoint and the feedback
  rules of every other meeting on the same peer in place.
* **federation telemetry** — every snapshot carries the ``repro.trunk.*``
  series (zero-valued on a classic single-box engine), live trunk counters
  surface through ``TelemetryBus.add_engine``, and ``validate_snapshot``
  requires the federation series.
* **one audit per box** — ``state()`` moves no counter, generation or cache,
  and ``audit_box`` names a derived index that disagrees with its table.
"""

import dataclasses

import pytest

from repro.cluster import (
    MeetingSnapshot,
    SfuCluster,
    snapshot_size_bytes,
    trunk_participant_id,
)
from repro.core.replication import ParticipantEndpoint
from repro.core.seqrewrite import (
    SequenceRewriterLowMemory,
    SequenceRewriterLowRetransmission,
    SkipCadence,
    ideal_rewrite_sequence,
)
from repro.core.switch_agent import SwitchAgent
from repro.dataplane.pipeline import (
    CONTROL_SNAPSHOT_VERSION,
    ForwardingMode,
    ReplicaTarget,
    ScallopPipeline,
    SnapshotVersionError,
    StreamForwardingEntry,
    decode_flow_state,
    state_diff,
)
from repro.dataplane.pre import L2Port
from repro.netsim.datagram import Address, Datagram
from repro.obs import CORE_SERIES, TelemetryBus, validate_snapshot
from repro.obs.bus import TRUNK_KEYS
from repro.scenario import (
    BackendSpec,
    MeetingSpec,
    Scenario,
    Schedule,
    TrafficSpec,
    build_scenario,
    federated_pair,
)
from repro.webrtc.encoder import RtpPacketizer, SvcEncoder

SFU = Address("10.0.0.1", 5000)

#: Drain margin appended after every scenario horizon: media production is
#: stopped, then the simulation runs on so in-flight packets (including the
#: extra trunk hop) land and NACK-driven repairs complete before the
#: delivered sets are compared.
DRAIN_S = 1.0


# --------------------------------------------------------------------------- cascade stat-identity


def _identity_scenario(n_sfus: int) -> Scenario:
    """The same 4-party meeting, homed on one box or cascaded 2+2.

    ``adaptation_thresholds_bps=(0.0, 0.0)`` pins every receiver to the full
    decode target, so no layer is ever suppressed and the delivered packet
    sets must be *byte-identical* across topologies (suppression timing
    depends on REMB arrival, which the trunk hop legitimately shifts).
    """
    if n_sfus > 1:
        backend = BackendSpec.cluster(n_sfus=n_sfus, adaptation_thresholds_bps=(0.0, 0.0))
        cascade = (0, 0, 1, 1)
    else:
        backend = BackendSpec(kind="scallop", adaptation_thresholds_bps=(0.0, 0.0))
        cascade = None
    return Scenario(
        name=f"identity_{n_sfus}sfu",
        meetings=(
            MeetingSpec(participants=4, video_bitrate_bps=900_000.0, cascade=cascade),
        ),
        backend=backend,
        traffic=TrafficSpec(frame_bursts=True, wire_native=True),
        duration_s=4.0,
        seed=41,
    )


def _delivered_stats(run):
    """Per participant: {ssrc: (delivered sequence set, bytes)} — the
    receiver-observable truth the identity property compares."""
    rows = {}
    for client in run.clients:
        rows[client.config.participant_id] = {
            ssrc: (frozenset(stream.received_seqs), stream.bytes_received)
            for ssrc, stream in sorted(client.video_receivers.items())
        }
    return rows


def _run_quiesced(scenario: Scenario):
    """Run a scenario to its horizon, stop media production, and drain."""
    with build_scenario(scenario) as run:
        run.run()
        for client in run.clients:
            client.stop()
        run.run_for(DRAIN_S)
        problems = run.reconcile()
        delivered = _delivered_stats(run)
        trunk_packets = 0
        if isinstance(run.sfu, SfuCluster):
            trunk_packets = sum(m.trunk_stats.packets_in for m in run.sfu.members)
        return delivered, problems, trunk_packets


class TestCascadeStatIdentity:
    """A trunked meeting must be indistinguishable from a single-box one."""

    @pytest.fixture(scope="class")
    def runs(self):
        single = _run_quiesced(_identity_scenario(1))
        cascaded = _run_quiesced(_identity_scenario(2))
        return single, cascaded

    def test_both_topologies_reconcile(self, runs):
        (_, single_problems, _), (_, cascaded_problems, _) = runs
        assert single_problems == []
        assert cascaded_problems == []

    def test_media_actually_crossed_the_trunk(self, runs):
        (_, _, single_trunk), (_, _, cascaded_trunk) = runs
        assert single_trunk == 0
        assert cascaded_trunk > 0

    def test_delivered_streams_are_stat_identical(self, runs):
        (single, _, _), (cascaded, _, _) = runs
        assert set(single) == set(cascaded)
        for participant_id in single:
            assert cascaded[participant_id] == single[participant_id], (
                f"{participant_id}: cascaded delivery diverged from single-box"
            )
        # and the property is not vacuous: every receiver saw 3 remote
        # video streams with real traffic on each
        for streams in single.values():
            assert len(streams) == 3
            assert all(seqs and bytes_received > 0 for seqs, bytes_received in streams.values())


# --------------------------------------------------------------------------- flow-snapshot oracle continuity


def _build_adapted_pipeline(pipeline, rewriter_cls, allowed_templates):
    """One meeting on ``pipeline``: sender + 2 receivers, rate adaptation on
    receiver 1, packetizer pinned so the sequence space wraps mid-test."""
    sender = Address("10.6.0.2", 6000)
    receivers = [Address("10.6.0.3", 6001), Address("10.6.0.4", 6002)]
    ssrc = 55_000
    mgid = pipeline.pre.create_tree()
    for rid, address in enumerate([sender] + receivers, start=1):
        pipeline.pre.add_node(
            mgid, rid=rid, ports=[L2Port(port=rid, l2_xid=rid)], l1_xid=1, prune_enabled=True
        )
        pipeline.install_replica_target(
            mgid, rid, ReplicaTarget(address=address, participant_id=f"p{rid}")
        )
    pipeline.install_stream(
        (sender, ssrc),
        StreamForwardingEntry(
            mode=ForwardingMode.REPLICATE,
            meeting_id="oracle",
            sender=sender,
            mgid=mgid,
            rid=1,
            l2_xid=1,
        ),
    )
    if rewriter_cls is not None:
        pipeline.install_adaptation(
            ssrc, receivers[0], allowed_templates, rewriter_cls(SkipCadence(1, 2))
        )
    return sender, receivers, ssrc


class TestFlowSnapshotOracleContinuity:
    """``export_flow_state`` -> ``import_flow_state`` across control planes
    must leave the migrated flow's rewritten sequence space exactly where
    the oracle says — this is the dataplane half of cross-SFU migration."""

    @pytest.mark.parametrize(
        "rewriter_cls", [SequenceRewriterLowMemory, SequenceRewriterLowRetransmission]
    )
    def test_flow_continues_on_the_destination_box(self, rewriter_cls):
        allowed = frozenset({0, 1, 3, 4})  # suppresses the top temporal layer
        source = ScallopPipeline(Address("10.0.0.1", 5000))
        _sender, receivers, ssrc = _build_adapted_pipeline(
            source, rewriter_cls, allowed
        )
        # start ~60 packets before the 65535 -> 0 wrap so the wrap lands
        # in-flight, carried across the boxes inside the packed snapshot
        packetizer = RtpPacketizer(ssrc=ssrc, seed=1)
        packetizer._sequence_number = 65_470
        encoder = SvcEncoder(target_bitrate_bps=1_500_000, seed=1)
        adapted = receivers[0]
        sender = Address("10.6.0.2", 6000)

        events = []   # (seq, suppressed, lost) ground truth in arrival order
        emitted = []  # rewritten seq (or None) per event, from the outputs

        def feed(engine, batches, clock_base):
            for batch_index in range(batches):
                batch = []
                for frame_index in range(4):
                    frame = encoder.next_frame((clock_base + batch_index * 4 + frame_index) / 30)
                    for packet in packetizer.packetize(frame):
                        suppressed = (
                            packet.extension is not None
                            and frame.template_id not in allowed
                        )
                        events.append((packet.sequence_number, suppressed, False))
                        batch.append(Datagram(src=sender, dst=engine.sfu_address, payload=packet))
                for result in engine.process_batch(batch):
                    outs = [d for d in result.outputs if d.dst == adapted]
                    emitted.append(outs[0].payload.sequence_number if outs else None)

        feed(source, 6, 0)
        payload = source.export_flow_state()
        # the destination box: same meeting topology, NO pre-installed
        # adaptation — the imported snapshot must carry all of it
        destination = ScallopPipeline(Address("10.0.0.2", 5000))
        _build_adapted_pipeline(destination, None, allowed)
        assert destination.import_flow_state(payload) == 1
        feed(destination, 6, 24)

        assert emitted == ideal_rewrite_sequence(events)
        suppressed_count = sum(1 for _seq, s, _l in events if s)
        assert suppressed_count > 0, "the workload never exercised suppression"
        seqs = [seq for seq, _s, _l in events]
        assert max(seqs) > 65_000 and min(seqs) < 500, "the stream never wrapped"


# --------------------------------------------------------------------------- snapshot versioning


class TestSnapshotVersioning:
    def _exported(self, traffic_batches=3):
        engine = ScallopPipeline(SFU)
        _sender, _receivers, ssrc = _build_adapted_pipeline(
            engine, SequenceRewriterLowMemory, frozenset({0, 1, 3, 4})
        )
        packetizer = RtpPacketizer(ssrc=ssrc, seed=3)
        encoder = SvcEncoder(target_bitrate_bps=1_500_000, seed=3)
        sender = Address("10.6.0.2", 6000)
        for batch_index in range(traffic_batches):
            batch = []
            for frame_index in range(4):
                frame = encoder.next_frame((batch_index * 4 + frame_index) / 30)
                for packet in packetizer.packetize(frame):
                    batch.append(Datagram(src=sender, dst=SFU, payload=packet))
            engine.process_batch(batch)
        return engine.export_flow_state()

    def test_mismatched_version_is_rejected_loudly(self):
        payload = self._exported()
        tampered = dict(payload, version=99)
        with pytest.raises(SnapshotVersionError) as excinfo:
            decode_flow_state(tampered)
        message = str(excinfo.value)
        assert "99" in message
        assert str(CONTROL_SNAPSHOT_VERSION) in message

        fresh = ScallopPipeline(Address("10.0.0.2", 5000))
        _build_adapted_pipeline(fresh, None, frozenset())
        with pytest.raises(SnapshotVersionError):
            fresh.import_flow_state(tampered)
        # and nothing was half-restored before the version check fired
        assert len(fresh.adaptation_table) == 0

    def test_round_trip_is_field_for_field_identical(self):
        payload = self._exported()
        assert payload["version"] == CONTROL_SNAPSHOT_VERSION
        assert payload["flows"], "the export never captured the adapted flow"
        destination = ScallopPipeline(Address("10.0.0.2", 5000))
        _build_adapted_pipeline(destination, None, frozenset())
        destination.import_flow_state(payload)
        assert destination.export_flow_state() == payload

    def test_packed_records_are_zero_pickle_builtins(self):
        # the snapshot must JSON-shape down to builtins + packed bytes —
        # never a pickled object graph (archlint enforces this statically;
        # this pins it dynamically)
        payload = self._exported()
        for record in payload["flows"]:
            assert isinstance(record["rewriter"], bytes)
            assert isinstance(record["allowed_templates"], list)
            assert all(isinstance(t, int) for t in record["allowed_templates"])


# --------------------------------------------------------------------------- live migration end to end


def _migration_scenario() -> Scenario:
    duration = 4.0
    return Scenario(
        name="migration_lossfree",
        meetings=(
            MeetingSpec(
                participants=4, video_bitrate_bps=900_000.0, cascade=(0, 0, 1, 1)
            ),
        ),
        backend=BackendSpec.cluster(n_sfus=2, adaptation_thresholds_bps=(0.0, 0.0)),
        traffic=TrafficSpec(frame_bursts=True, wire_native=True),
        schedule=Schedule().migrate(duration * 0.5, 0, 1),
        duration_s=duration,
        seed=43,
    )


class TestLiveMigrationEndToEnd:
    """A cascaded meeting live-migrates onto one box mid-run: versioned
    snapshot shipped, rewriter registers adopted, stragglers drained —
    and no receiver can tell it happened."""

    @pytest.fixture(scope="class")
    def finished_run(self):
        with build_scenario(_migration_scenario()) as run:
            run.run()
            for client in run.clients:
                client.stop()
            run.run_for(DRAIN_S)
            yield run

    def test_migration_actually_fired(self, finished_run):
        cluster = finished_run.sfu
        assert isinstance(cluster, SfuCluster)
        assert cluster.members[1].trunk_stats.migrations_in == 1
        assert cluster.members[0].trunk_stats.migrations_out == 1
        assert cluster.members[0].trunk_stats.snapshot_bytes > 0
        assert any(m.startswith("migrate") for _at, m in finished_run.event_log)

    def test_no_receiver_lost_or_corrupted_a_packet(self, finished_run):
        for client in finished_run.clients:
            assert client.video_receivers, client.config.participant_id
            for ssrc, stream in client.video_receivers.items():
                who = f"{client.config.participant_id}/ssrc={ssrc}"
                assert stream.packets_received > 0, who
                assert stream.missing == set(), f"{who}: unrepaired gap across cutover"
                assert stream.duplicate_count == 0, f"{who}: decoder-corrupting duplicate"
                assert stream.freeze_events == 0, who

    def test_state_reconciles_across_boxes(self, finished_run):
        assert finished_run.reconcile() == []

    def test_migrated_away_box_returns_to_baseline(self, finished_run):
        cluster = finished_run.sfu
        finished_run.reconcile()  # flushes lingering trunks + straggler routes
        # empty: tables, PRE, registers, registry, indexes, egress ports and
        # trunk subscriptions
        assert state_diff(cluster.members[0].state(), frozenset()) is None
        # the destination box is now the meeting's only home: no trunk
        # subscriptions survive the consolidation
        assert len(cluster.members[1].trunks.subscriptions) == 0

    def test_summary_reports_the_federation(self, finished_run):
        summary = finished_run.summary()
        assert summary["sfu"] == "scallop-cluster"
        assert summary["n_sfus"] == 2
        assert summary["meeting_migrations"] == 1
        assert summary["snapshot_bytes_shipped"] > 0
        assert summary["trunk_packets_in"] > 0


# --------------------------------------------------------------------------- federated_pair canned scenario


class TestFederatedPairScenario:
    """The canned CI scenario: cascade + churn on both boxes + live
    migration, reconciled against the surviving cross-SFU population."""

    @pytest.fixture(scope="class")
    def finished_run(self):
        scenario = federated_pair(smoke=True)
        # arm the declarative telemetry knob exactly as the CLI's
        # --metrics-out path does, so metrics_snapshot() carries the tracing
        # series next to the core schema
        scenario = dataclasses.replace(
            scenario, backend=dataclasses.replace(scenario.backend, obs=True)
        )
        with build_scenario(scenario) as run:
            run.run()
            yield run

    def test_spec_shape(self):
        scenario = federated_pair(smoke=True)
        assert scenario.backend.kind == "scallop"
        assert scenario.backend.n_sfus == 2
        assert scenario.meetings[0].cascade == (0, 0, 1, 1)
        assert scenario.meetings[1].sfu == 1

    def test_churn_and_migration_happened(self, finished_run):
        kinds = {message.split()[0] for _at, message in finished_run.event_log}
        assert kinds == {"join", "leave", "migrate"}

    def test_cross_sfu_state_reconciles(self, finished_run):
        assert finished_run.reconcile() == []

    def test_summary_shows_trunk_traffic_and_migration(self, finished_run):
        summary = finished_run.summary()
        assert summary["sfu"] == "scallop-cluster"
        assert summary["trunk_packets_in"] > 0
        assert summary["meeting_migrations"] == 1

    def test_metrics_snapshot_is_schema_valid_with_live_trunk_series(self, finished_run):
        snapshot = finished_run.metrics_snapshot()
        assert validate_snapshot(snapshot) == []
        series = snapshot["series"]
        assert series["repro.trunk.packets_in"]["value"] > 0
        assert series["repro.trunk.migrations_in"]["value"] == 1
        # no shard transport exists to report on (archlint's zero-pickle rule
        # covers what its pickle-fallback counter used to check at runtime)
        assert not any(name.startswith("repro.transport.") for name in series)


# --------------------------------------------------------------------------- federation telemetry


class TestTrunkTelemetry:
    def test_single_box_engine_pins_zero_valued_trunk_series(self):
        # a classic engine has no trunk_stats; the snapshot must still
        # carry the full repro.trunk.* namespace so dashboards built
        # against a cluster read unchanged against a single box
        engine = ScallopPipeline(SFU)
        bus = TelemetryBus()
        bus.add_engine(engine, sim_time_s=1.0)
        snapshot = bus.snapshot(sim_time_s=1.0)
        for key in TRUNK_KEYS:
            assert snapshot["series"][f"repro.trunk.{key}"]["value"] == 0
        assert snapshot["series"]["repro.trunk.subscriptions"]["value"] == 0.0

    def test_trunk_series_are_core_schema(self):
        assert "repro.trunk.packets_in" in CORE_SERIES
        assert "repro.trunk.subscriptions" in CORE_SERIES

    def test_subscriptions_gauge_accumulates_across_engines(self):
        class FakeStats:
            packets_in = 7
            bytes_in = 700
            stragglers_forwarded = 1
            migrations_in = 0
            migrations_out = 2
            snapshot_bytes = 4321
            subscriptions = 3

        first, second = ScallopPipeline(SFU), ScallopPipeline(Address("10.0.0.2", 5000))
        first.trunk_stats = FakeStats()
        second.trunk_stats = FakeStats()
        bus = TelemetryBus()
        bus.add_engine(first, sim_time_s=1.0)
        bus.add_engine(second, sim_time_s=1.0)
        series = bus.snapshot(sim_time_s=1.0)["series"]
        assert series["repro.trunk.packets_in"]["value"] == 14
        assert series["repro.trunk.snapshot_bytes"]["value"] == 8642
        # subscriptions is a gauge: per-engine values must *sum* into the
        # fleet total rather than the last engine overwriting the first
        assert series["repro.trunk.subscriptions"]["value"] == 6.0


# --------------------------------------------------------------------------- meetings sharing a trunk


def _local(index):
    return ParticipantEndpoint(
        participant_id=f"p{index}",
        address=Address(f"10.0.1.{index}", 6000 + index),
        egress_port=0,
        audio_ssrc=1000 + index * 10,
        video_ssrc=1001 + index * 10,
    )


class TestMeetingsSharingATrunk:
    """Trunk endpoints are keyed per meeting: emptying one cascaded meeting
    leaves the trunk state of the others on the same peer alone."""

    def test_emptying_one_cascaded_meeting_keeps_the_others(self):
        spec = Scenario(
            meetings=(MeetingSpec(participants=2, cascade=(0, 1)),) * 2,
            backend=BackendSpec.cluster(n_sfus=2),
            seed=1,
        )
        run = build_scenario(spec)
        try:
            run.run_for(1.0)
            assert [len(box.pipeline.feedback_table) for box in run.sfu.members] == [8, 8]
            run.leave(1, 0)
            run.leave(1, 1)
            run.run_for(2.0)
            assert run.reconcile() == []
            # meeting 0's two directions survive on each box: the local
            # sender's rules toward the peer and the trunked-in sender's
            # rules toward the local receiver
            assert [len(box.pipeline.feedback_table) for box in run.sfu.members] == [4, 4]
        finally:
            run.close()

    def test_a_departing_trunk_endpoint_releases_only_its_meetings_rules(self):
        pipeline = ScallopPipeline(SFU)
        agent = SwitchAgent(pipeline)
        peer = Address("10.0.0.2", 5000)

        def trunk(meeting_id):
            return ParticipantEndpoint(trunk_participant_id(meeting_id, peer), peer, egress_port=0, trunk=True)

        meeting_a, meeting_b = [_local(1), _local(2)], [_local(3), _local(4)]
        agent.configure_meeting("A", meeting_a + [trunk("A")])
        agent.configure_meeting("B", meeting_b + [trunk("B")])

        def rules_toward_peer():
            return {ssrc for (receiver, ssrc), _rule in pipeline.feedback_table.entries() if receiver == peer}

        ssrcs_a = {ssrc for p in meeting_a for _kind, ssrc in p.media_ssrcs()}
        ssrcs_b = {ssrc for p in meeting_b for _kind, ssrc in p.media_ssrcs()}
        assert rules_toward_peer() == ssrcs_a | ssrcs_b
        agent.configure_meeting("A", meeting_a)
        assert rules_toward_peer() == ssrcs_b
        assert trunk_participant_id("A", peer) not in agent._participants
        assert agent._participants[trunk_participant_id("B", peer)].meeting_id == "B"


# --------------------------------------------------------------------------- odds and ends


class TestClusterApiContract:
    def test_cluster_spec_validation(self):
        with pytest.raises(ValueError, match="n_sfus"):
            BackendSpec(kind="scallop", n_sfus=0)
        with pytest.raises(ValueError, match="scallop backend"):
            BackendSpec(kind="software", n_sfus=2)

    def test_trunk_participant_ids_are_namespaced(self):
        pid = trunk_participant_id("meeting-3", Address("10.0.0.2", 5000))
        assert pid == "trunk:meeting-3:10.0.0.2:5000"
        assert pid != trunk_participant_id("meeting-4", Address("10.0.0.2", 5000))

    def test_snapshot_size_accounts_packed_registers(self):
        engine = ScallopPipeline(SFU)
        _sender, _receivers, ssrc = _build_adapted_pipeline(
            engine, SequenceRewriterLowMemory, frozenset({0, 1, 3, 4})
        )
        packetizer = RtpPacketizer(ssrc=ssrc, seed=5)
        encoder = SvcEncoder(target_bitrate_bps=1_500_000, seed=5)
        sender = Address("10.6.0.2", 6000)
        batch = []
        for frame_index in range(4):
            frame = encoder.next_frame(frame_index / 30)
            for packet in packetizer.packetize(frame):
                batch.append(Datagram(src=sender, dst=SFU, payload=packet))
        engine.process_batch(batch)
        payload = engine.export_flow_state()
        packed = sum(len(record["rewriter"]) for record in payload["flows"])
        snapshot = MeetingSnapshot(
            meeting_id="m0",
            version=CONTROL_SNAPSHOT_VERSION,
            flows=payload,
            decode_targets=(("p1", "p2", 2, (0.1, 0.2)),),
        )
        assert packed > 0
        assert snapshot_size_bytes(snapshot) >= packed


# --------------------------------------------------------------------------- one audit per box


def _audited_run():
    """One box, three participants, adapted streams and a warm flow cache."""
    meeting = MeetingSpec(participants=3, video_bitrate_bps=650_000.0)
    backend = BackendSpec(adaptation_thresholds_bps=(1_300_000.0, 650_000.0))
    run = build_scenario(Scenario(meetings=(meeting,), backend=backend, seed=3))
    run.run_for(2.0)
    assert run.reconcile() == []
    assert len(run.sfu.pipeline.adaptation_table) and run.sfu.pipeline.datapath._flow_cache
    return run


def test_state_moves_no_counter_generation_or_cache():
    with _audited_run() as run:
        pipeline, agent = run.sfu.pipeline, run.sfu.agent

        def counters():
            pre, datapath = pipeline.pre, pipeline.datapath
            tables = [(table.lookups, table.hits, table.version) for table in pipeline.control._all_tables()]
            return (pre.replications_performed, pre.copies_produced, pre.generation, tables,
                    pipeline.stream_trackers.accesses, dict(datapath._flow_cache), datapath._cache_stamp)

        before = counters()
        state = agent.state()
        assert counters() == before
        assert agent.state() == state and hash(agent.state()) == hash(state)


CORRUPTIONS = {
    "feedback_by_receiver": lambda control, _agent, c: control._feedback_by_receiver[c[1].address].popitem(),
    "feedback_by_ssrc": lambda control, _agent, c: control._feedback_by_ssrc[c[0].video_ssrc].popitem(),
    "placement_by_src": lambda control, _agent, c: (
        control.install_placement(c[0].address, c[0].video_ssrc, 1),
        control._placements_by_src.clear(),
    ),
    "by_address": lambda _control, agent, c: agent._participant_by_address.pop(c[1].address),
    "by_ssrc": lambda _control, agent, c: agent._participant_by_ssrc.update({c[2].audio_ssrc: "ghost"}),
}


@pytest.mark.parametrize("index", sorted(CORRUPTIONS))
def test_the_audit_names_an_index_that_disagrees_with_its_table(index):
    with _audited_run() as run:
        CORRUPTIONS[index](run.sfu.pipeline.control, run.sfu.agent, run.clients)
        problems = run.reconcile()
        assert len(problems) == 1 and problems[0].startswith(f"disagrees with its source: {index}["), problems
