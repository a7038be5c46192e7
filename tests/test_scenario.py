"""Suite for the declarative Scenario API (PR 5).

Three layers:

* **mid-run leave** — after a participant joins, triggers rate adaptation,
  and leaves, the control plane must return to the pre-join baseline:
  table entries, PRE trees/nodes, sequence-rewriter registers, stream
  indices, and accountant charges all reconcile to the surviving population.
* **schedule execution** — timed joins/leaves/link-profile phases fire at
  their times and are logged.
* **churn_storm end to end** — the canned churn scenario (joins + leaves +
  a link phase change on a sharded dataplane with rebalancing armed) runs to
  completion with per-meeting stats and a clean reconciliation.
"""

import pytest

from repro.core.scallop import ScallopSfu
from repro.dataplane.pipeline import PipelineControlPlane, ScallopPipeline, state_diff
from repro.dataplane.rebalance import RebalancerConfig
from repro.dataplane.sharding import ShardedScallopPipeline
from repro.netsim.datagram import Address
from repro.netsim.link import LinkProfile, Network
from repro.netsim.simulator import Simulator
from repro.scenario import (
    BackendSpec,
    MeetingSpec,
    Scenario,
    Schedule,
    TrafficSpec,
    build_scenario,
    churn_storm,
    degrading_uplink,
)
from repro.scenario.library import LOSSY_UPLINK
from repro.webrtc.client import ClientConfig

CONSTRAINED_DOWNLINK = LinkProfile(
    bandwidth_bps=1_000_000, propagation_delay_s=0.01, queue_limit_bytes=50_000
)


class TestBackendSpec:
    def test_cpu_punt_backend_alias(self):
        assert BackendSpec(kind="cpu-punt").kind == "software"
        with pytest.raises(ValueError):
            BackendSpec(kind="fpga")

    def test_rebalance_config_resolution(self):
        assert BackendSpec().rebalance_config() is None
        assert BackendSpec(rebalance=False).rebalance_config() is None
        assert BackendSpec(rebalance=True).rebalance_config() == RebalancerConfig()
        custom = RebalancerConfig(epoch_batches=3)
        assert BackendSpec(rebalance=custom).rebalance_config() is custom

    @pytest.mark.parametrize(
        "n_shards, rebalance, obs, sharded",
        [
            (1, None, None, False),
            (2, None, None, True),
            (1, True, None, True),
            (1, None, True, False),
        ],
        ids=["reference", "shards", "rebalance", "obs"],
    )
    def test_sfu_picks_the_sharded_engine_only_when_asked(self, n_shards, rebalance, obs, sharded):
        # arming telemetry (what --metrics-out does) keeps the engine choice
        simulator = Simulator()
        sfu = ScallopSfu(
            Address("10.0.0.1", 5000),
            simulator,
            Network(simulator, seed=1),
            n_shards=n_shards,
            rebalance=rebalance,
            obs=obs,
        )
        assert isinstance(sfu.pipeline, ShardedScallopPipeline) is sharded
        assert isinstance(sfu.pipeline, ScallopPipeline) is not sharded
        if sharded:
            assert sfu.pipeline.n_shards == n_shards
            assert (sfu.pipeline.rebalancer is not None) is bool(rebalance)
        sfu.close()


def _removed_option_calls():
    """Each settable option that selected a shard executor, SRTP or the
    wall-clock coordinator profile, and is now gone: passing it must fail
    loudly rather than be silently ignored."""
    sfu = Address("10.0.0.1", 5000)
    client = dict(
        participant_id="p", meeting_id="m", address=Address("10.0.0.2", 6000), remote=sfu
    )
    return [
        ("ShardedScallopPipeline.executor", lambda: ShardedScallopPipeline(sfu, executor="thread")),
        ("ShardedScallopPipeline.srtp", lambda: ShardedScallopPipeline(sfu, srtp=object())),
        ("ShardedScallopPipeline.profile", lambda: ShardedScallopPipeline(sfu, profile=True)),
        ("ScallopPipeline.srtp", lambda: ScallopPipeline(sfu, srtp=object())),
        ("PipelineControlPlane.srtp", lambda: PipelineControlPlane(sfu, srtp=object())),
        ("ScallopSfu.shard_executor", lambda: ScallopSfu(sfu, None, None, shard_executor="thread")),
        ("ScallopSfu.srtp", lambda: ScallopSfu(sfu, None, None, srtp=object())),
        ("ScallopSfu.profile", lambda: ScallopSfu(sfu, None, None, profile=True)),
        ("BackendSpec.shard_executor", lambda: BackendSpec(n_shards=2, shard_executor="process")),
        ("BackendSpec.profile", lambda: BackendSpec(profile=True)),
        ("TrafficSpec.srtp", lambda: TrafficSpec(wire_native=True, srtp=object())),
        ("ClientConfig.srtp", lambda: ClientConfig(**client, srtp=object())),
    ]


class TestRemovedOptions:
    @pytest.mark.parametrize(
        "call", [call for _name, call in _removed_option_calls()],
        ids=[name for name, _call in _removed_option_calls()],
    )
    def test_removed_option_is_rejected(self, call):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            call()

    def test_cli_has_no_executor_override(self, capsys):
        from repro.scenario.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["churn_storm", "--smoke", "--executor", "thread"])
        assert excinfo.value.code == 2
        assert "--executor" in capsys.readouterr().err

    def test_cli_has_no_profile_flag(self, capsys):
        from repro.scenario.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["churn_storm", "--smoke", "--profile"])
        assert excinfo.value.code == 2
        assert "--profile" in capsys.readouterr().err


def _without_remb_selection(state):
    """A box state without the REMB selection, which follows the downlink estimates."""
    return frozenset((s, k, v.sender if s == "feedback" else v) for s, k, v in state if s != "filter_selected")


class TestMidRunLeave:
    def test_leave_returns_control_plane_to_prejoin_baseline(self):
        scenario = Scenario(
            name="leave-baseline",
            meetings=(MeetingSpec(participants=3, video_bitrate_bps=650_000.0),),
            default_meeting=MeetingSpec(video_bitrate_bps=650_000.0),
            backend=BackendSpec(
                adaptation_thresholds_bps=(650_000.0 * 0.8, 650_000.0 * 0.4)
            ),
            seed=9,
        )
        with build_scenario(scenario) as run:
            run.run_for(5.0)
            baseline = run.sfu.agent.state()
            assert not any(section == "adaptation" for section, _key, _value in baseline)  # no congestion yet
            cells = run.sfu.pipeline.accountant.stream_tracker_cells_used
            l1_nodes = run.sfu.pipeline.pre.total_l1_nodes()

            # a fourth participant joins on a constrained downlink: the agent
            # installs adaptation entries (rewriter registers + accountant
            # charges) towards them
            joiner = run.add_participant(0)
            run.set_link(0, joiner.config.participant_id, downlink=CONSTRAINED_DOWNLINK)
            run.run_for(20.0)
            control = run.sfu.pipeline.control
            joiner_keys = [
                key for key, _v in control.adaptation_table.entries() if key[1] == joiner.address
            ]
            assert joiner_keys, "the constrained joiner never triggered adaptation"
            assert control.accountant.stream_tracker_cells_used > cells
            assert run.sfu.pipeline.pre.total_l1_nodes() > l1_nodes

            # ... and leaves: every table entry, PRE node, register, stream
            # index, and accountant charge they consumed must be released
            run.leave(0, joiner.config.participant_id)
            run.run_for(2.0)
            after = _without_remb_selection(run.sfu.agent.state())
            assert state_diff(after, _without_remb_selection(baseline)) is None
            assert run.reconcile() == []

    def test_leave_stops_media_and_detaches_endpoint(self):
        scenario = Scenario(
            meetings=(MeetingSpec(participants=3, video_bitrate_bps=650_000.0),), seed=4
        )
        with build_scenario(scenario) as run:
            run.run_for(3.0)
            leaver = run.clients[2]
            run.leave(0, 2)
            assert run.network.endpoint(leaver.address) is None
            assert leaver in run.departed and leaver not in run.clients
            packets_before = leaver.packets_sent
            run.run_for(2.0)
            # a detached client never sends again (pending NACK flushes and
            # periodic ticks become no-ops)
            assert leaver.packets_sent == packets_before
            assert run.reconcile() == []

    def test_leave_releases_placement_pins_and_tracker_rows(self):
        scenario = Scenario(
            name="leave-placement",
            meetings=(MeetingSpec(participants=3, video_bitrate_bps=650_000.0),),
            default_meeting=MeetingSpec(video_bitrate_bps=650_000.0),
            backend=BackendSpec(n_shards=4, rebalance=True),
            traffic=TrafficSpec(frame_bursts=True),  # telemetry observes batches
            seed=12,
        )
        with build_scenario(scenario) as run:
            run.run_for(2.0)
            joiner = run.add_participant(0)
            run.run_for(2.0)
            pipeline = run.sfu.pipeline
            # pin the joiner's video flow away from its hash-default shard,
            # the way the rebalancer would under sustained skew
            default = pipeline.shard_for_flow(joiner.address, joiner.video_ssrc)
            assert pipeline.migrate_flow(joiner.address, joiner.video_ssrc, (default + 1) % 4)
            assert pipeline.control.placement_of(joiner.address, joiner.video_ssrc) is not None
            assert any(key[0] == joiner.address for key in pipeline.load_tracker.flows)

            run.leave(0, joiner.config.participant_id)
            # the departed flow's pin is gone immediately (a later joiner
            # reusing the deterministic address inherits nothing); telemetry
            # rows were purged too (in-flight tail traffic may re-mint
            # decaying rows afterwards, which is bounded and harmless)
            assert pipeline.control.placement_of(joiner.address, joiner.video_ssrc) is None
            assert not any(key[0] == joiner.address for key in pipeline.load_tracker.flows)
            run.run_for(1.0)
            assert not any(
                key[0] == joiner.address
                for key, _shard in pipeline.control.placement_table.entries()
            )
            assert run.reconcile() == []

    def test_software_backend_leave_reconciles(self):
        scenario = Scenario(
            meetings=(MeetingSpec(participants=3, video_bitrate_bps=650_000.0),),
            backend=BackendSpec(kind="software"),
            seed=6,
        )
        with build_scenario(scenario) as run:
            run.run_for(3.0)
            departed = run.leave(0, 1)
            assert departed is not None
            run.run_for(2.0)
            assert run.sfu.total_participants == 2
            assert run.reconcile() == []


class TestScheduleExecution:
    def test_events_fire_at_their_times_and_are_logged(self):
        scenario = Scenario(
            name="scripted",
            meetings=(MeetingSpec(participants=2, video_bitrate_bps=650_000.0),),
            default_meeting=MeetingSpec(video_bitrate_bps=650_000.0),
            schedule=(
                Schedule()
                .join(1.0, 0)
                .set_link(2.0, 0, 0, uplink=LOSSY_UPLINK)
                .leave(3.0, 0, 1)
            ),
            duration_s=4.0,
            seed=8,
        )
        with build_scenario(scenario) as run:
            run.run()
            kinds = [message.split()[0] for _at, message in run.event_log]
            assert kinds == ["join", "link", "leave"]
            times = [at for at, _m in run.event_log]
            assert times == pytest.approx([1.0, 2.0, 3.0])
            assert run.joins == 3 and run.leaves == 1
            assert len(run.clients) == 2
            # the link phase actually re-profiled the attached uplink
            survivor = run.find_client(0, 0)
            assert run.network.uplink(survivor.address).profile == LOSSY_UPLINK
            assert run.reconcile() == []

    def test_degrading_uplink_phases_apply_in_order(self):
        scenario = degrading_uplink(smoke=True)
        with build_scenario(scenario) as run:
            target = run.find_client(0, 0)
            run.run_for(scenario.duration_s * 0.4)
            assert run.network.uplink(target.address).profile == LOSSY_UPLINK
            run.run()  # continues to the horizon; recovery phase applied
            assert run.network.uplink(target.address).profile.loss_rate == 0.0

    def test_events_on_missing_participants_are_logged_as_drops(self):
        scenario = Scenario(
            meetings=(MeetingSpec(participants=2, video_bitrate_bps=650_000.0),),
            schedule=(
                Schedule()
                .leave(1.0, 0, 7)                      # never existed
                .set_link(1.5, 0, 7, uplink=LOSSY_UPLINK)
            ),
            duration_s=2.0,
            seed=3,
        )
        with build_scenario(scenario) as run:
            run.run()
            drops = [message for _at, message in run.event_log if message.startswith("drop")]
            assert len(drops) == 2
            assert run.leaves == 0

    def test_find_client_is_read_only(self):
        scenario = Scenario(meetings=(), default_meeting=MeetingSpec(send_audio=False), seed=2)
        with build_scenario(scenario) as run:
            assert run.find_client("ghost", 0) is None
            # the failed lookup must not have claimed a meeting-order slot
            client = run.add_participant(0)
            assert client.config.meeting_id == "meeting-0"
            assert "ghost" not in run._meeting_order

    def test_out_of_order_integer_joins_do_not_alias(self):
        scenario = Scenario(
            meetings=(MeetingSpec(participants=1, send_audio=False),),
            default_meeting=MeetingSpec(send_audio=False),
            seed=2,
        )
        with build_scenario(scenario) as run:
            late = run.add_participant(5)       # skips ahead of the spec
            then = run.add_participant(2)       # must NOT land in meeting-5
            assert late.config.meeting_id == "meeting-5"
            assert then.config.meeting_id == "meeting-2"
            # naming/addressing follow the stable integer reference
            assert late.config.participant_id == "m5-p0"
            assert then.config.participant_id == "m2-p0"
            assert run.find_client(5, 0) is late
            assert run.find_client(2, 0) is then

    def test_run_does_not_overshoot_the_horizon(self):
        scenario = Scenario(
            meetings=(MeetingSpec(participants=2, send_video=False),),
            duration_s=3.0,
            seed=1,
        )
        with build_scenario(scenario) as run:
            run.run_for(2.0)
            run.run()  # to the horizon, not for another 3 s
            assert run.simulator.now == pytest.approx(3.0)
            run.run(1.5)  # explicit duration is relative
            assert run.simulator.now == pytest.approx(4.5)

    def test_uniform_respects_template_population(self):
        scenario = Scenario.uniform(num_meetings=2, meeting=MeetingSpec(participants=8))
        assert all(spec.participants == 8 for spec in scenario.meetings)
        sized = Scenario.uniform(num_meetings=2, participants_per_meeting=4)
        assert all(spec.participants == 4 for spec in sized.meetings)

    def test_events_beyond_horizon_warn_at_build(self):
        scenario = Scenario(
            meetings=(MeetingSpec(participants=2, send_video=False),),
            schedule=Schedule().leave(5.0, 0, 0),
            duration_s=3.0,
        )
        with pytest.warns(UserWarning, match="past the scenario horizon"):
            run = build_scenario(scenario)
        run.close()

    def test_duplicate_meeting_ids_rejected(self):
        scenario = Scenario(
            meetings=(
                MeetingSpec(participants=2, meeting_id="foo"),
                MeetingSpec(participants=2, meeting_id="foo"),
            )
        )
        with pytest.raises(ValueError, match="duplicate meeting ids"):
            build_scenario(scenario)

    def test_dynamic_meetings_minted_from_default_spec(self):
        scenario = Scenario(
            meetings=(),
            default_meeting=MeetingSpec(video_bitrate_bps=500_000.0, send_audio=False),
            seed=2,
        )
        with build_scenario(scenario) as run:
            first = run.add_participant(0)
            second = run.add_participant(0)
            assert first.config.video_bitrate_bps == 500_000.0
            assert not first.config.send_audio
            assert {first.config.meeting_id, second.config.meeting_id} == {"meeting-0"}
            run.run_for(2.0)
            assert run.reconcile() == []

    def test_cumulative_joins_outgrow_one_host_octet(self):
        # participant indices are never reused, and the index used to be the
        # last IPv4 octet: the STUN response to a meeting's 254th cumulative
        # joiner raised ValueError encoding "10.1.0.256"
        scenario = Scenario(
            meetings=(MeetingSpec(participants=2, send_video=False),), seed=6
        )
        with build_scenario(scenario) as run:
            addresses = [str(client.address) for client in run.clients]
            assert addresses == ["10.1.0.2:6000", "10.1.0.3:6001"]
            for index in range(2, 302):
                joiner = run.add_participant(0)
                assert joiner.config.participant_id == f"m0-p{index}"
                addresses.append(str(joiner.address))
                run.run_for(0.02)
                if index < 299:
                    run.leave(0, index)
            assert len(set(addresses)) == 302
            # the last pre-spill index keeps its historical address; the
            # next one lands in a range nothing else uses
            assert addresses[253:255] == ["10.1.0.255:6253", "11.1.0.2:6254"]
            # the last three joiners stay for a STUN round trip from their
            # spilled addresses, then leave as well
            run.run_for(2.5)
            for index in range(299, 302):
                assert run.find_client(0, index).rtt_samples_ms
                run.leave(0, index)
            run.run_for(0.5)
            assert run.joins == 302 and len(run.clients) == 2
            assert run.reconcile() == []


class TestContextManager:
    def test_close_runs_on_exception(self):
        scenario = Scenario(meetings=(MeetingSpec(participants=2),), seed=1)
        run = build_scenario(scenario)
        with pytest.raises(RuntimeError):
            with run:
                raise RuntimeError("mid-run failure")
        assert run.closed

    def test_close_reaches_sharded_backend(self):
        scenario = Scenario(
            meetings=(MeetingSpec(participants=2),),
            backend=BackendSpec(n_shards=2),
            seed=1,
        )
        with build_scenario(scenario) as run:
            assert isinstance(run.sfu.pipeline, ShardedScallopPipeline)
        assert run.closed


class TestChurnStormEndToEnd:
    """The acceptance scenario: joins + leaves + a link-profile phase change
    mid-simulation with rebalancing armed, ending with per-meeting stats and
    SFU state that reconciles to the surviving population."""

    @pytest.fixture(scope="class")
    def finished_run(self):
        scenario = churn_storm(smoke=True)
        with build_scenario(scenario) as run:
            run.run()
            yield run

    def test_churn_actually_happened(self, finished_run):
        run = finished_run
        assert run.joins > len(run.scenario.meetings) * 3  # scheduled joins fired
        assert run.leaves >= 3
        kinds = {message.split()[0] for _at, message in run.event_log}
        assert kinds == {"join", "leave", "link"}  # and nothing was dropped
        # the link phase change both degraded *and* recovered (its target
        # survives the leave waves)
        link_events = [m for _at, m in run.event_log if m.startswith("link")]
        assert len(link_events) == 2

    def test_rebalancing_was_armed_and_observed_traffic(self, finished_run):
        pipeline = finished_run.sfu.pipeline
        assert isinstance(pipeline, ShardedScallopPipeline)
        assert pipeline.load_tracker is not None
        assert pipeline.load_tracker.batches_observed > 0

    def test_survivors_still_receive_media(self, finished_run):
        stats = finished_run.meeting_stats()
        assert stats
        assert all(s.participants > 0 for s in stats.values())
        assert sum(s.video_packets_received for s in stats.values()) > 0

    def test_state_reconciles_to_surviving_population(self, finished_run):
        assert finished_run.reconcile() == []

    def test_summary_reports_the_run(self, finished_run):
        summary = finished_run.summary()
        assert summary["sfu"] == "scallop"
        assert summary["leaves"] == finished_run.leaves
        assert "migrations_applied" in summary


class TestScenarioCli:
    def test_cli_runs_and_reconciles(self, capsys):
        from repro.scenario.__main__ import main

        assert main(["steady", "--smoke", "--duration", "2"]) == 0
        out = capsys.readouterr().out
        assert "reconciliation" in out

    def test_cli_lists_library(self, capsys):
        from repro.scenario.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in (
            "steady",
            "churn_storm",
            "flash_crowd",
            "degrading_uplink",
            "zipf_hotset",
            "federated_pair",
        ):
            assert name in out
