"""Suite for the load-aware shard placement subsystem (PR 4).

Three layers:

* unit tests for the telemetry tracker (:mod:`repro.dataplane.loadstats`) and
  the greedy hysteresis-damped policy (:mod:`repro.dataplane.rebalance`);
* live-migration mechanics: the two-level flow -> shard lookup and placement
  generation stamping;
* the sharding invariant under placement churn: with the rebalancer armed (and
  extra forced migrations layered on top), outputs must stay byte-identical to
  the unsharded reference pipeline for k in {2, 4, 8}, and a
  migration landing mid-adaptation-churn — S-LM/S-LR rewriters with in-flight
  sequence-wraparound state — must preserve ``ideal_rewrite_sequence`` oracle
  equality on the migrated flow.
"""

import dataclasses
import random
from typing import List, Optional, Sequence, Tuple

import pytest

from repro.core.seqrewrite import (
    SequenceRewriterLowMemory,
    SequenceRewriterLowRetransmission,
    SkipCadence,
    ideal_rewrite_sequence,
)
from repro.dataplane.loadstats import FlowLoadTracker
from repro.dataplane.pipeline import (
    ForwardingMode,
    PipelineCounters,
    ReplicaTarget,
    ScallopPipeline,
    StreamForwardingEntry,
)
from repro.dataplane.pre import L2Port
from repro.dataplane.rebalance import (
    FlowMigration,
    MigrationPlan,
    RebalancerConfig,
    ShardRebalancer,
)
from repro.dataplane.sharding import ShardedScallopPipeline, flow_shard
from repro.netsim.datagram import Address, Datagram
from repro.webrtc.encoder import RtpPacketizer, SvcEncoder

from test_sharded_pipeline import (
    MeetingScenario,
    apply_op,
    assert_engines_agree,
    assert_results_identical,
)

SFU = Address("10.0.0.1", 5000)

#: Aggressive placement churn for the property tests: decide every batch, no
#: cooldown, hair-trigger hysteresis — the point is to migrate as often as
#: possible while the equivalence harness watches for divergence.
CHURN_CONFIG = RebalancerConfig(
    epoch_batches=1,
    trigger_ratio=1.02,
    target_ratio=1.01,
    migration_budget=8,
    cooldown_epochs=0,
    min_flow_rate=0.0,
)


# --------------------------------------------------------------------------- telemetry


class TestFlowLoadTracker:
    def test_ewma_converges_and_decays(self):
        tracker = FlowLoadTracker(n_shards=2, alpha=0.5)
        flow_a, flow_b = (Address("10.0.0.2", 6000), 1), (Address("10.0.0.3", 6000), 2)
        for _ in range(12):
            tracker.observe_batch({flow_a: 40, flow_b: 10}, {flow_a: 0, flow_b: 1})
        assert tracker.flows[flow_a].rate == pytest.approx(40, rel=0.01)
        assert tracker.flows[flow_b].rate == pytest.approx(10, rel=0.01)
        assert tracker.shard_rates[0] == pytest.approx(40, rel=0.01)
        assert tracker.skew_ratio() == pytest.approx(40 / 25, rel=0.02)
        # flow_a goes silent: its rate must decay toward zero
        for _ in range(10):
            tracker.observe_batch({flow_b: 10}, {flow_b: 1})
        assert tracker.flows[flow_a].rate < 1.0

    def test_hottest_flows_ranked_per_shard(self):
        tracker = FlowLoadTracker(n_shards=2, alpha=1.0)
        flows = {(Address("10.0.0.2", 6000 + i), i): (i + 1) * 5 for i in range(4)}
        shards = {key: 0 for key in flows}
        tracker.observe_batch(flows, shards)
        ranked = tracker.hottest_flows(0)
        rates = [row.rate for _key, row in ranked]
        assert rates == sorted(rates, reverse=True)
        assert tracker.hottest_flows(1) == []

    def test_egress_rate_tracks_replica_fanout(self):
        tracker = FlowLoadTracker(n_shards=2, alpha=0.5)
        fanned = (Address("10.0.0.2", 6000), 1)   # big meeting: 9 replicas/pkt
        narrow = (Address("10.0.0.3", 6000), 2)   # small meeting: 2 replicas/pkt
        for _ in range(12):
            tracker.observe_batch(
                {fanned: 10, narrow: 10},
                {fanned: 0, narrow: 1},
                {fanned: 90, narrow: 20},
            )
        assert tracker.flows[fanned].rate == pytest.approx(10, rel=0.01)
        assert tracker.flows[fanned].egress_rate == pytest.approx(90, rel=0.01)
        assert tracker.flows[narrow].egress_rate == pytest.approx(20, rel=0.01)
        # equal ingress, very different work: the weighted view knows
        assert tracker.flows[fanned].weight(1.0) > 3 * tracker.flows[narrow].weight(1.0)
        assert tracker.shard_weights(1.0)[0] == pytest.approx(100, rel=0.01)
        # silent flows decay their egress term too
        for _ in range(10):
            tracker.observe_batch({narrow: 10}, {narrow: 1}, {narrow: 20})
        assert tracker.flows[fanned].egress_rate < 10.0

    def test_bounded_flow_table_evicts_coldest(self):
        tracker = FlowLoadTracker(n_shards=2, alpha=1.0, max_flows=8)
        hot = (Address("10.9.0.1", 6000), 7)
        tracker.observe_batch({hot: 1000}, {hot: 0})
        for index in range(40):
            key = (Address("10.9.1.1", 7000 + index), index)
            tracker.observe_batch({key: 1, hot: 1000}, {key: 1, hot: 0})
        assert len(tracker.flows) <= 8
        assert hot in tracker.flows  # the hot flow is never the eviction victim

    def test_forget_flows_drops_only_that_source(self):
        tracker = FlowLoadTracker(n_shards=2, alpha=1.0)
        leaver, stayer = Address("10.0.0.2", 6000), Address("10.0.0.3", 6000)
        counts = {(leaver, 1): 5, (leaver, -1): 1, (stayer, 2): 7}
        tracker.observe_batch(counts, {key: 0 for key in counts})
        assert tracker.forget_flows(leaver) == 2
        assert list(tracker.flows) == [(stayer, 2)]
        assert tracker.forget_flows(leaver) == 0

    def test_snapshot_reports_rates_and_skew(self):
        tracker = FlowLoadTracker(n_shards=2, alpha=1.0)
        flow_a, flow_b = (Address("10.0.0.2", 6000), 1), (Address("10.0.0.3", 6000), 2)
        tracker.observe_batch({flow_a: 30, flow_b: 10}, {flow_a: 0, flow_b: 1})
        assert tracker.snapshot() == {
            "batches_observed": 1,
            "flows_tracked": 2,
            "shard_rates": [30.0, 10.0],
            "skew_ratio": 1.5,
        }

    def test_note_migration_moves_row_and_anchors_cooldown(self):
        tracker = FlowLoadTracker(n_shards=4, alpha=1.0)
        flow = (Address("10.0.0.2", 6000), 1)
        for _ in range(3):
            tracker.observe_batch({flow: 4}, {flow: 0})
        tracker.note_migration(flow, 3)
        row = tracker.flows[flow]
        assert (row.shard, row.last_migrated_batch) == (3, 3)
        # an untracked flow is a no-op, not a new row
        tracker.note_migration((Address("10.0.0.9", 6000), 9), 1)
        assert len(tracker.flows) == 1

    def test_shard_weights_without_egress_equal_shard_rates(self):
        tracker = FlowLoadTracker(n_shards=3, alpha=0.5)
        flows = {(Address("10.0.0.2", 6000 + i), i): 3 * (i + 1) for i in range(6)}
        shards = {key: index % 3 for index, key in enumerate(flows)}
        replicas = {key: 4 * count for key, count in flows.items()}
        for _ in range(5):
            tracker.observe_batch(flows, shards, replicas)
        assert tracker.shard_weights(0.0) == pytest.approx(tracker.shard_rates)
        assert sum(tracker.shard_weights(1.0)) == pytest.approx(5 * sum(tracker.shard_rates))

    def test_skew_ratio_is_one_when_idle_or_single_shard(self):
        assert FlowLoadTracker(n_shards=4).skew_ratio() == 1.0
        single = FlowLoadTracker(n_shards=1, alpha=1.0)
        single.observe_batch({(Address("10.0.0.2", 6000), 1): 50}, {(Address("10.0.0.2", 6000), 1): 0})
        assert single.skew_ratio() == 1.0

    def test_hottest_flows_respects_min_rate(self):
        tracker = FlowLoadTracker(n_shards=1, alpha=1.0)
        flows = {(Address("10.0.0.2", 6000 + i), i): rate for i, rate in enumerate((1, 5, 9))}
        tracker.observe_batch(flows, {key: 0 for key in flows})
        assert [row.rate for _key, row in tracker.hottest_flows(0, min_rate=4.0)] == [9.0, 5.0]

    @pytest.mark.parametrize(
        "n_shards, alpha", [(2, 0.0), (2, -0.5), (2, 1.5), (0, 0.3)]
    )
    def test_invalid_construction_rejected(self, n_shards, alpha):
        with pytest.raises(ValueError):
            FlowLoadTracker(n_shards=n_shards, alpha=alpha)


class TestRebalancerPolicy:
    @staticmethod
    def tracker_with(loads, alpha=1.0):
        """A 2-shard-or-more tracker seeded with one flow per (shard, rate)."""
        n_shards = max(shard for shard, _ in loads) + 1
        tracker = FlowLoadTracker(n_shards=n_shards, alpha=alpha)
        counts, shards = {}, {}
        for index, (shard, rate) in enumerate(loads):
            key = (Address(f"10.1.{shard}.{index + 2}", 6000 + index), index)
            counts[key] = rate
            shards[key] = shard
        tracker.observe_batch(counts, shards)
        return tracker

    def test_no_plan_inside_hysteresis_band(self):
        tracker = self.tracker_with([(0, 11), (1, 10)])
        planner = ShardRebalancer(2, RebalancerConfig(trigger_ratio=1.25, target_ratio=1.1))
        assert not planner.plan(tracker)

    def test_greedy_moves_hottest_to_coldest(self):
        tracker = self.tracker_with([(0, 30), (0, 10), (1, 10)])
        planner = ShardRebalancer(2, RebalancerConfig(trigger_ratio=1.25, target_ratio=1.1))
        plan = planner.plan(tracker)
        assert plan.migrations
        move = plan.migrations[0]
        assert (move.from_shard, move.to_shard) == (0, 1)
        # moving the 30-rate flow would just swap which shard is hot; the
        # planner must pick the 10-rate flow (the hottest that fits the gap)
        assert move.rate == pytest.approx(10)
        assert plan.projected_skew < plan.observed_skew

    def test_budget_bounds_migrations_per_epoch(self):
        loads = [(0, 8)] * 10 + [(1, 1)]
        tracker = self.tracker_with(loads)
        planner = ShardRebalancer(
            2, RebalancerConfig(trigger_ratio=1.1, target_ratio=1.01, migration_budget=3)
        )
        plan = planner.plan(tracker)
        assert len(plan.migrations) == 3

    def test_cooldown_pins_recently_moved_flows(self):
        tracker = self.tracker_with([(0, 30), (0, 10), (1, 10)])
        config = RebalancerConfig(
            trigger_ratio=1.1, target_ratio=1.01, cooldown_epochs=5, epoch_batches=1
        )
        planner = ShardRebalancer(2, config)
        first = planner.plan(tracker)
        assert first.migrations
        for migration in first.migrations:
            tracker.note_migration(migration.flow, migration.to_shard)
        # identical telemetry again: every mover is in cooldown, and the only
        # other candidate (rate 30) exceeds the gap, so the plan is empty
        assert not planner.plan(tracker).migrations

    def test_unbalanceable_mega_flow_not_ping_ponged(self):
        # one flow bigger than the mean: no placement fixes it, and moving it
        # only relabels the hot shard — the planner must leave it alone
        tracker = self.tracker_with([(0, 100), (1, 5)])
        planner = ShardRebalancer(2, RebalancerConfig(trigger_ratio=1.1, target_ratio=1.01))
        assert not planner.plan(tracker).migrations

    def test_egress_weight_balances_fanout_not_just_packets(self):
        # equal ingress packet rates everywhere: invisible to a packet-only
        # policy, but shard 0's flows fan out 9x (big meetings) while shard
        # 1's fan out 1x — the egress-weighted planner must move work
        tracker = FlowLoadTracker(n_shards=2, alpha=1.0)
        counts, shards, replicas = {}, {}, {}
        for index in range(4):
            key = (Address(f"10.2.0.{index + 2}", 6000 + index), index)
            counts[key] = 10
            shards[key] = 0 if index < 2 else 1
            replicas[key] = 90 if index < 2 else 10
        tracker.observe_batch(counts, shards, replicas)
        packet_only = ShardRebalancer(
            2, RebalancerConfig(trigger_ratio=1.25, target_ratio=1.1, egress_weight=0.0)
        )
        assert not packet_only.plan(tracker), "packet rates are perfectly even"
        weighted = ShardRebalancer(
            2, RebalancerConfig(trigger_ratio=1.25, target_ratio=1.1, egress_weight=1.0)
        )
        plan = weighted.plan(tracker)
        assert plan.migrations
        move = plan.migrations[0]
        assert move.from_shard == 0 and move.to_shard == 1
        # the transferred load is the weighted contribution (10 + 90)
        assert move.rate == pytest.approx(100)
        assert plan.projected_skew < plan.observed_skew

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RebalancerConfig(trigger_ratio=1.1, target_ratio=1.2)
        with pytest.raises(ValueError):
            RebalancerConfig(migration_budget=0)
        with pytest.raises(ValueError):
            RebalancerConfig(egress_weight=-1.0)
        with pytest.raises(ValueError):
            FlowLoadTracker(n_shards=2, alpha=0.0)

    @pytest.mark.parametrize(
        "knobs",
        [
            {"epoch_batches": 0},
            {"trigger_ratio": 1.25, "target_ratio": 0.9},
            {"trigger_ratio": 1.1, "target_ratio": 1.1},
            {"migration_budget": -1},
            {"egress_weight": -0.01},
        ],
        ids=["epoch", "target-below-one", "empty-band", "budget", "egress"],
    )
    def test_each_config_knob_is_validated(self, knobs):
        with pytest.raises(ValueError):
            RebalancerConfig(**knobs)

    def test_single_shard_never_plans(self):
        tracker = FlowLoadTracker(n_shards=1, alpha=1.0)
        flow = (Address("10.0.0.2", 6000), 1)
        tracker.observe_batch({flow: 100}, {flow: 0})
        plan = ShardRebalancer(1).plan(tracker)
        assert not plan
        assert plan.observed_skew == plan.projected_skew == 1.0

    def test_idle_tracker_never_plans(self):
        planner = ShardRebalancer(4)
        assert not planner.plan(FlowLoadTracker(n_shards=4))
        assert planner.epochs_planned == 1 and planner.flows_migrated == 0

    def test_min_flow_rate_keeps_noise_flows_in_place(self):
        # shard 0 is hot only through flows below the noise floor
        tracker = self.tracker_with([(0, 2), (0, 2), (0, 2), (1, 1)])
        planner = ShardRebalancer(
            2, RebalancerConfig(trigger_ratio=1.1, target_ratio=1.01, min_flow_rate=3.0)
        )
        assert not planner.plan(tracker).migrations
        relaxed = ShardRebalancer(
            2, RebalancerConfig(trigger_ratio=1.1, target_ratio=1.01, min_flow_rate=0.0)
        )
        assert relaxed.plan(tracker).migrations

    def test_one_plan_spreads_moves_over_cold_shards(self):
        # the planner moves against its own projection, so a second move
        # goes to the next-coldest shard rather than piling onto the first
        tracker = self.tracker_with([(0, 10)] * 4 + [(1, 1), (2, 1)])
        planner = ShardRebalancer(3, RebalancerConfig(trigger_ratio=1.25, target_ratio=1.1))
        plan = planner.plan(tracker)
        assert {move.to_shard for move in plan.migrations} == {1, 2}
        assert all(move.from_shard == 0 for move in plan.migrations)
        assert plan.projected_skew < plan.observed_skew
        assert planner.flows_migrated == len(plan.migrations)


# --------------------------------------------------------------------------- migration mechanics


class TestLiveMigrationMechanics:
    def test_two_level_lookup_and_generation(self):
        engine = ShardedScallopPipeline(SFU, n_shards=4)
        src, ssrc = Address("10.3.0.2", 6000), 4242
        default = flow_shard(src, ssrc, 4)
        assert engine.shard_for_flow(src, ssrc) == default
        version = engine.control.placement_table.version
        target = (default + 1) % 4
        assert engine.migrate_flow(src, ssrc, target)
        assert engine.control.placement_table.version > version
        assert engine.shard_for_flow(src, ssrc) == target
        # migrating "back home" drops the exception instead of pinning it
        assert engine.migrate_flow(src, ssrc, default)
        assert engine.control.placement_table.peek((src, ssrc)) is None
        assert engine.shard_for_flow(src, ssrc) == default
        # no-op migration reports False and costs no generation bump
        version = engine.control.placement_table.version
        assert not engine.migrate_flow(src, ssrc, default)
        assert engine.control.placement_table.version == version

    def test_migration_invalidates_flow_routing_cache(self):
        scenario = MeetingScenario(3)
        engine = scenario.configure(ShardedScallopPipeline(SFU, n_shards=4))
        meeting = scenario.meetings[0]
        sender, ssrc = meeting["addresses"][0], meeting["video_ssrc"]
        chunk = scenario.traffic_chunk(1)
        engine.process_batch(chunk)  # populates the flow->shard cache
        old = engine.shard_for_flow(sender, ssrc)
        new = (old + 1) % 4
        engine.migrate_flow(sender, ssrc, new)
        engine.process_batch(scenario.traffic_chunk(2))
        packets_on_new = engine.shards[new].counters.data_plane_packets
        assert packets_on_new > 0

    def test_migration_leaves_the_global_ledger_alone(self):
        scenario = MeetingScenario(3)
        engine = scenario.configure(ShardedScallopPipeline(SFU, n_shards=4))
        meeting = scenario.meetings[0]
        sender, receiver = meeting["addresses"][0], meeting["addresses"][1]
        ssrc = meeting["video_ssrc"]
        engine.install_adaptation(
            ssrc, receiver, frozenset({0, 1}), SequenceRewriterLowMemory(SkipCadence(1, 2))
        )
        before = engine.accountant.utilization()
        assert engine.accountant.stream_tracker_cells_used == 3
        assert engine.migrate_flow(sender, ssrc, (engine.shard_for_flow(sender, ssrc) + 1) % 4)
        assert engine.accountant.utilization() == before
        # the migrated flow's state is released from the same ledger
        engine.remove_adaptation(ssrc, receiver)
        assert engine.accountant.stream_tracker_cells_used == 0

    def test_control_flow_migration_moves_no_stream_charges(self):
        scenario = MeetingScenario(3)
        engine = scenario.configure(ShardedScallopPipeline(SFU, n_shards=4))
        meeting = scenario.meetings[0]
        sender, receiver = meeting["addresses"][0], meeting["addresses"][1]
        engine.install_adaptation(
            meeting["video_ssrc"], receiver, frozenset({0}), SequenceRewriterLowMemory(SkipCadence(1, 2))
        )
        before = engine.accountant.utilization()
        target = (flow_shard(sender, -1, 4) + 1) % 4
        assert engine.migrate_flow(sender, -1, target)
        assert engine.shard_for_flow(sender, -1) == target
        # the sender's RTCP/STUN flow holds no stream state
        assert engine.accountant.utilization() == before

    @pytest.mark.parametrize("to_shard", [-1, 4])
    def test_migration_target_must_be_a_shard(self, to_shard):
        engine = ShardedScallopPipeline(SFU, n_shards=4)
        with pytest.raises(ValueError, match="out of range"):
            engine.migrate_flow(Address("10.3.0.2", 6000), 1, to_shard)
        assert engine.migrations_applied == 0

    def test_apply_migrations_counts_only_real_moves(self):
        engine = ShardedScallopPipeline(SFU, n_shards=4)
        src_a, src_b = Address("10.3.0.2", 6000), Address("10.3.0.3", 6000)
        home_a, home_b = flow_shard(src_a, 1, 4), flow_shard(src_b, 2, 4)
        plan = MigrationPlan(
            migrations=[
                FlowMigration(flow=(src_a, 1), from_shard=home_a, to_shard=(home_a + 1) % 4, rate=5.0),
                FlowMigration(flow=(src_b, 2), from_shard=home_b, to_shard=home_b, rate=5.0),
            ]
        )
        assert engine.apply_migrations(plan) == 1
        assert engine.migrations_applied == 1
        assert engine.shard_for_flow(src_a, 1) == (home_a + 1) % 4
        assert engine.shard_for_flow(src_b, 2) == home_b

    def test_forget_endpoint_drops_pins_and_tracker_rows(self):
        scenario = MeetingScenario(3)
        engine = scenario.configure(ShardedScallopPipeline(SFU, n_shards=4, rebalance=True))
        engine.process_batch(scenario.traffic_chunk(1))
        meeting = scenario.meetings[0]
        sender, ssrc = meeting["addresses"][0], meeting["video_ssrc"]
        home = flow_shard(sender, ssrc, 4)
        engine.migrate_flow(sender, ssrc, (home + 1) % 4)
        engine.migrate_flow(sender, -1, (flow_shard(sender, -1, 4) + 1) % 4)
        assert any(key[0] == sender for key in engine.load_tracker.flows)
        assert engine.forget_endpoint(sender) == 2
        assert engine.shard_for_flow(sender, ssrc) == home
        assert not any(key[0] == sender for key in engine.load_tracker.flows)
        assert engine.forget_endpoint(sender) == 0

    def test_silent_pins_are_migrated_home(self):
        # a pin whose flow never shows up again is released at the next
        # epoch boundary by moving the flow back to its CRC32 default
        scenario = MeetingScenario(3)
        config = RebalancerConfig(epoch_batches=1, trigger_ratio=50.0, target_ratio=40.0)
        engine = scenario.configure(ShardedScallopPipeline(SFU, n_shards=4, rebalance_config=config))
        departed, ssrc = Address("10.99.0.2", 6000), 4242
        home = flow_shard(departed, ssrc, 4)
        assert engine.migrate_flow(departed, ssrc, (home + 1) % 4)
        assert engine.control.placement_table.peek((departed, ssrc)) is not None
        engine.process_batch(scenario.traffic_chunk(1))
        assert engine.control.placement_table.peek((departed, ssrc)) is None
        assert engine.shard_for_flow(departed, ssrc) == home


# --------------------------------------------------------------------------- equivalence under churn


def run_rebalancing_scenario(n_shards: int, seed: int):
    """The PR 2 equivalence harness with the placement loop armed *and* extra
    forced migrations layered between phases: byte-identical results, merged
    counters, and ledger utilization must survive arbitrary placement churn."""
    scenario_a = MeetingScenario(seed)
    scenario_b = MeetingScenario(seed)
    reference = scenario_a.configure(ScallopPipeline(SFU))
    sharded = scenario_b.configure(
        ShardedScallopPipeline(
            SFU, n_shards=n_shards, rebalance_config=CHURN_CONFIG
        )
    )
    rng = random.Random(seed * 977)
    try:
        for phase in range(3):
            for op in scenario_a.churn_ops(seed * 101 + phase):
                apply_op(reference, op)
                apply_op(sharded, op)
            chunk = scenario_a.traffic_chunk(seed * 31 + phase)
            chunk_b = scenario_b.traffic_chunk(seed * 31 + phase)
            reference_results = [reference.process(d) for d in chunk]
            sharded_results = sharded.process_batch(chunk_b)
            assert_results_identical(reference_results, sharded_results)
            # forced migrations on top of whatever the policy decided
            for meeting in scenario_b.meetings:
                if rng.random() < 0.7:
                    sender, ssrc = meeting["addresses"][0], meeting["video_ssrc"]
                    sharded.migrate_flow(sender, ssrc, rng.randrange(n_shards))
        assert_engines_agree(reference, sharded)
        assert reference.counters.adaptation_drops > 0
        assert sharded.migrations_applied > 0, "the scenario never actually migrated"
    finally:
        sharded.close()
    return sharded


# --------------------------------------------------------------------------- skewed workloads


def zipf_weights(count: int, exponent: float = 0.9) -> List[float]:
    """Zipf-style popularity weights: meeting ``i`` gets ``1 / (i+1)^s``."""
    return [1.0 / (rank + 1) ** exponent for rank in range(count)]


def zipf_frames(
    count: int, base_frames: int = 18, exponent: float = 1.2, floor: int = 1
) -> List[int]:
    """Frames per batch for each meeting under a Zipf activity distribution
    (hottest meeting sends ``base_frames`` frames per batch, the tail decays
    as ``1/rank^s`` down to ``floor``)."""
    weights = zipf_weights(count, exponent)
    return [max(floor, round(base_frames * weight / weights[0])) for weight in weights]


def build_skewed_meeting_pipeline(
    num_meetings: int,
    n_shards: int,
    participants: int = 8,
    colocate_hot: int = 4,
    pipeline=None,
    participants_by_meeting: Optional[Sequence[int]] = None,
) -> Tuple[object, List[Tuple[Address, int]]]:
    """A meeting population whose hottest senders collide onto one shard.

    Same shape as ``meeting_pipeline.build_meeting_pipeline``, but the ``colocate_hot``
    hottest meetings get sender SSRCs chosen (deterministically, by scanning
    candidates) so the default CRC32 placement puts them all on shard 0 —
    the adversarial-but-realistic hash collision ROADMAP motivates ("a few
    hot senders pin one shard").  Combined with Zipf activity this yields a
    static max/mean packet skew well above 2x at k=4, which is the workload
    the rebalancer is tested against.
    """
    if pipeline is None:
        pipeline = ScallopPipeline(SFU)
    senders: List[Tuple[Address, int]] = []
    for meeting in range(num_meetings):
        mgid = pipeline.pre.create_tree()
        size = (
            participants_by_meeting[meeting]
            if participants_by_meeting is not None
            else participants
        )
        addresses = [
            Address(f"10.{1 + meeting // 200}.{meeting % 200}.{index + 2}", 6000 + index)
            for index in range(size)
        ]
        for rid, address in enumerate(addresses, start=1):
            pipeline.pre.add_node(
                mgid, rid=rid, ports=[L2Port(port=rid, l2_xid=rid)], l1_xid=1, prune_enabled=True
            )
            pipeline.install_replica_target(
                mgid, rid, ReplicaTarget(address=address, participant_id=f"m{meeting}-p{rid}")
            )
        ssrc = 10_000 + meeting * 50
        if meeting < colocate_hot:
            while flow_shard(addresses[0], ssrc, n_shards) != 0:
                ssrc += 1
        pipeline.install_stream(
            (addresses[0], ssrc),
            StreamForwardingEntry(
                mode=ForwardingMode.REPLICATE,
                meeting_id=f"meeting-{meeting}",
                sender=addresses[0],
                mgid=mgid,
                rid=1,
                l2_xid=1,
            ),
        )
        senders.append((addresses[0], ssrc))
    return pipeline, senders


def skewed_media_ingress(
    senders: Sequence[Tuple[Address, int]],
    frames_by_sender: Sequence[int],
) -> List[Datagram]:
    """One batch of Zipf-skewed AV1 ingress: sender ``i`` contributes
    ``frames_by_sender[i]`` frames.  Deterministic per sender, so replaying
    it models a steady-state load epoch (safe because the skewed workloads
    install no sequence rewriters — nothing is stateful across the replay)."""
    traffic: List[Datagram] = []
    for (address, ssrc), frames in zip(senders, frames_by_sender):
        encoder = SvcEncoder(target_bitrate_bps=2_200_000, seed=ssrc)
        packetizer = RtpPacketizer(ssrc=ssrc, seed=ssrc)
        for index in range(frames):
            for packet in packetizer.packetize(encoder.next_frame(index / 30)):
                traffic.append(Datagram(src=address, dst=SFU, payload=packet))
    return traffic


@dataclasses.dataclass(frozen=True)
class RebalancePoint:
    """One skewed-sweep point: static CRC32 placement vs. the closed
    telemetry -> policy -> migration loop on the identical workload."""

    n_shards: int
    num_meetings: int
    num_packets: int
    batches: int
    #: Final-batch max/mean per-shard packet skew under static CRC32.
    skew_static: float
    #: Same workload and batch with the rebalancer armed.
    skew_rebalanced: float
    migrations: int
    shard_packets_static: Tuple[int, ...]
    shard_packets_rebalanced: Tuple[int, ...]

    @property
    def skew_reduction(self) -> float:
        """How many times the rebalancer cut the max/mean packet skew."""
        return self.skew_static / self.skew_rebalanced if self.skew_rebalanced else 0.0


def _final_batch_shard_packets(
    engine: ShardedScallopPipeline,
    senders: Sequence[Tuple[Address, int]],
    frames_by_sender: Sequence[int],
    batches: int,
) -> Tuple[Tuple[int, ...], int]:
    """Replay ``batches`` identical skewed batches (a steady-state load
    epoch each); return the per-shard packet counts of the final batch alone
    (counters zeroed before it) plus the total packets per batch."""
    num_packets = 0
    traffic = skewed_media_ingress(senders, frames_by_sender)
    num_packets = len(traffic)
    for batch_index in range(batches):
        if batch_index == batches - 1:
            for shard in engine.shards:
                shard.counters = PipelineCounters()
        engine.process_batch(traffic)
    return (
        tuple(int(row["data_plane_packets"]) for row in engine.shard_load()),
        num_packets,
    )


def measure_rebalance_point(
    n_shards: int = 4,
    num_meetings: int = 50,
    participants: int = 8,
    batches: int = 24,
    base_frames: int = 18,
    zipf_exponent: float = 1.2,
    colocate_hot: int = 14,
    config: Optional[RebalancerConfig] = None,
) -> RebalancePoint:
    """Measure the rebalancer's skew cut on a Zipf-skewed hot-sender workload.

    Two runs over byte-identical traffic: a static-CRC32 engine and one with
    :meth:`~repro.dataplane.sharding.ShardedScallopPipeline.enable_rebalancing`
    armed (short epochs so the loop converges within ``batches``).  Both
    figures are the max/mean per-shard packet ratio of the *final* batch —
    i.e. after the control loop has converged — so the point is deterministic
    (packet counts, not timings).
    """
    if config is None:
        # short epochs + a tight target so the loop converges (and bottoms
        # out) well within the measured window; budget 6 keeps per-epoch
        # churn bounded while still draining a 14-hot-flow pileup
        config = RebalancerConfig(
            epoch_batches=2, trigger_ratio=1.15, target_ratio=1.05, migration_budget=6
        )
    frames_by_sender = zipf_frames(num_meetings, base_frames, zipf_exponent)

    static_engine, senders = build_skewed_meeting_pipeline(
        num_meetings,
        n_shards,
        participants,
        colocate_hot=colocate_hot,
        pipeline=ShardedScallopPipeline(SFU, n_shards=n_shards),
    )
    static_packets, num_packets = _final_batch_shard_packets(
        static_engine, senders, frames_by_sender, batches
    )
    static_engine.close()

    rebalanced_engine, senders = build_skewed_meeting_pipeline(
        num_meetings,
        n_shards,
        participants,
        colocate_hot=colocate_hot,
        pipeline=ShardedScallopPipeline(
            SFU, n_shards=n_shards, rebalance_config=config
        ),
    )
    rebalanced_packets, _ = _final_batch_shard_packets(
        rebalanced_engine, senders, frames_by_sender, batches
    )
    migrations = rebalanced_engine.migrations_applied
    rebalanced_engine.close()

    def skew(shard_packets: Tuple[int, ...]) -> float:
        mean = sum(shard_packets) / len(shard_packets)
        return max(shard_packets) / mean if mean else 0.0

    return RebalancePoint(
        n_shards=n_shards,
        num_meetings=num_meetings,
        num_packets=num_packets,
        batches=batches,
        skew_static=skew(static_packets),
        skew_rebalanced=skew(rebalanced_packets),
        migrations=migrations,
        shard_packets_static=static_packets,
        shard_packets_rebalanced=rebalanced_packets,
    )


class TestRebalancedEquivalenceProperty:
    @pytest.mark.parametrize("n_shards", [2, 4, 8])
    @pytest.mark.parametrize("seed", [7, 19, 31])
    def test_serial_byte_identical_across_migrations(self, n_shards, seed):
        run_rebalancing_scenario(n_shards, seed)

    def test_rebalancer_actually_balances_skewed_load(self):
        engine, senders = build_skewed_meeting_pipeline(
            20,
            4,
            participants=4,
            colocate_hot=8,
            pipeline=ShardedScallopPipeline(
                SFU,
                n_shards=4,
                rebalance_config=RebalancerConfig(
                    epoch_batches=2, trigger_ratio=1.15, target_ratio=1.05, migration_budget=6
                ),
            ),
        )
        frames = zipf_frames(20, base_frames=12, exponent=1.2)
        initial = None
        for batch in range(16):
            engine.process_batch(skewed_media_ingress(senders, frames))
            if initial is None:
                rows = engine.shard_load()
                packets = [row["data_plane_packets"] for row in rows]
                initial = max(packets) / (sum(packets) / len(packets))
        assert engine.migrations_applied > 0
        assert engine.load_tracker.skew_ratio() < initial
        assert engine.load_tracker.skew_ratio() < 1.2

    def test_rebalancer_cuts_hot_sender_skew_at_least_2x(self):
        # the placement loop's whole point: on the Zipf hot-sender workload
        # the rebalancer must cut max/mean per-shard packet skew at least 2x
        # vs the static CRC32 map (deterministic counts, no timing)
        point = measure_rebalance_point(n_shards=4, num_meetings=50)
        assert point.skew_reduction >= 2.0, (
            f"rebalancer cut skew only {point.skew_reduction:.2f}x "
            f"({point.skew_static:.2f}x -> {point.skew_rebalanced:.2f}x)"
        )


# --------------------------------------------------------------------------- oracle equality on the migrated flow


def build_adapted_meeting(pipeline, rewriter_cls, allowed_templates, seq_start):
    """One meeting: sender + 2 receivers, rate adaptation with ``rewriter_cls``
    on receiver 1, and a packetizer pinned to ``seq_start`` so the stream's
    sequence space wraps mid-test."""
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
    pipeline.install_adaptation(
        ssrc, receivers[0], allowed_templates, rewriter_cls(SkipCadence(1, 2))
    )
    packetizer = RtpPacketizer(ssrc=ssrc, seed=1)
    packetizer._sequence_number = seq_start
    encoder = SvcEncoder(target_bitrate_bps=1_500_000, seed=1)
    return sender, receivers, ssrc, packetizer, encoder


class TestMigrationOracleEquality:
    """A migration landing mid-adaptation-churn must leave the migrated
    flow's rewritten sequence space exactly where the oracle says it should
    be — in-flight wraparound state included."""

    @pytest.mark.parametrize(
        "rewriter_cls", [SequenceRewriterLowMemory, SequenceRewriterLowRetransmission]
    )
    def test_migrated_flow_matches_ideal_rewrite_sequence(self, rewriter_cls):
        allowed = frozenset({0, 1, 3, 4})  # suppresses the top temporal layer
        engine = ShardedScallopPipeline(SFU, n_shards=4)
        # start ~60 packets before the 65535 -> 0 wrap so the wrap lands in
        # the middle of the migration churn below
        sender, receivers, ssrc, packetizer, encoder = build_adapted_meeting(
            engine, rewriter_cls, allowed, seq_start=65_470
        )
        adapted = receivers[0]
        events = []  # (seq, suppressed, lost) ground truth in arrival order
        emitted = []  # rewritten seq (or None) per event, from the outputs
        try:
            for batch_index in range(12):
                batch = []
                for frame_index in range(4):
                    frame = encoder.next_frame((batch_index * 4 + frame_index) / 30)
                    for packet in packetizer.packetize(frame):
                        suppressed = (
                            packet.extension is not None
                            and frame.template_id not in allowed
                        )
                        events.append((packet.sequence_number, suppressed, False))
                        batch.append(Datagram(src=sender, dst=SFU, payload=packet))
                for result in engine.process_batch(batch):
                    outs = [d for d in result.outputs if d.dst == adapted]
                    if outs:
                        emitted.append(outs[0].payload.sequence_number)
                    else:
                        emitted.append(None)
                # migrate the flow every batch: each migration lands with
                # in-flight rewriter state, several of them mid-wraparound
                engine.migrate_flow(sender, ssrc, (batch_index + 1) % 4)
        finally:
            engine.close()
        ideal = ideal_rewrite_sequence(events)
        assert emitted == ideal
        suppressed_count = sum(1 for _seq, suppressed, _lost in events if suppressed)
        assert suppressed_count > 0, "the workload never exercised suppression"
        # the stream genuinely wrapped mid-test
        seqs = [seq for seq, _s, _l in events]
        assert max(seqs) > 65_000 and min(seqs) < 500
