"""Suite for the sharded coordinator's stage profile (`CoordinatorStats`).

The serial coordinator has three stages per batch — partition, dispatch,
reassemble — and the profile charges each exactly once per coordinated batch.
A deterministic counting clock stands in for ``perf_counter_ns`` so the
tallies are exact.
"""

import dataclasses
import itertools

import pytest

from repro.dataplane.sharding import ShardedScallopPipeline
from repro.experiments.coordstats import STAGES, CoordinatorStats
from repro.netsim.datagram import Address

from test_sharded_pipeline import MeetingScenario, assert_results_identical

SFU = Address("10.0.0.1", 5000)


def counting_clock(step=10):
    """A clock that advances ``step`` ns per read."""
    ticks = itertools.count(0, step)
    return lambda: next(ticks)


class TestCoordinatorStatsUnit:
    def test_stages_are_partition_dispatch_reassemble(self):
        assert STAGES == ("partition", "dispatch", "reassemble")
        assert list(CoordinatorStats().stage_ns()) == list(STAGES)

    def test_note_stage_accumulates_total_and_histogram(self):
        stats = CoordinatorStats()
        stats.note_stage("partition", 2_000)
        stats.note_stage("partition", 5_000_000)
        stats.note_stage("reassemble", 40)
        assert stats.stage_ns() == {"partition": 5_002_000, "dispatch": 0, "reassemble": 40}
        assert stats.stage_hists["partition"].count == 2
        assert stats.stage_hists["partition"].sum == 5_002_000.0
        assert stats.stage_hists["dispatch"].count == 0

    def test_unknown_stage_is_rejected(self):
        stats = CoordinatorStats()
        with pytest.raises(AttributeError):
            stats.note_stage("encode", 1)

    def test_note_batch_counts_batches_and_packets(self):
        stats = CoordinatorStats()
        stats.note_batch(7)
        stats.note_batch(0)
        stats.note_batch(5)
        assert (stats.batches, stats.packets) == (3, 12)

    def test_snapshot_series_names(self):
        stats = CoordinatorStats()
        stats.note_stage("dispatch", 300)
        stats.note_batch(3)
        series = stats.snapshot_series()
        expected = {"repro.coord.batches", "repro.coord.packets"}
        expected |= {f"repro.coord.{stage}_ns" for stage in STAGES}
        expected |= {f"repro.coord.stage_ns.{stage}" for stage in STAGES}
        assert set(series) == expected
        assert series["repro.coord.dispatch_ns"] == {"type": "counter", "value": 300}
        assert series["repro.coord.stage_ns.dispatch"]["count"] == 1
        assert set(stats.snapshot_series(prefix="x.")) == {
            "x." + name[len("repro.coord."):] for name in expected
        }

    def test_format_table_lists_every_stage_and_survives_zero_packets(self):
        empty = CoordinatorStats().format_table()
        assert "0 batches, 0 packets" in empty
        stats = CoordinatorStats()
        stats.note_stage("partition", 4_000)
        stats.note_batch(4)
        table = stats.format_table()
        rows = table.splitlines()[2:]
        assert [row.split()[0] for row in rows] == list(STAGES)
        # 4000 ns over 4 packets
        assert rows[0].split()[-1] == "1000"


class TestCoordinatorStatsOnTheEngine:
    def test_unprofiled_engine_has_no_stats(self):
        assert ShardedScallopPipeline(SFU, n_shards=4).coordinator_stats is None
        assert isinstance(
            ShardedScallopPipeline(SFU, n_shards=4, profile=True).coordinator_stats,
            CoordinatorStats,
        )

    def test_single_shard_charges_only_dispatch(self):
        scenario = MeetingScenario(3)
        engine = scenario.configure(ShardedScallopPipeline(SFU, n_shards=1))
        engine.coordinator_stats = stats = CoordinatorStats(clock=counting_clock())
        sizes = []
        for seed in range(3):
            chunk = scenario.traffic_chunk(seed)
            sizes.append(len(chunk))
            engine.process_batch(chunk)
        assert (stats.batches, stats.packets) == (3, sum(sizes))
        assert stats.stage_ns() == {"partition": 0, "dispatch": 30, "reassemble": 0}
        assert stats.stage_hists["dispatch"].count == 3

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_multi_shard_charges_every_stage_once_per_batch(self, n_shards):
        scenario = MeetingScenario(3)
        engine = scenario.configure(ShardedScallopPipeline(SFU, n_shards=n_shards))
        engine.coordinator_stats = stats = CoordinatorStats(clock=counting_clock())
        total = 0
        for seed in range(4):
            chunk = scenario.traffic_chunk(seed)
            total += len(chunk)
            engine.process_batch(chunk)
        assert (stats.batches, stats.packets) == (4, total)
        assert stats.stage_ns() == {"partition": 40, "dispatch": 40, "reassemble": 40}
        assert all(stats.stage_hists[stage].count == 4 for stage in STAGES)

    def test_profiling_does_not_change_results(self):
        scenario_a, scenario_b = MeetingScenario(9), MeetingScenario(9)
        plain = scenario_a.configure(ShardedScallopPipeline(SFU, n_shards=4))
        profiled = scenario_b.configure(ShardedScallopPipeline(SFU, n_shards=4, profile=True))
        assert_results_identical(
            plain.process_batch(scenario_a.traffic_chunk(2)),
            profiled.process_batch(scenario_b.traffic_chunk(2)),
        )
        assert dataclasses.asdict(plain.counters) == dataclasses.asdict(profiled.counters)
        assert profiled.coordinator_stats.packets == len(scenario_a.traffic_chunk(2))
