"""Snapshot-level contracts of the telemetry plane: shard-count-invariant
metric folds, deterministic trace timelines across identically-seeded runs,
and the schema gate CI applies to ``--metrics-out`` snapshots."""

import json

import pytest

from repro.dataplane.sharding import ShardedScallopPipeline
from repro.obs.bus import CORE_SERIES, SCHEMA, TelemetryBus
from repro.obs.export import (
    render_prometheus,
    render_table,
    to_json,
    validate_snapshot,
)
from repro.obs.hooks import ObsConfig
from repro.scenario.driver import build_scenario
from repro.scenario.spec import BackendSpec, Scenario, TrafficSpec

from meeting_pipeline import SFU_ADDRESS, build_meeting_pipeline, media_ingress


def canned_engine_snapshot(n_shards: int) -> str:
    """Run identical canned traffic through a ``n_shards`` engine and return
    the canonical snapshot JSON, minus the per-shard
    ``repro.dataplane.shardN.*`` rows (how the load splits legitimately
    depends on the shard count)."""
    engine = ShardedScallopPipeline(
        SFU_ADDRESS,
        n_shards=n_shards,
        obs=ObsConfig(trace_sample_rate=1, max_trace_records=4096),
    )
    try:
        engine, senders = build_meeting_pipeline(4, participants=4, pipeline=engine)
        traffic = media_ingress(senders, frames=6)
        engine.process_batch(traffic)
        bus = TelemetryBus()
        bus.add_engine(engine, sim_time_s=1.0)
        snapshot = bus.snapshot(sim_time_s=1.0)
    finally:
        engine.close()
    snapshot["series"] = {
        name: body
        for name, body in snapshot["series"].items()
        if not name.startswith("repro.dataplane.shard")
    }
    return to_json(snapshot)


class TestShardCountInvariance:
    """The same canned traffic must produce byte-identical merged metric
    snapshots and trace timelines no matter how many shards ran it."""

    @pytest.mark.parametrize("n_shards", [2, 3, 4, 8])
    def test_merged_snapshot_matches_single_shard(self, n_shards):
        assert canned_engine_snapshot(n_shards) == canned_engine_snapshot(1)

    def test_snapshot_actually_traced_something(self):
        snapshot = json.loads(canned_engine_snapshot(2))
        assert snapshot["traces"], "sample_rate=1 must trace every media flow"
        assert snapshot["series"]["repro.trace.sampled_packets"]["value"] > 0


class TestScenarioTraceDeterminism:
    @staticmethod
    def run_once() -> str:
        scenario = Scenario.uniform(
            1,
            3,
            name="obs-trace-determinism",
            duration_s=2.0,
            seed=7,
            backend=BackendSpec(n_shards=2, obs=ObsConfig(trace_sample_rate=1)),
            traffic=TrafficSpec(frame_bursts=True),
        )
        with build_scenario(scenario) as run:
            run.run()
            return to_json(run.metrics_snapshot())

    def test_same_seed_same_trace_timeline(self):
        first = self.run_once()
        second = self.run_once()
        assert first == second
        snapshot = json.loads(first)
        assert snapshot["schema"] == SCHEMA
        assert snapshot["traces"], "a 2 s media scenario at 1-in-1 must sample flows"
        # every span timeline covers the 12 us forwarding delay exactly
        for _, _, _, spans in snapshot["traces"]:
            assert sum(duration for _, _, duration in spans) == 12000


class TestSnapshotSchema:
    @pytest.fixture(scope="class")
    def snapshot(self):
        engine = ShardedScallopPipeline(SFU_ADDRESS, n_shards=2, obs=True)
        try:
            engine, senders = build_meeting_pipeline(3, participants=4, pipeline=engine)
            engine.process_batch(media_ingress(senders, frames=4))
            bus = TelemetryBus()
            bus.add_engine(engine, sim_time_s=1.0)
            bus.add_latency_samples([12.5, 30.0, 47.5])
            return bus.snapshot(sim_time_s=1.0)
        finally:
            engine.close()

    def test_valid_snapshot_has_no_problems(self, snapshot):
        assert validate_snapshot(snapshot) == []
        for name in CORE_SERIES:
            assert name in snapshot["series"]
        # no host-time series: the removed coordinator profile and process
        # transport were the only sources of wall-clock values
        assert not [
            name for name in snapshot["series"] if name.startswith(("repro.coord.", "repro.transport."))
        ]

    def test_resources_are_reported_only_from_the_global_ledger(self):
        engine = ShardedScallopPipeline(SFU_ADDRESS, n_shards=2, obs=True, rebalance=True)
        try:
            engine, senders = build_meeting_pipeline(3, participants=4, pipeline=engine)
            for _ in range(3):
                engine.process_batch(media_ingress(senders, frames=4))
            bus = TelemetryBus()
            bus.add_engine(engine, sim_time_s=1.0)
            series = bus.snapshot(sim_time_s=1.0)["series"]
        finally:
            engine.close()
        per_shard = {
            name.split(".", 3)[3]
            for name in series
            if name.startswith(("repro.dataplane.shard", "repro.load.shard"))
        }
        assert per_shard == {"cpu_packets", "data_plane_packets", "pps", "replicas_out", "rate"}
        assert {name for name in series if name.startswith("repro.resources.")} == {
            "repro.resources." + key for key in engine.accountant.utilization()
        }

    def test_json_round_trip_is_lossless(self, snapshot):
        assert json.loads(to_json(snapshot)) == snapshot

    def test_missing_core_series_fails_validation(self, snapshot):
        broken = json.loads(to_json(snapshot))
        del broken["series"]["repro.dataplane.shard0.pps"]
        problems = validate_snapshot(broken)
        assert any("repro.dataplane.shard0.pps" in problem for problem in problems)

    def test_wrong_schema_and_nonfinite_values_fail_validation(self, snapshot):
        broken = json.loads(to_json(snapshot))
        broken["schema"] = "repro.obs/v0"
        broken["series"]["repro.dataplane.data_plane_packets"]["value"] = float("nan")
        problems = validate_snapshot(broken)
        assert any("schema mismatch" in problem for problem in problems)
        assert any("non-finite" in problem for problem in problems)
        assert validate_snapshot([]) == ["snapshot is not a JSON object"]

    def test_prometheus_rendering(self, snapshot):
        text = render_prometheus(snapshot)
        assert "# TYPE repro_dataplane_data_plane_packets counter" in text
        assert "# TYPE repro_client_e2e_latency_ms histogram" in text
        assert 'repro_client_e2e_latency_ms_bucket{le="+Inf"} 3' in text
        assert "repro_client_e2e_latency_ms_count 3" in text

    def test_table_rendering(self, snapshot):
        table = render_table(snapshot)
        assert "repro.dataplane.shard0.pps" in table
        assert f"schema={SCHEMA}" in table


class TestObsCli:
    def write(self, tmp_path, snapshot):
        path = tmp_path / "snap.json"
        path.write_text(to_json(snapshot), encoding="utf-8")
        return str(path)

    @pytest.fixture()
    def good_snapshot(self):
        engine = ShardedScallopPipeline(SFU_ADDRESS, n_shards=1, obs=True)
        try:
            engine, senders = build_meeting_pipeline(1, participants=3, pipeline=engine)
            engine.process_batch(media_ingress(senders, frames=2))
            bus = TelemetryBus()
            bus.add_engine(engine, sim_time_s=1.0)
            bus.add_latency_samples([25.0])
            return bus.snapshot(sim_time_s=1.0)
        finally:
            engine.close()

    def test_validate_accepts_a_complete_snapshot(self, tmp_path, good_snapshot, capsys):
        from repro.obs.__main__ import main

        assert main([self.write(tmp_path, good_snapshot), "--validate"]) == 0
        assert "snapshot OK" in capsys.readouterr().out

    def test_validate_rejects_a_broken_snapshot(self, tmp_path, good_snapshot, capsys):
        from repro.obs.__main__ import main

        good_snapshot["schema"] = "bogus"
        assert main([self.write(tmp_path, good_snapshot), "--validate"]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_default_rendering_is_the_table(self, tmp_path, good_snapshot, capsys):
        from repro.obs.__main__ import main

        assert main([self.write(tmp_path, good_snapshot)]) == 0
        assert "repro.dataplane.shard0.pps" in capsys.readouterr().out
