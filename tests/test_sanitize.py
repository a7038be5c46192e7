"""Runtime shard-isolation sanitizer suite.

Three contracts: (1) the write barrier fires — any mutating method call or
attribute/item store through a datapath-held control-plane binding raises
:class:`ShardIsolationError` and lands in the isolation log; (2) the barrier
is transparent — sanitized runs are byte-identical to unsanitized runs on
the full equivalence scenario, with zero findings; (3) the canned
``churn_storm --smoke`` gate passes under ``REPRO_SANITIZE=1`` with output
byte-identical to the unsanitized run.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.dataplane.pipeline import ScallopPipeline
from repro.dataplane.sanitize import (
    IsolationLog,
    ShardIsolationError,
    WriteBarrierProxy,
    resolve_sanitize,
)
from repro.dataplane.sharding import ShardedScallopPipeline
from repro.netsim.datagram import Address

from reference_datapath import reference_process
from test_sharded_pipeline import (
    MeetingScenario,
    apply_op,
    assert_engines_agree,
    assert_results_identical,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SFU = Address("10.0.0.1", 5000)


# --------------------------------------------------------------------------- the barrier fires


class TestWriteBarrier:
    def test_injected_cross_shard_table_write_raises(self):
        engine = ShardedScallopPipeline(SFU, n_shards=2, sanitize=True)
        with pytest.raises(ShardIsolationError, match="stream_table.install"):
            engine.shards[0].stream_table.install(("rogue", 1), object())
        findings = engine.isolation_findings()
        assert len(findings) == 1
        assert findings[0].target == "stream_table.install"
        assert findings[0].operation == "call"
        assert findings[0].shard_id == engine.shards[0].shard_id

    def test_attribute_store_on_pre_raises(self):
        engine = ShardedScallopPipeline(SFU, n_shards=2, sanitize=True)
        with pytest.raises(ShardIsolationError, match="setattr"):
            engine.shards[1].pre.copies_produced = 9
        findings = engine.isolation_findings()
        assert [finding.operation for finding in findings] == ["setattr"]
        assert findings[0].target == "pre.copies_produced"

    def test_register_write_through_a_shard_raises(self):
        # every shard reads the control plane's one register file; writing
        # it is the control plane's job
        engine = ShardedScallopPipeline(SFU, n_shards=2, sanitize=True)
        with pytest.raises(ShardIsolationError, match="trackers.write"):
            engine.shards[1].trackers.write(0, object())
        assert engine.stream_trackers.peek(0) is None
        assert [finding.target for finding in engine.isolation_findings()] == ["trackers.write"]

    def test_control_method_call_from_datapath_handle_raises(self):
        pipeline = ScallopPipeline(SFU, sanitize=True)
        with pytest.raises(ShardIsolationError, match="control.install_stream"):
            pipeline.datapath.control.install_stream(("a", 1), object())
        assert len(pipeline.isolation_findings()) == 1

    def test_item_store_raises_and_is_logged(self):
        log = IsolationLog(shard_id=7)
        proxy = WriteBarrierProxy({"k": 1}, "stream_indices", log)
        assert proxy["k"] == 1  # reads forward
        assert "k" in proxy and len(proxy) == 1
        with pytest.raises(ShardIsolationError):
            proxy["k"] = 2
        with pytest.raises(ShardIsolationError):
            del proxy["k"]
        assert [violation.operation for violation in log.violations] == ["setitem", "delitem"]

    def test_sanctioned_reads_forward_and_are_counted(self):
        pipeline = ScallopPipeline(SFU, sanitize=True)
        assert pipeline.datapath.stream_table.lookup(("nobody", 0)) is None
        log = pipeline.datapath.isolation_log
        assert log.read_counts.get("stream_table.lookup", 0) == 1
        assert not log.violations

    def test_control_plane_write_path_is_untouched(self):
        # the engine facade's own control handle stays raw: the whole
        # sanctioned control API must work under the sanitizer
        scenario = MeetingScenario(5)
        engine = scenario.configure(ShardedScallopPipeline(SFU, n_shards=2, sanitize=True))
        for op in scenario.churn_ops(5):
            apply_op(engine, op)
        assert engine.isolation_findings() == []


# --------------------------------------------------------------------------- switch resolution


class TestSanitizeResolution:
    def test_explicit_flag_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert resolve_sanitize(False) is False
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert resolve_sanitize(True) is True

    def test_env_drives_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert resolve_sanitize(None) is False
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert resolve_sanitize(None) is False
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert resolve_sanitize(None) is True

    def test_unsanitized_pipeline_has_no_log(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        pipeline = ScallopPipeline(SFU)
        assert pipeline.datapath.isolation_log is None
        assert pipeline.isolation_findings() == []
        # explicit False wins even when the suite itself runs sanitized
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert ScallopPipeline(SFU, sanitize=False).datapath.isolation_log is None

    def test_env_enables_sanitizer_on_default_construction(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        pipeline = ScallopPipeline(SFU)
        assert pipeline.datapath.isolation_log is not None
        with pytest.raises(ShardIsolationError):
            pipeline.datapath.pre.copies_produced = 1


# --------------------------------------------------------------------------- transparency


class TestSanitizedEquivalence:
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
    def test_sanitized_run_byte_identical_with_zero_findings(self, n_shards):
        seed = 31
        scenario_a, scenario_b = MeetingScenario(seed), MeetingScenario(seed)
        plain = scenario_a.configure(ShardedScallopPipeline(SFU, n_shards=n_shards))
        sanitized = scenario_b.configure(
            ShardedScallopPipeline(SFU, n_shards=n_shards, sanitize=True)
        )
        try:
            for phase in range(2):
                for op in scenario_a.churn_ops(seed + phase):
                    apply_op(plain, op)
                    apply_op(sanitized, op)
                chunk_a = scenario_a.traffic_chunk(seed * 3 + phase)
                chunk_b = scenario_b.traffic_chunk(seed * 3 + phase)
                assert_results_identical(
                    [plain.process(d) for d in chunk_a],
                    [sanitized.process(d) for d in chunk_b],
                )
            assert_engines_agree(plain, sanitized)
            assert sanitized.isolation_findings() == []
            # the barrier actually sat on the hot path: media lookups were
            # counted on every sanitized shard that saw traffic
            hot_reads = sum(
                shard.isolation_log.read_counts.get("stream_table.lookup", 0)
                for shard in sanitized.shards
            )
            assert hot_reads > 0
        finally:
            plain.close()
            sanitized.close()

    def test_sanitized_per_packet_process_matches_reference_walk(self):
        # process() runs media on the memoized implementation: its cache
        # fills and rewriter reads must stay on the datapath's side of the
        # write barrier, and its outputs must match the unmemoized walk
        seed = 43
        scenario_a, scenario_b = MeetingScenario(seed), MeetingScenario(seed)
        reference = scenario_a.configure(ScallopPipeline(SFU, sanitize=False))
        sanitized = scenario_b.configure(ScallopPipeline(SFU, sanitize=True))
        for phase in range(2):
            for op in scenario_a.churn_ops(seed + phase):
                apply_op(reference, op)
                apply_op(sanitized, op)
            chunk_a = scenario_a.traffic_chunk(seed * 3 + phase)
            chunk_b = scenario_b.traffic_chunk(seed * 3 + phase)
            assert_results_identical(
                [reference_process(reference, d) for d in chunk_a],
                [sanitized.process(d) for d in chunk_b],
            )
        assert_engines_agree(reference, sanitized)
        assert sanitized.isolation_findings() == []
        assert sanitized.datapath.isolation_log.read_counts.get("stream_table.lookup", 0) > 0


# --------------------------------------------------------------------------- canned scenario gate


class TestChurnStormSmoke:
    def _run_smoke(self, extra_env):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env.pop("REPRO_SANITIZE", None)
        env.update(extra_env)
        return subprocess.run(
            [sys.executable, "-m", "repro.scenario", "churn_storm", "--smoke"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env=env,
            timeout=240,
        )

    def test_smoke_passes_sanitized_and_output_is_byte_identical(self):
        plain = self._run_smoke({})
        sanitized = self._run_smoke({"REPRO_SANITIZE": "1"})
        assert plain.returncode == 0, plain.stderr
        assert sanitized.returncode == 0, sanitized.stderr
        assert "reconciliation: SFU state matches" in sanitized.stdout
        assert sanitized.stdout == plain.stdout
