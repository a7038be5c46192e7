"""Packet-lifecycle tracing: deterministic flow sampling, integer span
timelines that always sum to the forwarding delay, and read-only
snapshot-time merges of per-shard state."""

from zlib import crc32

import pytest

from repro.obs.hooks import DatapathObs, ObsConfig
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import (
    STAGES,
    PacketTracer,
    flow_trace_key,
    sorted_trace_records,
)


def make_tracer(**kwargs):
    registry = MetricsRegistry()
    return PacketTracer(registry, **kwargs), registry


class TestSampling:
    def test_classify_is_pure_crc32(self):
        tracer, _ = make_tracer(sample_rate=64)
        for ssrc in range(200):
            expected = crc32(f"10.0.0.2:6000/{ssrc}".encode()) % 64 == 0
            assert tracer.classify(("k", ssrc), "10.0.0.2", 6000, ssrc) is expected
            # memoized under the caller's key
            assert tracer.trace_memo[("k", ssrc)] is expected

    def test_sample_rate_one_traces_every_flow(self):
        tracer, _ = make_tracer(sample_rate=1)
        assert tracer.wants("a", "10.0.0.2", 6000, 1)
        assert tracer.wants("b", "10.0.0.3", 6001, 2)

    def test_sample_rate_validated(self):
        with pytest.raises(ValueError):
            make_tracer(sample_rate=0)

    def test_memo_is_bounded_with_clear_on_full(self, monkeypatch):
        monkeypatch.setattr(PacketTracer, "MEMO_LIMIT", 8)
        tracer, _ = make_tracer(sample_rate=64)
        for index in range(50):
            tracer.classify(index, "10.0.0.2", 6000, index)
            assert len(tracer.trace_memo) <= 8
        # re-derivation after a clear cannot flip any decision
        assert tracer.classify(3, "10.0.0.2", 6000, 3) is (
            crc32(b"10.0.0.2:6000/3") % 64 == 0
        )

    def test_disabled_obs_memo_also_bounded(self, monkeypatch):
        monkeypatch.setattr(PacketTracer, "MEMO_LIMIT", 8)
        obs = DatapathObs(ObsConfig(trace_sample_rate=0))
        assert obs.tracer is None
        for index in range(50):
            assert obs.classify(index, "10.0.0.2", 6000, index) is False
            assert len(obs.trace_memo) <= 8


class TestSpanTimeline:
    def record_one(self, tracer, **overrides):
        kwargs = dict(
            ip="10.0.0.2", port=6000, ssrc=7, seq=100, arrived_at=1.5,
            size=1200, parse_hit=True, flow_hit=True, replicas=3,
            dropped=0, adapted=False,
        )
        kwargs.update(overrides)
        tracer.record_media(**kwargs)
        return tracer.records[-1]

    def test_spans_cover_the_forwarding_delay_exactly(self):
        tracer, _ = make_tracer(sample_rate=1, forwarding_delay_s=12e-6)
        for replicas in (0, 1, 3, 9):
            for parse_hit in (True, False):
                for adapted in (True, False):
                    arrival_ns, flow, seq, spans = self.record_one(
                        tracer, replicas=replicas, parse_hit=parse_hit, adapted=adapted
                    )
                    assert [stage for stage, _, _ in spans] == list(STAGES)
                    assert sum(duration for _, _, duration in spans) == 12000
                    offset = 0
                    for _, span_offset, duration in spans:
                        assert span_offset == offset  # contiguous, no gaps
                        offset += duration
        assert flow == flow_trace_key("10.0.0.2", 6000, 7)
        assert arrival_ns == 1_500_000_000

    def test_work_weights_widen_the_right_stages(self):
        tracer, _ = make_tracer(sample_rate=1)

        def durations(**overrides):
            spans = self.record_one(tracer, **overrides)[3]
            return {stage: duration for stage, _, duration in spans}

        hit = durations(parse_hit=True, replicas=1)
        miss = durations(parse_hit=False, replicas=1)
        fanned = durations(parse_hit=True, replicas=9)
        assert miss["parse"] > hit["parse"]
        assert fanned["pre_expand"] > hit["pre_expand"]

    def test_histograms_and_counters_feed_the_registry(self):
        tracer, registry = make_tracer(sample_rate=1)
        self.record_one(tracer)
        self.record_one(tracer)
        assert registry.counters["repro.trace.sampled_packets"] == 2
        for stage in STAGES:
            assert registry.histograms[f"repro.trace.stage_ns.{stage}"].count == 2
        assert registry.histograms["repro.trace.packet_bytes"].sum == 2400.0

    def test_record_cap_spills_to_counters_not_memory(self):
        tracer, registry = make_tracer(sample_rate=1, max_records=3)
        for seq in range(5):
            self.record_one(tracer, seq=seq)
        assert len(tracer.records) == 3
        assert registry.counters["repro.trace.records_dropped"] == 2
        # the stage histograms kept absorbing the overflow packets
        assert registry.histograms["repro.trace.stage_ns.ingress"].count == 5

    def test_clockless_process_path_anchors_at_zero(self):
        tracer, _ = make_tracer(sample_rate=1)
        arrival_ns, _, _, _ = self.record_one(tracer, arrived_at=None)
        assert arrival_ns == 0


class TestDrainAndFold:
    def sampled_obs(self, **config):
        config.setdefault("trace_sample_rate", 1)
        return DatapathObs(ObsConfig(**config))

    def record(self, obs, seq, arrived_at=2.0):
        obs.record_media(
            "10.0.0.2", 6000, 7, seq, arrived_at, 900,
            parse_hit=True, flow_hit=True, replicas=2, dropped=0, adapted=False,
        )

    def test_fold_respects_the_record_cap(self):
        shard = self.sampled_obs(max_trace_records=8)
        for seq in range(8):
            self.record(shard, seq=seq)
        merged = self.sampled_obs(max_trace_records=3)
        merged.merge_from(shard)
        assert len(merged.tracer.records) == 3
        assert merged.registry.counters["repro.trace.records_dropped"] == 5

    def test_merge_from_is_read_only(self):
        a, b = self.sampled_obs(), self.sampled_obs()
        self.record(a, seq=1)
        self.record(b, seq=2)
        merged = self.sampled_obs()
        merged.merge_from(a)
        merged.merge_from(b)
        assert len(merged.tracer.records) == 2
        assert len(a.tracer.records) == 1 and len(b.tracer.records) == 1
        assert a.registry.counters["repro.trace.sampled_packets"] == 1

    def test_sorted_trace_records_restores_total_order(self):
        obs = self.sampled_obs()
        self.record(obs, seq=5, arrived_at=3.0)
        self.record(obs, seq=1, arrived_at=1.0)
        self.record(obs, seq=9, arrived_at=1.0)
        shuffled = list(reversed(obs.tracer.records))
        ordered = sorted_trace_records(shuffled)
        assert [record[0] for record in ordered] == sorted(r[0] for r in shuffled)
        assert ordered == sorted_trace_records(obs.tracer.records)
