"""The metrics registry: histograms, commutative folds, and the guarantee
that histogram percentiles cannot drift from the exact-sample estimator in
``repro.analysis.metrics``."""

import random

import pytest

from repro.analysis.metrics import LatencySummary, percentile
from repro.dataplane.loadstats import FlowLoadTracker
from repro.dataplane.rebalance import RebalancerConfig, ShardRebalancer
from repro.netsim.datagram import Address
from repro.obs.registry import (
    LATENCY_MS_BUCKETS,
    STAGE_NS_BUCKETS,
    Histogram,
    MetricsRegistry,
)


class TestHistogram:
    def test_bucket_placement_and_overflow(self):
        hist = Histogram((10.0, 100.0))
        for value in (1.0, 10.0, 11.0, 100.0, 1e6):
            hist.observe(value)
        assert hist.counts == [2, 2, 1]
        assert hist.count == 5
        assert hist.sum == pytest.approx(1e6 + 122.0)

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram(())
        with pytest.raises(ValueError):
            Histogram((5.0, 5.0))

    def test_merge_is_commutative(self):
        a, b = Histogram(STAGE_NS_BUCKETS), Histogram(STAGE_NS_BUCKETS)
        rng = random.Random(3)
        for _ in range(200):
            a.observe(rng.uniform(0.0, 30000.0))
            b.observe(rng.uniform(0.0, 30000.0))
        ab, ba = Histogram(STAGE_NS_BUCKETS), Histogram(STAGE_NS_BUCKETS)
        ab.merge(a), ab.merge(b)
        ba.merge(b), ba.merge(a)
        assert ab.counts == ba.counts
        assert ab.count == ba.count == 400
        assert ab.sum == pytest.approx(ba.sum)

    def test_merge_rejects_different_bounds(self):
        with pytest.raises(ValueError):
            Histogram(STAGE_NS_BUCKETS).merge(Histogram(LATENCY_MS_BUCKETS))

    def test_bucket_percentile_brackets_the_mass(self):
        hist = Histogram(LATENCY_MS_BUCKETS)
        for _ in range(100):
            hist.observe(7.0)  # all mass in the (5, 10] bucket
        assert 5.0 <= hist.percentile(50.0) <= 10.0
        assert hist.percentile(99.0) <= 10.0
        assert Histogram(LATENCY_MS_BUCKETS).percentile(50.0) == 0.0
        with pytest.raises(ValueError):
            hist.percentile(150.0)


class TestSamplePercentileExactness:
    """``Histogram.from_samples`` + ``sample_percentile`` must be bit-identical
    to ``analysis.metrics.percentile`` — the invariant that let the latency
    summary be re-expressed through histogram bucketing."""

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_matches_exact_estimator_on_random_samples(self, seed):
        rng = random.Random(seed)
        samples = [rng.uniform(0.1, 500.0) for _ in range(257)]
        # duplicates exercise the point-mass bucket counts
        samples += samples[:31]
        hist = Histogram.from_samples(samples)
        for q in (0.0, 1.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 100.0):
            assert hist.sample_percentile(q) == percentile(samples, q)

    def test_single_sample_and_empty(self):
        assert Histogram.from_samples([7.0]).sample_percentile(95.0) == 7.0
        with pytest.raises(ValueError):
            Histogram.from_samples([])
        hist = Histogram((1.0,))
        with pytest.raises(ValueError):
            hist.sample_percentile(50.0)

    def test_overflow_mass_rejected(self):
        hist = Histogram((1.0,))
        hist.observe(2.0)  # overflow bucket: not point-mass
        with pytest.raises(ValueError):
            hist.sample_percentile(50.0)

    def test_percentile_edge_contract(self):
        samples = list(range(1, 101))
        assert percentile(samples, 50) == 50.5
        assert percentile(samples, 0.0) == 1
        assert percentile(samples, 100.0) == 100
        assert percentile([7.0], 95) == 7.0
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([], 150)  # q validated before emptiness
        with pytest.raises(ValueError):
            percentile([1.0], 150)

    def test_latency_summary_through_histogram(self):
        rng = random.Random(11)
        samples = [rng.expovariate(1 / 40.0) for _ in range(500)]
        summary = LatencySummary.from_samples(samples)
        ordered = sorted(samples)
        assert summary.count == 500
        assert summary.minimum == ordered[0]
        assert summary.maximum == ordered[-1]
        assert summary.median == percentile(samples, 50.0)
        assert summary.p95 == percentile(samples, 95.0)
        assert summary.p99 == percentile(samples, 99.0)
        assert summary.mean == pytest.approx(sum(samples) / 500, rel=1e-12)
        with pytest.raises(ValueError):
            LatencySummary.from_samples([])


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.inc("pkts"), registry.inc("pkts", 4)
        registry.set_gauge("occ", 0.5)
        hist = registry.histogram("lat", LATENCY_MS_BUCKETS)
        assert registry.histogram("lat", LATENCY_MS_BUCKETS) is hist
        with pytest.raises(ValueError):
            registry.histogram("lat", STAGE_NS_BUCKETS)
        hist.observe(3.0)
        series = registry.snapshot_series(prefix="x.")
        assert series["x.pkts"] == {"type": "counter", "value": 5}
        assert series["x.occ"] == {"type": "gauge", "value": 0.5}
        assert series["x.lat"]["count"] == 1

    def test_merge_is_commutative(self):
        def build(seed):
            registry = MetricsRegistry()
            rng = random.Random(seed)
            for _ in range(50):
                registry.inc(f"c{rng.randrange(4)}", rng.randrange(10))
                registry.histogram("h", STAGE_NS_BUCKETS).observe(rng.uniform(0, 3e4))
            return registry

        ab, ba = MetricsRegistry(), MetricsRegistry()
        ab.merge(build(1)), ab.merge(build(2))
        ba.merge(build(2)), ba.merge(build(1))
        assert ab.counters == ba.counters
        assert ab.histograms["h"].counts == ba.histograms["h"].counts


class TestRebalancerDecisionTelemetry:
    @staticmethod
    def tracker_with(loads):
        n_shards = max(shard for shard, _ in loads) + 1
        tracker = FlowLoadTracker(n_shards=n_shards, alpha=1.0)
        counts, shards = {}, {}
        for index, (shard, rate) in enumerate(loads):
            key = (Address(f"10.1.{shard}.{index + 2}", 6000 + index), index)
            counts[key] = rate
            shards[key] = shard
        tracker.observe_batch(counts, shards)
        return tracker

    def test_counters_and_skew_gauges(self):
        config = RebalancerConfig(trigger_ratio=1.25, target_ratio=1.1)
        planner = ShardRebalancer(2, config)
        balanced = self.tracker_with([(0, 11), (1, 10)])
        assert not planner.plan(balanced)
        assert planner.plans_with_migrations == 0
        assert planner.last_observed_skew == planner.last_projected_skew
        skewed = self.tracker_with([(0, 30), (0, 10), (1, 10)])
        plan = planner.plan(skewed)
        assert plan.migrations
        assert planner.plans_with_migrations == 1
        assert planner.last_observed_skew == plan.observed_skew
        assert planner.last_projected_skew == plan.projected_skew < plan.observed_skew
        assert planner.decision_log == [
            (1, 0, pytest.approx(22 / 21), pytest.approx(22 / 21)),
            (2, len(plan.migrations), plan.observed_skew, plan.projected_skew),
        ]

    def test_decision_log_is_bounded(self):
        planner = ShardRebalancer(2)
        tracker = self.tracker_with([(0, 11), (1, 10)])
        for _ in range(ShardRebalancer.DECISION_LOG_LIMIT + 40):
            planner.plan(tracker)
        assert len(planner.decision_log) == ShardRebalancer.DECISION_LOG_LIMIT
        # newest entries survive; the front rolled off
        assert planner.decision_log[-1][0] == planner.epochs_planned
