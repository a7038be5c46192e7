"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The design point is the hot path of a disabled registry: instrumented code
holds one optional reference (``self.obs``) and pays a single attribute load
plus branch when observability is off.  When it is on, every event costs
integer adds — counter bumps are dict adds, histogram observes are one
``bisect`` into a small tuple of bounds plus three adds.  Nothing here reads
a clock or an RNG: values and timestamps are handed in by the caller, which
in simulation code means they came from ``Simulator.now`` (archlint's
determinism rule covers this module like any other ``repro.*`` module).

Histograms are Prometheus-shaped: a tuple of upper bounds, one count per
``value <= bound`` bucket plus an overflow bucket, a running sum, and a
total count.  Merging two histograms with identical bounds is element-wise
integer addition — commutative and associative, which is what lets a
snapshot fold per-shard registries in any order and still come out
identical for every shard count.

Two percentile estimators live on :class:`Histogram`:

``percentile``
    Standard bucket interpolation for fixed-bound histograms (the hot-path
    kind): linear within the bucket that spans the target rank.

``sample_percentile``
    For histograms built via :meth:`Histogram.from_samples`, whose bounds
    *are* the distinct sample values (all mass sits exactly on a bound).
    This reproduces linear interpolation over the order statistics —
    bit-identical to :func:`repro.analysis.metrics.percentile` — so summary
    paths re-expressed through histogram bucketing cannot drift from the
    exact-sample path.
"""

from __future__ import annotations

from bisect import bisect_left
from math import ceil, floor
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "LATENCY_MS_BUCKETS",
    "SIZE_BYTES_BUCKETS",
    "STAGE_NS_BUCKETS",
]

#: End-to-end / one-way latency in milliseconds.
LATENCY_MS_BUCKETS: Tuple[float, ...] = (
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
)

#: Packet sizes in bytes.
SIZE_BYTES_BUCKETS: Tuple[float, ...] = (
    64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0, 16384.0, 65536.0,
)

#: Per-packet pipeline stage durations in nanoseconds (fractions of the
#: 12 us switch forwarding delay).
STAGE_NS_BUCKETS: Tuple[float, ...] = (
    250.0, 500.0, 1000.0, 2000.0, 4000.0, 6000.0, 8000.0, 12000.0, 16000.0, 24000.0,
)


class Histogram:
    """Fixed-bucket histogram with integer bucket counts.

    ``counts`` has ``len(bounds) + 1`` slots: bucket ``i`` counts values
    ``<= bounds[i]`` (and above the previous bound); the final slot is the
    overflow bucket for values above every bound.
    """

    __slots__ = ("bounds", "counts", "count", "sum")

    def __init__(self, bounds: Sequence[float]) -> None:
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        ordered = tuple(float(bound) for bound in bounds)
        if any(b >= a for b, a in zip(ordered, ordered[1:])):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bounds: Tuple[float, ...] = ordered
        self.counts: List[int] = [0] * (len(ordered) + 1)
        self.count: int = 0
        self.sum: float = 0.0

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "Histogram":
        """A point-mass histogram whose bounds are the distinct samples.

        Every bucket's mass sits exactly on its upper bound, which is what
        makes :meth:`sample_percentile` exact.
        """
        if not samples:
            raise ValueError("cannot build a histogram from zero samples")
        histogram = cls(sorted(set(float(sample) for sample in samples)))
        for sample in samples:
            histogram.observe(sample)
        return histogram

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds!r} vs {other.bounds!r}"
            )
        counts = self.counts
        for index, value in enumerate(other.counts):
            counts[index] += value
        self.count += other.count
        self.sum += other.sum

    # -- estimators ---------------------------------------------------------

    def percentile(self, q: float) -> float:
        """Bucket-interpolated percentile; 0.0 on an empty histogram."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be between 0 and 100")
        if self.count == 0:
            return 0.0
        target = (q / 100.0) * self.count
        cumulative = 0
        bounds = self.bounds
        for index, bucket_count in enumerate(self.counts):
            previous = cumulative
            cumulative += bucket_count
            if bucket_count and cumulative >= target:
                lower = bounds[index - 1] if index > 0 else 0.0
                upper = bounds[index] if index < len(bounds) else bounds[-1]
                fraction = (target - previous) / bucket_count
                if fraction < 0.0:
                    fraction = 0.0
                elif fraction > 1.0:
                    fraction = 1.0
                return lower + (upper - lower) * fraction
        return bounds[-1]

    def sample_percentile(self, q: float) -> float:
        """Exact percentile for point-mass histograms (see class docstring).

        Interpolates linearly over the order statistics, treating bucket
        ``i`` as ``counts[i]`` samples all equal to ``bounds[i]`` — the
        invariant :meth:`from_samples` establishes.  Matches
        :func:`repro.analysis.metrics.percentile` exactly.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be between 0 and 100")
        if self.count == 0:
            raise ValueError("cannot take the percentile of an empty histogram")
        if self.counts[-1]:
            raise ValueError("sample_percentile requires a point-mass histogram (no overflow)")
        if self.count == 1:
            for index, bucket_count in enumerate(self.counts[:-1]):
                if bucket_count:
                    return self.bounds[index]
        rank = (q / 100.0) * (self.count - 1)
        low = int(floor(rank))
        high = int(ceil(rank))
        low_value = self._value_at(low)
        if low == high:
            return low_value
        weight = rank - low
        return low_value * (1.0 - weight) + self._value_at(high) * weight

    def _value_at(self, rank: int) -> float:
        """The ``rank``-th order statistic (0-indexed) of a point-mass histogram."""
        cumulative = 0
        for index, bucket_count in enumerate(self.counts[:-1]):
            cumulative += bucket_count
            if rank < cumulative:
                return self.bounds[index]
        return self.bounds[-1]

    # -- export -------------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        return {
            "type": "histogram",
            "buckets": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }


class MetricsRegistry:
    """Namespaced counters, gauges, and histograms with commutative merge.

    Counters and gauges are plain dict slots (an add / a store per event);
    histograms are shared :class:`Histogram` objects handed out once via
    :meth:`histogram` so hot-path call sites keep a direct reference and pay
    no dict lookup per observe.
    """

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    def inc(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def histogram(self, name: str, bounds: Sequence[float]) -> Histogram:
        existing = self.histograms.get(name)
        if existing is not None:
            if existing.bounds != tuple(float(bound) for bound in bounds):
                raise ValueError(f"histogram {name!r} re-registered with different bounds")
            return existing
        created = Histogram(bounds)
        self.histograms[name] = created
        return created

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry.

        Counters and gauges add; histograms merge bucket-wise (created here
        with the other side's bounds when absent).  Addition makes the fold
        commutative and associative, so snapshot-time folds are independent
        of shard order — the shard-count-invariance contract.
        """
        counters = self.counters
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + value
        gauges = self.gauges
        for name, value in other.gauges.items():
            gauges[name] = gauges.get(name, 0.0) + value
        for name, histogram in other.histograms.items():
            self.histogram(name, histogram.bounds).merge(histogram)

    # -- export -------------------------------------------------------------

    def snapshot_series(self, prefix: str = "") -> Dict[str, Dict[str, object]]:
        series: Dict[str, Dict[str, object]] = {}
        for name, value in self.counters.items():
            series[prefix + name] = {"type": "counter", "value": value}
        for name, value in self.gauges.items():
            series[prefix + name] = {"type": "gauge", "value": value}
        for name, histogram in self.histograms.items():
            series[prefix + name] = histogram.as_dict()
        return series
