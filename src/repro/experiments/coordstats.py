"""Stage profile for the sharded coordinator (`CoordinatorStats`).

The sharded engine's batch loop has a fixed stage structure: partition the
burst by flow, dispatch the partitions to their shards, and reassemble the
per-shard results into input order.  Partition and reassemble are the cost of
sharding itself; dispatch is the datapath work.

:class:`CoordinatorStats` accumulates per-batch wall time of each stage.  It
lives in the experiments namespace on purpose: the clock
(``time.perf_counter_ns``) is measurement apparatus, not model behaviour, and
the architecture checker exempts ``repro.experiments`` from the determinism
rule.  The engine never calls the clock itself — it goes through
``stats.clock()``, the sanctioned accounting surface, and only when a profile
object is attached (``engine.coordinator_stats``); the default data path has
no timing instrumentation at all.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

from ..obs.registry import BATCH_NS_BUCKETS, Histogram

#: Stage names in coordinator-loop order (also the display order).
STAGES = ("partition", "dispatch", "reassemble")


class CoordinatorStats:
    """Per-stage wall-time accumulator for the sharded coordinator loop."""

    __slots__ = (
        "clock",
        "batches",
        "packets",
        "partition_ns",
        "dispatch_ns",
        "reassemble_ns",
        "stage_hists",
    )

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.batches = 0
        self.packets = 0
        self.partition_ns = 0
        self.dispatch_ns = 0
        self.reassemble_ns = 0
        #: Per-stage per-batch duration distributions behind the scalar
        #: totals (one bisect per batch per stage when profiling is on).
        self.stage_hists: Dict[str, Histogram] = {
            stage: Histogram(BATCH_NS_BUCKETS) for stage in STAGES
        }

    def note_batch(self, packets: int) -> None:
        """Count one coordinated batch of ``packets`` ingress packets."""
        self.batches += 1
        self.packets += packets

    def note_stage(self, stage: str, ns: int) -> None:
        """Charge ``ns`` of coordinator wall time to ``stage``: adds to the
        scalar total and observes the per-batch histogram (the telemetry bus
        reads that)."""
        setattr(self, stage + "_ns", getattr(self, stage + "_ns") + ns)
        self.stage_hists[stage].observe(float(ns))

    # ------------------------------------------------------------------ derived

    def stage_ns(self) -> Dict[str, int]:
        return {
            "partition": self.partition_ns,
            "dispatch": self.dispatch_ns,
            "reassemble": self.reassemble_ns,
        }

    def snapshot_series(self, prefix: str = "repro.coord.") -> Dict[str, Dict[str, object]]:
        """Bus-ready series under ``repro.coord.*``: scalar stage totals as
        counters plus the per-batch stage-duration histograms."""
        series: Dict[str, Dict[str, object]] = {
            prefix + "batches": {"type": "counter", "value": self.batches},
            prefix + "packets": {"type": "counter", "value": self.packets},
        }
        for name, ns in self.stage_ns().items():
            series[prefix + name + "_ns"] = {"type": "counter", "value": ns}
        for name, histogram in self.stage_hists.items():
            series[prefix + "stage_ns." + name] = histogram.as_dict()
        return series

    def format_table(self) -> str:
        """Human-readable stage table (the ``--profile`` output)."""
        packets = self.packets
        lines = [
            f"coordinator stage profile ({self.batches} batches, {packets} packets)",
            f"{'stage':<12}{'total ms':>12}{'ns/packet':>12}",
        ]
        for name, ns in self.stage_ns().items():
            per_packet = ns / packets if packets else 0.0
            lines.append(f"{name:<12}{ns / 1e6:>12.3f}{per_packet:>12.0f}")
        return "\n".join(lines)
