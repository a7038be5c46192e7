"""Tofino-like programmable data-plane model (parser, tables, PRE, pipeline)."""

from .resources import (
    DEFAULT_CAPACITIES,
    ResourceAccountant,
    ResourceExhausted,
    ResourceUsage,
    TofinoCapacities,
    table3_rows,
)
from .tables import ExactMatchTable, IndexAllocator, RegisterArray, TableFull
from .pre import L1Node, L2Port, MulticastTree, PacketReplicationEngine, Replica
from .parser import IngressParser, PacketClass, ParseResult
from .pipeline import (
    AdaptationEntry,
    FeedbackRule,
    ForwardingMode,
    PipelineControlPlane,
    PipelineCounters,
    PipelineDatapath,
    PipelineResult,
    ReplicaTarget,
    ScallopPipeline,
    SequenceRewriter,
    StreamForwardingEntry,
    SWITCH_FORWARDING_DELAY_S,
)
from .loadstats import FlowLoadRow, FlowLoadTracker
from .rebalance import FlowMigration, MigrationPlan, RebalancerConfig, ShardRebalancer
from .sanitize import IsolationLog, IsolationViolation, ShardIsolationError
from .sharding import ShardedScallopPipeline, flow_shard

__all__ = [
    "DEFAULT_CAPACITIES",
    "ResourceAccountant",
    "ResourceExhausted",
    "ResourceUsage",
    "TofinoCapacities",
    "table3_rows",
    "ExactMatchTable",
    "IndexAllocator",
    "RegisterArray",
    "TableFull",
    "L1Node",
    "L2Port",
    "MulticastTree",
    "PacketReplicationEngine",
    "Replica",
    "IngressParser",
    "PacketClass",
    "ParseResult",
    "AdaptationEntry",
    "FeedbackRule",
    "ForwardingMode",
    "PipelineControlPlane",
    "PipelineCounters",
    "PipelineDatapath",
    "PipelineResult",
    "ReplicaTarget",
    "ScallopPipeline",
    "SequenceRewriter",
    "FlowLoadRow",
    "FlowLoadTracker",
    "FlowMigration",
    "IsolationLog",
    "IsolationViolation",
    "ShardIsolationError",
    "MigrationPlan",
    "RebalancerConfig",
    "ShardRebalancer",
    "ShardedScallopPipeline",
    "StreamForwardingEntry",
    "SWITCH_FORWARDING_DELAY_S",
    "flow_shard",
]
