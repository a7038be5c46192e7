"""Load-aware shard placement policy: skew in, migration plans out.

This is the *policy* leg of the telemetry -> policy -> migration control loop.
:class:`~repro.dataplane.loadstats.FlowLoadTracker` supplies smoothed per-flow
and per-shard packet rates; this module turns observed skew into an explicit
:class:`MigrationPlan` — a list of ``flow -> shard`` moves — that the sharded
engine executes at the next batch boundary
(:meth:`~repro.dataplane.sharding.ShardedScallopPipeline.apply_migrations`).
The policy never touches engine state itself, so it is trivially unit-testable.

The algorithm is **greedy hottest-flow-to-coldest-shard**: while the plan's
projected load still leaves the hottest shard above target, take the hottest
movable flow on the (projected) hottest shard and move it to the (projected)
coldest shard.  Greedy is the right tool here: placements are re-decided every
epoch against fresh telemetry, so an optimal one-shot bin packing would be
stale by its second epoch anyway, and greedy's worst case (a flow bigger than
the per-shard mean, which no placement can fix) is detected and skipped.

Stability knobs (all on :class:`RebalancerConfig`) — rebalancers oscillate
unless they are deliberately damped, so every decision is gated three ways:

``trigger_ratio`` / ``target_ratio`` (hysteresis)
    The planner does nothing until max/mean per-shard load exceeds
    ``trigger_ratio`` (the high-water mark), and once planning it stops as
    soon as the projected ratio falls below ``target_ratio`` (the low-water
    mark, strictly smaller).  The gap between the two is the hysteresis band:
    a system balanced to ``target_ratio`` must drift all the way past
    ``trigger_ratio`` before the planner acts again, so borderline skew
    cannot cause migration every epoch.

``migration_budget`` (churn bound per epoch)
    At most this many flows move per plan.  Each migration invalidates the
    engine's flow-routing cache — bounded churn keeps that cost strictly
    amortized.  Whatever skew the budget leaves behind is picked up next
    epoch, by which time the telemetry has also seen the effect of this
    epoch's moves.

``cooldown_epochs`` (per-flow damping)
    A flow that just moved may not move again for this many epochs.  Without
    it, two near-equal hot flows can ping-pong between two shards on
    alternating epochs while the EWMA catches up with their last move.

``min_flow_rate``
    Flows below this smoothed rate are never moved: their contribution is
    noise-level, and migrating them spends budget without moving load.

``egress_weight``
    How strongly a flow's *replica fan-out* counts toward its load.  Packet
    rate alone under-weights senders in big meetings: a 10-participant
    meeting costs ~3x the egress replication of a 3-participant one at equal
    ingress rate.  The telemetry tracks a per-flow egress EWMA
    (:attr:`~repro.dataplane.loadstats.FlowLoadRow.egress_rate`, fed from the
    replicas each batch actually produced), and every planning quantity —
    shard loads, trigger/target ratios, flow ranking, the hot/cold gap — uses
    ``rate + egress_weight * egress_rate``, so the policy balances the work
    the SFU performs (egress replication), not just ingress packet counts.
    ``0.0`` restores pure ingress-rate balancing.

Every decision is projected, not measured: within one plan the planner moves
flows against its own running projection of per-shard load, so a single plan
cannot overshoot by moving three hot flows onto the same cold shard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .loadstats import FlowKey, FlowLoadTracker


@dataclass(frozen=True)
class RebalancerConfig:
    """Knobs of the placement policy (see the module docstring for rationale)."""

    #: Decide placements every this many observed batches.
    epoch_batches: int = 8
    #: High-water mark: plan only when max/mean shard load exceeds this.
    trigger_ratio: float = 1.25
    #: Low-water mark: stop moving once the projected ratio falls below this.
    target_ratio: float = 1.10
    #: Maximum flows migrated per epoch.
    migration_budget: int = 4
    #: Epochs a freshly migrated flow is pinned before it may move again.
    cooldown_epochs: int = 2
    #: Smoothed load units below which a flow is never worth moving.
    min_flow_rate: float = 0.5
    #: EWMA smoothing factor handed to the telemetry tracker.
    ewma_alpha: float = 0.3
    #: Weight of a flow's egress replica fan-out in its load contribution
    #: (``weight = rate + egress_weight * egress_rate``); 0 = ingress only.
    egress_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.epoch_batches < 1:
            raise ValueError("epoch_batches must be >= 1")
        if not self.target_ratio >= 1.0:
            raise ValueError("target_ratio must be >= 1.0")
        if self.trigger_ratio <= self.target_ratio:
            raise ValueError("trigger_ratio must exceed target_ratio (hysteresis band)")
        if self.migration_budget < 1:
            raise ValueError("migration_budget must be >= 1")
        if self.egress_weight < 0.0:
            raise ValueError("egress_weight must be >= 0 (0 = ingress-only balancing)")


@dataclass(frozen=True)
class FlowMigration:
    """One planned move: ``flow`` leaves ``from_shard`` for ``to_shard``."""

    flow: FlowKey
    from_shard: int
    to_shard: int
    #: Smoothed load units (packets + weighted egress replicas per batch)
    #: the move transfers (diagnostics).
    rate: float


@dataclass
class MigrationPlan:
    """The policy's output for one epoch."""

    migrations: List[FlowMigration] = field(default_factory=list)
    #: max/mean shard-load ratio the plan was computed against.
    observed_skew: float = 1.0
    #: Projected max/mean ratio after all planned moves execute.
    projected_skew: float = 1.0

    def __bool__(self) -> bool:
        return bool(self.migrations)


class ShardRebalancer:
    """Greedy hottest-flow-to-coldest-shard planner with hysteresis."""

    #: Retained decision-log entries; epochs beyond this roll off the front.
    DECISION_LOG_LIMIT = 256

    def __init__(self, n_shards: int, config: Optional[RebalancerConfig] = None) -> None:
        self.n_shards = n_shards
        self.config = config or RebalancerConfig()
        self.epochs_planned = 0
        self.flows_migrated = 0
        #: Epochs whose plan actually contained moves (vs. hysteresis no-ops).
        self.plans_with_migrations = 0
        #: Skew the most recent plan observed / projected (telemetry gauges).
        self.last_observed_skew = 1.0
        self.last_projected_skew = 1.0
        #: Bounded per-epoch decision trail: ``(epoch, moves, observed skew,
        #: projected skew)`` tuples, newest last.
        self.decision_log: List[Tuple[int, int, float, float]] = []

    def plan(self, tracker: FlowLoadTracker) -> MigrationPlan:
        """Compute this epoch's migrations from the tracker's smoothed rates.

        Pure function of the telemetry (plus the planner's own tallies): it
        mutates no engine state and returns an empty plan whenever the skew
        sits inside the hysteresis band or nothing movable would improve it.
        """
        config = self.config
        self.epochs_planned += 1
        # loads are egress-weighted: a shard hosting few-but-fanned-out flows
        # ranks as hot even when its ingress packet rate looks moderate
        loads = tracker.shard_weights(config.egress_weight)
        total = sum(loads)
        if self.n_shards >= 2 and total > 0.0:
            observed = max(loads) / (total / self.n_shards)
        else:
            observed = 1.0
        plan = MigrationPlan(observed_skew=observed, projected_skew=observed)
        if self.n_shards < 2 or total <= 0.0:
            return self._note_decision(plan)
        mean = total / self.n_shards
        if max(loads) / mean <= config.trigger_ratio:
            # inside the hysteresis band: leave placement alone
            return self._note_decision(plan)

        cooldown_floor = tracker.batches_observed - config.cooldown_epochs * config.epoch_batches
        moved: set = set()
        for _ in range(config.migration_budget):
            hot = max(range(self.n_shards), key=loads.__getitem__)
            cold = min(range(self.n_shards), key=loads.__getitem__)
            if loads[hot] / mean <= config.target_ratio:
                break  # reached the low-water mark: stop early
            candidate = self._best_move(tracker, hot, cold, loads, moved, cooldown_floor)
            if candidate is None:
                break  # nothing movable improves the projection
            key, rate = candidate
            loads[hot] -= rate
            loads[cold] += rate
            moved.add(key)
            plan.migrations.append(
                FlowMigration(flow=key, from_shard=hot, to_shard=cold, rate=rate)
            )
        plan.projected_skew = max(loads) / mean
        self.flows_migrated += len(plan.migrations)
        if plan.migrations:
            self.plans_with_migrations += 1
        return self._note_decision(plan)

    def _note_decision(self, plan: MigrationPlan) -> MigrationPlan:
        """Record the epoch's outcome (bounded) and pass the plan through."""
        self.last_observed_skew = plan.observed_skew
        self.last_projected_skew = plan.projected_skew
        log = self.decision_log
        log.append(
            (self.epochs_planned, len(plan.migrations), plan.observed_skew, plan.projected_skew)
        )
        if len(log) > self.DECISION_LOG_LIMIT:
            del log[: len(log) - self.DECISION_LOG_LIMIT]
        return plan

    def _best_move(
        self,
        tracker: FlowLoadTracker,
        hot: int,
        cold: int,
        loads: Sequence[float],
        moved: set,
        cooldown_floor: int,
    ) -> Optional[Tuple[FlowKey, float]]:
        """The heaviest flow on ``hot`` whose move to ``cold`` shrinks the gap.

        A move only helps while the transferred load is smaller than the
        hot/cold gap; moving more than the gap just relabels which shard
        is hot (the ping-pong the cooldown also guards against).  Flows still
        in cooldown, below the noise floor, or already moved this epoch are
        skipped.  Load is the egress-weighted flow weight, so the planner
        prefers moving a big meeting's sender over an equally chatty sender
        whose fan-out is small.
        """
        gap = loads[hot] - loads[cold]
        if gap <= 0.0:
            return None
        egress_weight = self.config.egress_weight
        for key, row in tracker.hottest_flows(
            hot, min_rate=self.config.min_flow_rate, egress_weight=egress_weight
        ):
            if key in moved:
                continue
            if row.last_migrated_batch >= cooldown_floor and row.last_migrated_batch >= 0:
                continue
            weight = row.weight(egress_weight)
            if weight < gap:  # strictly shrinks the hot/cold gap
                return key, weight
        return None
