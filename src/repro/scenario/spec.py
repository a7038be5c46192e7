"""Declarative workload specifications: what a simulated deployment runs.

A :class:`Scenario` is the single public description of an end-to-end
workload: *which meetings exist* (a heterogeneous tuple of
:class:`MeetingSpec` — sizes, bitrates, frame rates, and per-meeting traffic
models are all first-class, so Zipf meeting populations are a spec, not a
hand-rolled loop), *what happens over time* (a :class:`Schedule` of timed
joins, leaves, and :class:`~repro.netsim.link.LinkProfile` phase changes —
SRMCA's point is that membership and load churn are the normal case, not an
edge case), *which SFU serves it* (a :class:`BackendSpec` unifying the
Scallop / software / cpu-punt choice with shards and the load-aware
rebalancer in one place), and *how media is represented on the
wire* (a :class:`TrafficSpec`: frame bursts, wire-native encoding, RX
moderation).

Specs are immutable values: building one performs no simulation work, so
scenarios can be constructed in tests, serialized into tables, or swept over
without side effects.  :func:`repro.scenario.driver.build_scenario` turns a
spec into a live :class:`~repro.scenario.driver.ScenarioRun`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Tuple, Union

from ..core.capacity import RewriteVariant
from ..dataplane.rebalance import RebalancerConfig
from ..netsim.link import LinkProfile
from ..obs.hooks import ObsConfig

#: Selector for a meeting: its index in :attr:`Scenario.meetings` or its id.
MeetingRef = Union[int, str]
#: Selector for a participant: its per-meeting index or its participant id.
ParticipantRef = Union[int, str]


@dataclass(frozen=True)
class MeetingSpec:
    """One meeting's population and media parameters."""

    participants: int = 3
    meeting_id: Optional[str] = None
    video_bitrate_bps: float = 2_200_000.0
    frame_rate: float = 30.0
    send_audio: bool = True
    send_video: bool = True
    #: Access-link profiles of this meeting's participants (``None`` =
    #: :data:`~repro.netsim.link.DEFAULT_ACCESS_PROFILE`).
    uplink: Optional[LinkProfile] = None
    downlink: Optional[LinkProfile] = None
    #: Cluster placement (``repro.cluster``): home every participant on this
    #: member index (``None`` = the cluster's default placement).
    sfu: Optional[int] = None
    #: Cascade the meeting: participant ``i`` is homed on member
    #: ``cascade[i % len(cascade)]`` — e.g. ``(0, 0, 1, 1)`` splits a
    #: four-party meeting across two boxes joined by an inter-SFU trunk.
    #: Takes precedence over ``sfu``.
    cascade: Optional[Tuple[int, ...]] = None


@dataclass(frozen=True)
class TrafficSpec:
    """Scenario-wide media representation defaults.

    ``frame_bursts`` delivers each video frame as one schedule-preserving
    network burst (the SFU ingests batches); ``wire_native`` makes senders
    serialize each packet exactly once into a packed
    :class:`~repro.rtp.wire.PacketView` buffer.
    """

    frame_bursts: bool = False
    wire_native: bool = False


@dataclass(frozen=True)
class BackendSpec:
    """Which SFU serves the scenario, and how it is configured.

    One place for every backend knob that used to be scattered across
    ``build_scallop_testbed`` / ``build_software_testbed`` kwargs and
    post-hoc pipeline surgery: ``kind`` selects the SFU, the Scallop block
    configures the dataplane (shards and — finally reachable from a
    workload spec — the load-aware rebalancer), and the software block
    configures the split-proxy baseline's CPU model.
    """

    #: ``"scallop"`` — the switch SFU; ``"software"`` (alias ``"cpu-punt"``)
    #: — the split-proxy baseline that pays the CPU cost per packet per copy.
    kind: str = "scallop"
    #: SFU port profile applied to both directions (``None`` = the backend's
    #: default 1 Gbit/s-class port).
    sfu_link: Optional[LinkProfile] = None
    #: Federation size (``repro.cluster``): ``1`` runs the classic single
    #: box; ``n > 1`` builds an :class:`~repro.cluster.SfuCluster` of ``n``
    #: Scallop SFUs joined by inter-SFU trunks, and meetings place/cascade
    #: across members via :attr:`MeetingSpec.sfu` / :attr:`MeetingSpec.cascade`.
    n_sfus: int = 1

    # -- scallop ---------------------------------------------------------------
    rewrite_variant: RewriteVariant = RewriteVariant.S_LR
    adaptation_thresholds_bps: Optional[Tuple[float, float]] = None
    n_shards: int = 1
    #: Arm the telemetry -> policy -> migration placement loop: ``True`` for
    #: defaults, a :class:`~repro.dataplane.rebalance.RebalancerConfig` for
    #: explicit knobs, ``None``/``False`` for static CRC32 placement.
    rebalance: Union[bool, RebalancerConfig, None] = None
    #: Arm the telemetry plane on every datapath shard: ``True`` for the
    #: default :class:`~repro.obs.hooks.ObsConfig`, an explicit config for
    #: custom sampling, ``None``/``False`` to keep the hot path bare.
    obs: Union[bool, ObsConfig, None] = None

    # -- software --------------------------------------------------------------
    cores: int = 1
    #: Pre-built CPU model (overrides ``cores``), e.g. a calibrated
    #: :class:`~repro.baseline.cpu.CpuPool` for overload experiments.
    cpu: Optional[object] = None
    #: Decode-target selection policy (``None`` = the paper's default).
    select_fn: Optional[Callable] = None

    def __post_init__(self) -> None:
        kind = self.kind
        if kind == "cpu-punt":
            object.__setattr__(self, "kind", "software")
        elif kind not in ("scallop", "software"):
            raise ValueError(f"unknown backend kind: {kind!r}")
        if self.n_sfus < 1:
            raise ValueError(f"BackendSpec.n_sfus must be >= 1, got {self.n_sfus}")
        if self.n_sfus > 1 and self.kind != "scallop":
            raise ValueError("multi-SFU federation requires the scallop backend")

    @classmethod
    def cluster(cls, n_sfus: int = 2, **kwargs) -> "BackendSpec":
        """A federation of ``n_sfus`` Scallop boxes in one netsim."""
        return cls(kind="scallop", n_sfus=n_sfus, **kwargs)

    def rebalance_config(self) -> Optional[RebalancerConfig]:
        """The effective rebalancer config, or ``None`` when disarmed."""
        if self.rebalance is True:
            return RebalancerConfig()
        if isinstance(self.rebalance, RebalancerConfig):
            return self.rebalance
        return None


# --------------------------------------------------------------------------- schedule events


@dataclass(frozen=True)
class JoinEvent:
    """A participant joins ``meeting`` at ``at_s`` (created on the fly)."""

    at_s: float
    meeting: MeetingRef
    participant_index: Optional[int] = None


@dataclass(frozen=True)
class LeaveEvent:
    """``participant`` leaves ``meeting`` at ``at_s`` (full teardown: media
    stops, the endpoint detaches, and the SFU releases the participant's
    table/PRE/register state and accountant charges)."""

    at_s: float
    meeting: MeetingRef
    participant: ParticipantRef


@dataclass(frozen=True)
class LinkEvent:
    """A link-profile phase change on one participant's access links."""

    at_s: float
    meeting: MeetingRef
    participant: ParticipantRef
    uplink: Optional[LinkProfile] = None
    downlink: Optional[LinkProfile] = None


@dataclass(frozen=True)
class MigrateEvent:
    """Migrate ``meeting`` onto cluster member ``to_sfu`` at ``at_s``.

    Cross-SFU live migration (``repro.cluster``): snapshot at a batch
    boundary, move the clients, adopt the versioned rewriter/decode-target
    snapshot on the destination, drain stragglers over the trunk.  Only
    meaningful on a ``n_sfus > 1`` backend.
    """

    at_s: float
    meeting: MeetingRef
    to_sfu: int


ScenarioEvent = Union[JoinEvent, LeaveEvent, LinkEvent, MigrateEvent]


@dataclass(frozen=True)
class Schedule:
    """A timed event script executed against the simulator by the driver.

    Immutable fluent builder: every helper returns a new schedule with the
    event appended, so phases compose: ``Schedule().join(2.0, 0).leave(5.0,
    0, 1).set_link(8.0, 0, 2, downlink=congested)``.
    """

    events: Tuple[ScenarioEvent, ...] = ()

    def join(
        self, at_s: float, meeting: MeetingRef, participant_index: Optional[int] = None
    ) -> "Schedule":
        return Schedule(self.events + (JoinEvent(at_s, meeting, participant_index),))

    def leave(self, at_s: float, meeting: MeetingRef, participant: ParticipantRef) -> "Schedule":
        return Schedule(self.events + (LeaveEvent(at_s, meeting, participant),))

    def set_link(
        self,
        at_s: float,
        meeting: MeetingRef,
        participant: ParticipantRef,
        uplink: Optional[LinkProfile] = None,
        downlink: Optional[LinkProfile] = None,
    ) -> "Schedule":
        return Schedule(self.events + (LinkEvent(at_s, meeting, participant, uplink, downlink),))

    def migrate(self, at_s: float, meeting: MeetingRef, to_sfu: int) -> "Schedule":
        return Schedule(self.events + (MigrateEvent(at_s, meeting, to_sfu),))

    def extend(self, *events: ScenarioEvent) -> "Schedule":
        return Schedule(self.events + tuple(events))

    def __bool__(self) -> bool:
        return bool(self.events)

    def __len__(self) -> int:
        return len(self.events)


# --------------------------------------------------------------------------- the scenario


@dataclass(frozen=True)
class Scenario:
    """A complete declarative workload: population + schedule + backend.

    ``meetings`` is the initial population (heterogeneous specs welcome);
    ``schedule`` mutates it over time; ``default_meeting`` is the template
    used when a scheduled (or imperative) join targets a meeting the spec
    did not declare — which is how open-ended populations (the overload
    sweep's incremental joins) stay declarative.
    """

    meetings: Tuple[MeetingSpec, ...] = ()
    backend: BackendSpec = field(default_factory=BackendSpec)
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    schedule: Schedule = field(default_factory=Schedule)
    duration_s: float = 30.0
    seed: int = 1
    name: str = "scenario"
    #: Template for meetings created dynamically by join events.
    default_meeting: Optional[MeetingSpec] = None

    @classmethod
    def uniform(
        cls,
        num_meetings: int,
        participants_per_meeting: Optional[int] = None,
        meeting: Optional[MeetingSpec] = None,
        **kwargs,
    ) -> "Scenario":
        """The classic flat population: ``num_meetings`` identical meetings.

        ``participants_per_meeting`` overrides the template's size only when
        given — a template that already carries its population is respected.
        """
        template = meeting or MeetingSpec()
        if participants_per_meeting is not None:
            template = replace(template, participants=participants_per_meeting)
        return cls(meetings=tuple(template for _ in range(num_meetings)), **kwargs)


def zipf_meetings(
    count: int,
    largest: int = 10,
    exponent: float = 0.6,
    floor: int = 2,
    meeting: Optional[MeetingSpec] = None,
) -> Tuple[MeetingSpec, ...]:
    """A Zipf-distributed meeting-size population as a first-class spec.

    Meeting ``rank`` gets ``max(floor, round(largest / (rank + 1) ** s))``
    participants — the heterogeneous population the mega-meeting sweep used
    to hand-roll, now composable with any backend/schedule.
    """
    template = meeting or MeetingSpec()
    return tuple(
        replace(template, participants=max(floor, round(largest / (rank + 1) ** exponent)))
        for rank in range(count)
    )
