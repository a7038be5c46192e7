"""Figures 15, 16, 17: Scallop's scalability vs. a 32-core software SFU.

These experiments are analytic: they evaluate the capacity formulas of
:mod:`repro.core.capacity` (which mirror §6.1/§6.2 of the paper and are
validated against the PRE/pipeline model by the test suite) across meeting
sizes and sender mixes, and report the paper's headline numbers:

* Figure 15 — the 7-210x improvement band over a 32-core server,
* Figure 16 — best/worst-case supported meetings for both systems, and
* Figure 17 — the per-design / per-bottleneck capacity lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.capacity import (
    DesignSpacePoint,
    ImprovementPoint,
    MeetingShape,
    MinMaxPoint,
    ReplicationDesign,
    RewriteVariant,
    ScallopCapacityModel,
    SoftwareSfuCapacityModel,
    figure15_series,
    figure16_series,
    figure17_series,
)

DEFAULT_PARTICIPANT_RANGE = [2, 3, 5, 10, 15, 20, 25, 30, 40, 50, 60, 70, 80, 90, 100]


@dataclass(frozen=True)
class ScalabilityHeadline:
    """The headline numbers quoted in the paper's abstract and §7.2."""

    improvement_min: float
    improvement_max: float
    nra_meetings: float
    ra_r_meetings: float
    ra_sr_meetings_10_participants: float
    two_party_meetings: float
    software_two_party_meetings: float
    software_10_party_meetings: float


def run_improvement_sweep(
    participant_range: Optional[Sequence[int]] = None,
) -> List[ImprovementPoint]:
    """Figure 15: improvement band over a 32-core server vs. meeting size."""
    return figure15_series(list(participant_range or DEFAULT_PARTICIPANT_RANGE))


def run_minmax_sweep(participant_range: Optional[Sequence[int]] = None) -> List[MinMaxPoint]:
    """Figure 16: best/worst-case supported meetings for Scallop and software."""
    return figure16_series(list(participant_range or DEFAULT_PARTICIPANT_RANGE))


def run_design_space_sweep(
    participant_range: Optional[Sequence[int]] = None,
) -> List[DesignSpacePoint]:
    """Figure 17: per-design and per-bottleneck capacity lines."""
    return figure17_series(list(participant_range or DEFAULT_PARTICIPANT_RANGE))


def headline_numbers() -> ScalabilityHeadline:
    """The scalar results the paper quotes (128K / 42.7K / 4.3K / 533K / 7-210x)."""
    scallop = ScallopCapacityModel()
    software = SoftwareSfuCapacityModel()
    ten_party = MeetingShape(participants=10)
    two_party = MeetingShape(participants=2)
    improvements = run_improvement_sweep()
    return ScalabilityHeadline(
        improvement_min=min(point.improvement_min for point in improvements),
        improvement_max=max(point.improvement_max for point in improvements),
        nra_meetings=scallop.max_meetings_nra(ten_party),
        ra_r_meetings=scallop.max_meetings_ra_r(ten_party),
        ra_sr_meetings_10_participants=scallop.max_meetings_ra_sr(ten_party),
        two_party_meetings=scallop.max_meetings_two_party(two_party),
        software_two_party_meetings=software.max_meetings(two_party),
        software_10_party_meetings=software.max_meetings(ten_party),
    )


def format_headline(headline: ScalabilityHeadline) -> str:
    return "\n".join(
        [
            "Scallop scalability headlines:",
            f"  NRA meetings:                {headline.nra_meetings:,.0f} (paper: 128K)",
            f"  RA-R meetings:               {headline.ra_r_meetings:,.0f} (paper: 42.7K)",
            f"  RA-SR meetings (10 parts):   {headline.ra_sr_meetings_10_participants:,.0f} (paper: 4.3K)",
            f"  two-party meetings:          {headline.two_party_meetings:,.0f} (paper: 533K)",
            f"  software two-party meetings: {headline.software_two_party_meetings:,.0f} (paper: 4.8K)",
            f"  software 10-party meetings:  {headline.software_10_party_meetings:,.0f} (paper: 192)",
            f"  improvement range:           {headline.improvement_min:.1f}x - {headline.improvement_max:.0f}x"
            " (paper: 7-210x)",
        ]
    )


def format_design_space(points: Sequence[DesignSpacePoint]) -> str:
    lines = [
        f"{'N':>5}{'NRA':>12}{'RA-R':>12}{'RA-SR':>12}{'S-LM':>12}{'S-LR':>12}{'BW':>12}{'SW':>12}"
    ]
    for point in points:
        lines.append(
            f"{point.participants:>5}{point.nra:>12.0f}{point.ra_r:>12.0f}{point.ra_sr:>12.0f}"
            f"{point.s_lm:>12.0f}{point.s_lr:>12.0f}{point.bandwidth:>12.0f}{point.software:>12.1f}"
        )
    return "\n".join(lines)
