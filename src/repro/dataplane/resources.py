"""Tofino resource model: capacities, per-feature usage, and Table 3 output.

The reproduction cannot run P4 on an ASIC, but the paper's scalability results
(§6.3, §7.2, Table 3, Figures 15-17) are *arithmetic over documented hardware
capacities*.  This module centralizes those capacities and the usage accounting
so that both the behavioural pipeline model and the analytic capacity models in
:mod:`repro.core.capacity` draw from a single source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class TofinoCapacities:
    """Hardware capacities of the Tofino2 target used in the paper."""

    #: Multicast trees (multicast group ids, "T" in the paper).
    max_multicast_trees: int = 65_536
    #: Total level-1 nodes across the PRE (2^24).
    max_l1_nodes: int = 16_777_216
    #: Replication ids available per tree.
    max_rids_per_tree: int = 65_536
    #: Register cells per stream-tracker table; with control-plane managed,
    #: collision-free indices all cells are usable (paper §6.3).
    stream_tracker_cells: int = 65_536
    #: Exact-match (SRAM) entries available to the address-rewrite tables.
    exact_match_entries: int = 1_066_000
    #: Total switching capacity in bits per second (12.8 Tbit/s Tofino2).
    switch_bandwidth_bps: float = 12.8e12
    #: Number of front-panel ports (used only for sanity checks).
    num_ports: int = 64
    #: Ingress/egress pipeline stages available.
    max_stages_ingress: int = 20
    max_stages_egress: int = 20
    #: Maximum parser depth (header bytes reachable), per paper Appendix E the
    #: program uses depth 27 in ingress.
    max_parse_depth: int = 32

    #: Meetings aggregated into one replication tree in the NRA design ("m").
    meetings_per_tree: int = 2
    #: Number of media qualities / decode targets ("q", L1T3 -> 3): the
    #: per-layer trees of an RA-R / RA-SR meeting.
    num_qualities: int = 3


DEFAULT_CAPACITIES = TofinoCapacities()


@dataclass(frozen=True)
class ResourceUsage:
    """One row of Table 3: a resource, its scaling class, and utilization."""

    resource: str
    scaling: str              # "fixed" | "linear" | "quadratic"
    peak_campus_load: str     # utilization under peak campus load
    max_utilization: str      # utilization at maximum supported load


#: Fixed-scaling utilization percentages reported in Table 3 of the paper.
#: These come from the P4 compiler report of the authors' program; we reuse
#: them verbatim as the model's per-feature footprint so that the pipeline
#: model can refuse configurations that would not fit on real hardware.
TABLE3_FIXED_USAGE: Dict[str, float] = {
    "PHV containers": 17.9,
    "Exact xbars": 5.66,
    "Ternary xbars": 2.52,
    "Hash bits": 4.62,
    "Hash dist. units": 6.94,
    "VLIW instr.": 7.29,
    "Logical table ID": 21.87,
    "SRAM": 6.77,
    "TCAM": 1.38,
}

PARSING_DEPTH_USED = {"ingress": 27, "egress": 7}
STAGES_USED = {"ingress": 7, "egress": 5}


class ResourceAccountant:
    """Tracks dynamic resource consumption of a running Scallop data plane.

    Fixed resources (stages, PHV, crossbars, ...) are attributes of the
    compiled program and do not change with load; dynamic resources (trees,
    L1 nodes, stream-tracker cells, SRAM entries, egress throughput) grow with
    the number of meetings/participants and are tracked here.  The ledger is
    exact: a release of more than is in use raises :class:`ValueError` and
    changes nothing, so a double release cannot hide behind a clamp.
    """

    def __init__(self, capacities: TofinoCapacities = DEFAULT_CAPACITIES) -> None:
        self.capacities = capacities
        self.trees_allocated = 0
        self.l1_nodes_allocated = 0
        self.stream_tracker_cells_used = 0
        self.exact_match_entries_used = 0
        self.egress_bps = 0.0

    # -- allocation hooks -------------------------------------------------------

    def allocate_tree(self, l1_nodes: int) -> None:
        if self.trees_allocated + 1 > self.capacities.max_multicast_trees:
            raise ResourceExhausted("multicast trees exhausted")
        if self.l1_nodes_allocated + l1_nodes > self.capacities.max_l1_nodes:
            raise ResourceExhausted("L1 nodes exhausted")
        self.trees_allocated += 1
        self.l1_nodes_allocated += l1_nodes

    def release_tree(self, l1_nodes: int) -> None:
        _check_release("multicast trees", 1, self.trees_allocated)
        _check_release("L1 nodes", l1_nodes, self.l1_nodes_allocated)
        self.trees_allocated -= 1
        self.l1_nodes_allocated -= l1_nodes

    def allocate_stream_state(self, cells: int = 1) -> None:
        if self.stream_tracker_cells_used + cells > self.capacities.stream_tracker_cells:
            raise ResourceExhausted("stream tracker cells exhausted")
        self.stream_tracker_cells_used += cells

    def release_stream_state(self, cells: int = 1) -> None:
        _check_release("stream tracker cells", cells, self.stream_tracker_cells_used)
        self.stream_tracker_cells_used -= cells

    def allocate_match_entries(self, entries: int) -> None:
        if self.exact_match_entries_used + entries > self.capacities.exact_match_entries:
            raise ResourceExhausted("exact-match entries exhausted")
        self.exact_match_entries_used += entries

    def release_match_entries(self, entries: int) -> None:
        _check_release("exact-match entries", entries, self.exact_match_entries_used)
        self.exact_match_entries_used -= entries

    # -- reporting ---------------------------------------------------------------

    def utilization(self) -> Dict[str, float]:
        """Fractional utilization of each dynamic resource."""
        caps = self.capacities
        return {
            "multicast_trees": self.trees_allocated / caps.max_multicast_trees,
            "l1_nodes": self.l1_nodes_allocated / caps.max_l1_nodes,
            "stream_tracker_cells": self.stream_tracker_cells_used / caps.stream_tracker_cells,
            "exact_match_entries": self.exact_match_entries_used / caps.exact_match_entries,
            "egress_bandwidth": self.egress_bps / caps.switch_bandwidth_bps,
        }


class ResourceExhausted(RuntimeError):
    """Raised when a hardware resource budget would be exceeded."""


def _check_release(resource: str, amount: int, in_use: int) -> None:
    if amount > in_use:
        raise ValueError(f"release of {amount} {resource} exceeds the {in_use} in use")


def table3_rows(
    peak_campus_egress_bps: float = 1.2e9,
    max_egress_bps: float = 197e9,
) -> List[ResourceUsage]:
    """Regenerate the rows of Table 3.

    Fixed rows come from the compiled-program footprint; the egress-throughput
    row scales quadratically with participants and is parameterized by the
    campus-peak and maximum-utilization workloads.
    """
    rows: List[ResourceUsage] = [
        ResourceUsage(
            resource="Parsing depth",
            scaling="fixed",
            peak_campus_load=f"Ing. {PARSING_DEPTH_USED['ingress']}, Eg. {PARSING_DEPTH_USED['egress']}",
            max_utilization="=",
        ),
        ResourceUsage(
            resource="No. of stages",
            scaling="fixed",
            peak_campus_load=f"Ing. {STAGES_USED['ingress']}, Eg. {STAGES_USED['egress']}",
            max_utilization="=",
        ),
    ]
    for name, pct in TABLE3_FIXED_USAGE.items():
        rows.append(
            ResourceUsage(resource=name, scaling="fixed", peak_campus_load=f"{pct:.2f}%", max_utilization="=")
        )
    rows.append(
        ResourceUsage(
            resource="Egress Tput.",
            scaling="quadratic",
            peak_campus_load=f"{peak_campus_egress_bps / 1e9:.1f} Gb/s",
            max_utilization=f"{max_egress_bps / 1e9:.0f} Gb/s",
        )
    )
    return rows
