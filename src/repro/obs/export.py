"""Snapshot export: canonical JSON, Prometheus text exposition, tables.

Three renderings of one :meth:`TelemetryBus.snapshot` dict:

``to_json``
    Canonical JSON — ``sort_keys=True`` so two equal snapshots serialize
    byte-identically (the shard-count-invariance tests compare these bytes).

``render_prometheus``
    Prometheus text exposition (counters, gauges, cumulative ``_bucket``
    histograms) for scrape-style consumers.

``render_table``
    A fixed-width human table, what ``python -m repro.obs`` prints.

``validate_snapshot`` is the schema gate CI runs against the churn-storm
smoke snapshot: it checks the schema tag, the presence of every
:data:`~repro.obs.bus.CORE_SERIES`, and that no series carries a NaN or
infinite value, returning a list of problems (empty = valid).
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, List

from .bus import CORE_SERIES, SCHEMA

__all__ = ["to_json", "render_prometheus", "render_table", "validate_snapshot"]

_PROM_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")


def to_json(snapshot: Dict[str, object]) -> str:
    """Canonical JSON rendering (sorted keys, trailing newline)."""
    return json.dumps(snapshot, sort_keys=True, indent=2) + "\n"


def _prom_name(name: str) -> str:
    return _PROM_SANITIZE.sub("_", name)


def render_prometheus(snapshot: Dict[str, object]) -> str:
    """Prometheus text-exposition rendering of a snapshot's series."""
    lines: List[str] = []
    series: Dict[str, Dict[str, object]] = snapshot.get("series", {})
    for name in sorted(series):
        body = series[name]
        prom = _prom_name(name)
        kind = body.get("type")
        if kind == "counter":
            lines.append(f"# TYPE {prom} counter")
            lines.append(f"{prom} {body['value']}")
        elif kind == "gauge":
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom} {body['value']}")
        elif kind == "histogram":
            lines.append(f"# TYPE {prom} histogram")
            cumulative = 0
            for bound, count in zip(body["buckets"], body["counts"]):
                cumulative += count
                lines.append(f'{prom}_bucket{{le="{bound}"}} {cumulative}')
            lines.append(f'{prom}_bucket{{le="+Inf"}} {body["count"]}')
            lines.append(f"{prom}_sum {body['sum']}")
            lines.append(f"{prom}_count {body['count']}")
    return "\n".join(lines) + "\n"


def render_table(snapshot: Dict[str, object]) -> str:
    """Fixed-width series table (plus a trace-timeline summary footer)."""
    series: Dict[str, Dict[str, object]] = snapshot.get("series", {})
    rows: List[List[str]] = [["series", "type", "value", "p50", "p95", "p99"]]
    for name in sorted(series):
        body = series[name]
        kind = str(body.get("type", "?"))
        if kind == "histogram":
            rows.append(
                [
                    name,
                    kind,
                    f"n={body['count']}",
                    f"{body['p50']:.3f}",
                    f"{body['p95']:.3f}",
                    f"{body['p99']:.3f}",
                ]
            )
        else:
            value = body.get("value", 0)
            rendered = f"{value:.4f}" if isinstance(value, float) else str(value)
            rows.append([name, kind, rendered, "-", "-", "-"])
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]
    lines.insert(1, "  ".join("-" * width for width in widths))
    traces = snapshot.get("traces", [])
    lines.append("")
    lines.append(
        f"schema={snapshot.get('schema')}  sim_time_s={snapshot.get('sim_time_s')}  "
        f"series={len(series)}  trace_records={len(traces)}"
    )
    return "\n".join(lines)


def _finite(value: object) -> bool:
    if isinstance(value, bool):
        return True
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    return True  # non-numeric leaves (strings) are not a finiteness concern


def validate_snapshot(snapshot: object) -> List[str]:
    """Schema-validate a snapshot; returns problems (empty list = valid)."""
    problems: List[str] = []
    if not isinstance(snapshot, dict):
        return ["snapshot is not a JSON object"]
    if snapshot.get("schema") != SCHEMA:
        problems.append(
            f"schema mismatch: expected {SCHEMA!r}, found {snapshot.get('schema')!r}"
        )
    sim_time = snapshot.get("sim_time_s")
    if not isinstance(sim_time, (int, float)) or not math.isfinite(sim_time):
        problems.append(f"sim_time_s is not a finite number: {sim_time!r}")
    series = snapshot.get("series")
    if not isinstance(series, dict):
        problems.append("series is missing or not an object")
        return problems
    for name in CORE_SERIES:
        if name not in series:
            problems.append(f"missing core series: {name}")
    for name, body in series.items():
        if not isinstance(body, dict):
            problems.append(f"series {name}: not an object")
            continue
        if body.get("type") not in ("counter", "gauge", "histogram"):
            problems.append(f"series {name}: unknown type {body.get('type')!r}")
        for field_name, value in body.items():
            if isinstance(value, list):
                if not all(_finite(item) for item in value):
                    problems.append(f"series {name}: non-finite value in {field_name}")
            elif not _finite(value):
                problems.append(f"series {name}: non-finite {field_name} = {value!r}")
    return problems
