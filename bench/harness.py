"""Measurement machinery shared by every workload.

``run_workload`` is the single entry point: it sets a workload up, runs one
time-boxed (``seconds``) or work-boxed (``units``) window of timed steps, and
returns a result dict whose ``metrics`` are the end-to-end set
(``trace=False``) or the per-layer set (``trace=True``).

Noise model: one process, one thread, pinned to one CPU; garbage collection
stays enabled (users pay it) with one ``gc.collect()`` before the window;
host-time metrics are medians over the window's steps, medians over its
fifths (``RATE_PARTS``) or totals over the whole window; set-up is repeated
and its median reported.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import pstats
import resource
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import ROOT
from .layers import LAYERS, attribute, with_shares
from .metrics import END_TO_END, PER_LAYER, UNITS

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: ``sfu_pkts_per_wall_s`` is the median rate of this many contiguous parts
#: of the window (median of means).  The build box slows by ~1.5x for 3-5
#: seconds at a time; such a stretch hit every fifth run, and two of them in
#: ten runs put the plain total's quartile spread at 16 %.  A stretch
#: shorter than half the window leaves the median part alone, while a cost
#: the program spreads over the whole window (stalls, GC) still moves every
#: part, which the median over single steps (``op_ms_p50``) would not show.
RATE_PARTS = 5
#: Spans kept verbatim in a trace file (all of them feed the summary).
TRACE_SPAN_LIMIT = 2000

OUT_DIR = ROOT / "bench" / "out"


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of a non-empty sample."""
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def pin_to_one_cpu() -> None:
    """Keep the scheduler from migrating the run (no-op where unsupported)."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def run_window(
    workload,
    state,
    seconds: float,
    units: Optional[int],
    profiler: Optional[cProfile.Profile] = None,
) -> Tuple[List[float], List[float], List[int], float]:
    """Step the workload until ``units`` steps ran or ``seconds`` of timed
    step wall accumulated.  Returns per-step wall, per-op wall, SFU packets
    (received + sent) so far after each step, and the peak RSS in MB.

    Peak RSS is taken where the workload's ``progress`` (packets, ops or
    batches done) crosses its ``rss_checkpoint`` -- interpolated between the
    readings after the two steps around that point, because one step can be
    a tenth of the way there -- or at the end if the window is shorter: a
    time-boxed run of faster code simulates further and so holds more state
    at exit, which would turn every speed-up into a memory regression.
    """
    step_wall: List[float] = []
    op_wall: List[float] = []
    handled: List[int] = []
    clock = time.perf_counter
    spent = 0.0
    peak_rss_mb = None
    short = None  # (progress, peak RSS) after the last step short of the checkpoint
    gc.collect()
    while True:
        workload.prepare(state)
        if profiler is not None:
            profiler.enable()
        start = clock()
        op = workload.step(state)
        elapsed = clock() - start
        if profiler is not None:
            profiler.disable()
        step_wall.append(elapsed)
        op_wall.append(elapsed if op is None else op)
        handled.append(sum(workload.packets(state)))
        spent += elapsed
        done = (len(step_wall) >= units) if units is not None else (spent >= seconds)
        if peak_rss_mb is None:
            progress = workload.progress(state)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if progress < workload.rss_checkpoint:
                short = (progress, rss_mb)
                if done:
                    peak_rss_mb = rss_mb
            elif short is None:
                peak_rss_mb = rss_mb
            else:
                weight = (workload.rss_checkpoint - short[0]) / (progress - short[0])
                peak_rss_mb = short[1] + weight * (rss_mb - short[1])
        if done:
            return step_wall, op_wall, handled, peak_rss_mb


def _span_summary(spans) -> Dict[str, Dict[str, float]]:
    """Per span name: count, total seconds, self seconds (duration minus the
    part child spans cover) and median milliseconds."""
    child_time: Dict[int, float] = {}
    for _name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    durations: Dict[str, List[float]] = {}
    self_s: Dict[str, float] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        durations.setdefault(name, []).append(end - start)
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time.get(index, 0.0)
    return {
        name: {
            "count": len(values),
            "total_s": sum(values),
            "self_s": self_s[name],
            "p50_ms": statistics.median(values) * 1e3,
        }
        for name, values in durations.items()
    }


def _median_part_rate(step_wall: List[float], handled: List[int], before: int) -> float:
    """Median over ``RATE_PARTS`` contiguous parts of the window of the SFU
    packets handled in the part / its timed wall."""
    steps = len(step_wall)
    parts = min(RATE_PARTS, steps)
    edges = [part * steps // parts for part in range(parts + 1)]
    return statistics.median(
        (handled[last - 1] - (handled[first - 1] if first else before)) / sum(step_wall[first:last])
        for first, last in zip(edges, edges[1:])
    )


def _window_metrics(workload, step_wall, op_wall, handled, before: int, ingress: int) -> Dict[str, float]:
    """``before`` = SFU packets handled when the window opened, ``ingress`` =
    packets the SFU received during it."""
    wall = sum(step_wall)
    return {
        "sfu_pkts_per_wall_s": _median_part_rate(step_wall, handled, before),
        "sfu_ingress_pkts_per_wall_s": ingress / wall,
        "wall_s_per_sim_s": wall / (len(step_wall) * workload.sim_s_per_step),
        "op_ms_p50": statistics.median(op_wall) * 1e3,
        "op_ms_p99": percentile(op_wall, 0.99) * 1e3,
    }


def measure(workload, state, seconds, units, profiler=None) -> dict:
    """One measured window on a set-up system, then its output checks and
    teardown: the workload's report plus the window's host-time metrics."""
    try:
        ingress_before, egress_before = workload.packets(state)
        step_wall, op_wall, handled, peak_rss_mb = run_window(workload, state, seconds, units, profiler)
        ingress, _egress = workload.packets(state)
        report = workload.report(state)
    finally:
        workload.teardown(state)
    report["window"] = _window_metrics(
        workload, step_wall, op_wall, handled, ingress_before + egress_before, ingress - ingress_before
    )
    report["window"]["peak_rss_mb"] = peak_rss_mb
    report["steps"] = len(step_wall)
    report["timed_wall_s"] = sum(step_wall)
    report["spans"] = list(state.spans)
    return report


def run_workload(
    name: str,
    seed_offset: int = 0,
    seconds: float = 10.0,
    trace: bool = False,
    units: Optional[int] = None,
    smoke: bool = False,
) -> dict:
    """Run one workload once; see the module docstring."""
    body_start = time.perf_counter()
    from .workloads import WORKLOADS  # imports the program: part of set-up

    import_s = time.perf_counter() - body_start
    workload = WORKLOADS[name]
    seed = workload.default_seed + seed_offset
    if trace:
        result = _run_traced(workload, seed, seconds, units, smoke)
    else:
        result = _run_untraced(workload, seed, seconds, units, smoke, import_s)
    declared = [metric for metric, _unit, _better in (PER_LAYER if trace else END_TO_END)]
    result["metrics"] = {metric: result["metrics"].get(metric) for metric in declared}
    result.update(workload=name, seed=seed, trace=trace, step=workload.step_name)
    return result


def _run_untraced(workload, seed, seconds, units, smoke, import_s) -> dict:
    setups: List[float] = []
    state = None
    for _ in range(1 if smoke else SETUP_REPEATS):
        if state is not None:
            workload.teardown(state)
            state = None
            gc.collect()
        start = time.perf_counter()
        state = workload.setup(seed, smoke)
        setups.append(time.perf_counter() - start)
    report = measure(workload, state, seconds, units)
    report["metrics"] = dict(report["window"], setup_s=import_s + statistics.median(setups))
    report["setup_samples_s"] = setups
    report["import_s"] = import_s
    return report


def _run_traced(workload, seed, seconds, units, smoke) -> dict:
    # untraced reference first, boxed like an end-to-end run, so the profile
    # covers the work the end-to-end metrics cover: it gives the host-time
    # window metrics, the step count the traced window must repeat (~3x
    # slower) and the counts it must reproduce exactly
    reference = measure(workload, workload.setup(seed, smoke), seconds, units)
    profiler = cProfile.Profile()
    report = measure(workload, workload.setup(seed, smoke), 0.0, reference["steps"], profiler)

    for key in ("counts", "summary", "sim", "attempted"):
        if report[key] != reference[key]:
            report["failures"].append(f"traced and untraced runs of seed {seed} disagree on {key}")
    report["failures"].extend(f for f in reference["failures"] if f not in report["failures"])

    profile = pstats.Stats(profiler).stats
    layers = with_shares(attribute(profile, str(ROOT / "src" / "repro")))
    metrics: Dict[str, Optional[float]] = {}
    for layer in LAYERS:
        for field_name in ("self_s", "share", "calls"):
            metrics[f"{layer}.{field_name}"] = layers[layer][field_name]
    metrics.update(report["counts"])
    metrics.update(report["sim"])
    metrics.update(reference["window"])
    # every root span is an operation except the simulated time between ops
    metrics["core.op_span_share"] = sum(
        end - start
        for name, start, end, parent in reference["spans"]
        if parent < 0 and name != "sim.advance"
    ) / reference["timed_wall_s"]
    metrics["trace_overhead_ratio"] = report["timed_wall_s"] / reference["timed_wall_s"]

    from .probes import run_probes  # traced runs only

    spans = _span_summary(reference["spans"])
    probe_values, probe_reasons = run_probes(workload.name, seed, smoke, spans)
    metrics.update(probe_values)
    report["metrics"] = metrics
    report["null_reasons"] = probe_reasons
    report["layers"] = layers
    report["spans"] = reference["spans"]  # host time as users see it, not profiler-inflated
    report["span_summary"] = spans
    report["untraced_window"] = reference["window"]
    report["top_functions"] = _top_functions(profile)
    return report


def _top_functions(profile: dict, limit: int = 25) -> List[dict]:
    rows = sorted(profile.items(), key=lambda item: -item[1][2])[:limit]
    return [
        {"function": f"{func[0]}:{func[1]}({func[2]})", "calls": nc, "self_s": tt, "cumulative_s": ct}
        for func, (_cc, nc, tt, ct, _callers) in rows
    ]


def contract_line(result: dict) -> str:
    """The one JSON object the driver reads from the last line of stdout.

    A per-layer metric the workload does not exercise prints 0; the detail
    file keeps it ``null`` with the reason.
    """
    metrics = {
        name: {"value": 0.0 if value is None else value, "unit": UNITS[name]}
        for name, value in result["metrics"].items()
    }
    failed = len(result["failures"])
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": max(1, int(result["attempted"])),
            "failed": failed,
            "metrics": metrics,
        }
    )


def write_detail(result: dict, path) -> None:
    """Write everything a run learned (the trace file for a traced run)."""
    detail = dict(result)
    spans = detail.pop("spans", [])
    detail["spans"] = [
        {"name": name, "start_s": start, "end_s": end, "parent": parent}
        for name, start, end, parent in spans[:TRACE_SPAN_LIMIT]
    ]
    detail["spans_total"] = len(spans)
    detail["units"] = {name: UNITS[name] for name in result["metrics"]}
    if "null_reasons" not in detail:
        detail["null_reasons"] = {}
    for name, value in result["metrics"].items():
        if value is None and name not in detail["null_reasons"]:
            detail["null_reasons"][name] = f"not exercised by {result['workload']}"
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1, sort_keys=True, default=str)
