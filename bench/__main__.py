"""The ledger CLI: ``python -m bench run | trace | compare | check``.

``run``      every workload in a fresh subprocess, R untraced repeats
             interleaved round-robin (drift hits all workloads equally);
             prints the median, min and max of every end-to-end metric and
             writes a result set (``bench/out/run.json``).  ``--fixed-work``
             boxes runs by steps instead of seconds, which makes every
             count and ``sim_*`` metric repeat exactly.
``trace``    every workload once under ``--trace 1``: per-layer metrics,
             ``bench/out/trace-<workload>.json`` and a result set.
``compare``  two result sets against the bounds in ``BENCHMARK.json``, one
             row per (workload, end-to-end metric).
``check``    the output-correctness gate: fixed-work runs must agree on
             every exact count, between repeats and between traced and
             untraced runs, and every run must report itself correct.

``--seed N`` offsets every workload's default seed; ``--seed 1000`` is the
held-out seed that is never used for tuning.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from . import ROOT
from .harness import OUT_DIR, run_workload, write_detail
from .metrics import UNITS
from .run import WORKLOAD_NAMES

DEFAULT_REPEATS = 3
#: Steps per workload for ``run/trace --fixed-work``: about what a 10-second
#: window reaches, but fixed, so counts and ``sim_*`` metrics repeat exactly.
LEDGER_UNITS = {
    "steady": 48,
    "zipf_hotset": 8,
    "adapt_loss": 40,
    "control_churn": 6000,
    "dataplane_batch": 480,
}
#: Steps per workload for ``check`` (a few seconds each).
CHECK_UNITS = {
    "steady": 16,
    "zipf_hotset": 4,
    "adapt_loss": 16,
    "control_churn": 1000,
    "dataplane_batch": 60,
}
SMOKE_UNITS = {
    "steady": 1,
    "zipf_hotset": 1,
    "adapt_loss": 1,
    "control_churn": 260,
    "dataplane_batch": 6,
}


def execute(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    units: Optional[int],
    smoke: bool,
    in_process: bool,
    out: Path,
) -> dict:
    """One run of one workload; returns its detail record (kept in ``out``)."""
    if in_process:
        write_detail(run_workload(workload, seed, seconds, trace, units, smoke), out)
    else:
        command = [
            sys.executable,
            str(ROOT / "bench" / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(int(trace)),
            "--out", str(out),
        ]
        if units is not None:
            command += ["--units", str(units)]
        if smoke:
            command.append("--smoke")
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def summarise(runs: List[dict]) -> dict:
    """Fold repeats of one workload into median/min/max per metric."""
    metrics = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name] for run in runs if run["metrics"][name] is not None]
        metrics[name] = {
            "unit": UNITS[name],
            "n": len(values),
            "values": values,
            "median": statistics.median(values) if values else None,
            "min": min(values) if values else None,
            "max": max(values) if values else None,
        }
    last = runs[-1]
    return {
        "metrics": metrics,
        "ops_attempted": last["attempted"],
        "ops_failed": len(last["failures"]),
        "failures": last["failures"],
        "defects": last["defects"],
        "skipped": last["skipped"],
        "sim": last["sim"],
        "counts": last["counts"],
        "summary": last["summary"],
        "steps": [run["steps"] for run in runs],
        "null_reasons": last.get("null_reasons", {}),
    }


def print_workload(name: str, folded: dict) -> None:
    print(f"== {name}: ops failed {folded['ops_failed']}/{folded['ops_attempted']}")
    for failure in folded["failures"][:10]:
        print(f"   FAILED: {failure}")
    defects = folded["defects"]
    for kind, pinned in defects.get("known", {}).items():
        print(f"   known defect counted: {kind} = {defects[kind]} (pinned at {pinned}; more is a failure)")
    for what, reason in folded["skipped"].items():
        print(f"   skipped: {what}: {reason}")
    for metric, row in folded["metrics"].items():
        if row["median"] is None:
            print(f"   {metric:<38} {'null':>14} {row['unit']:<8} {folded['null_reasons'].get(metric, '')}")
        else:
            print(
                f"   {metric:<38} {row['median']:>14.6g} {row['unit']:<8} "
                f"min {row['min']:.6g} max {row['max']:.6g} n={row['n']}"
            )


def collect(
    args, trace: bool, repeats: int, seconds: float, units_of: Optional[Dict[str, int]]
) -> Dict[str, List[dict]]:
    """``units_of`` boxes every workload by steps; ``None`` boxes by ``seconds``."""
    runs: Dict[str, List[dict]] = {name: [] for name in args.workloads}
    for repeat in range(repeats):
        for name in args.workloads:  # round-robin: interleave the workloads
            units = units_of[name] if units_of is not None else None
            out = args.out_dir / f"{'trace' if trace else f'run{repeat}'}-{name}.json"
            runs[name].append(
                execute(name, args.seed, seconds, trace, units, args.smoke, args.in_process, out)
            )
    return runs


def write_result_set(path, kind: str, args, folded: Dict[str, dict]) -> None:
    payload = {
        "kind": kind,
        "seed_offset": args.seed,
        "seconds": None if args.fixed_work or args.smoke else args.seconds,
        "workloads": folded,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    print(f"result set -> {path}")


def command_measure(args) -> int:
    """``run`` (R untraced repeats) and ``trace`` (one traced run)."""
    trace = args.command == "trace"
    if args.smoke:
        units_of = SMOKE_UNITS
    else:
        units_of = LEDGER_UNITS if args.fixed_work else None
    runs = collect(args, trace, 1 if trace else args.repeats, args.seconds, units_of)
    folded = {name: summarise(repeats) for name, repeats in runs.items()}
    for name, row in folded.items():
        print_workload(name, row)
        if trace:
            print(f"   trace file -> {args.out_dir / f'trace-{name}.json'}")
    write_result_set(args.out_dir / f"{args.command}.json", args.command, args, folded)
    return 1 if any(row["ops_failed"] for row in folded.values()) else 0


def command_check(args) -> int:
    units_of = SMOKE_UNITS if args.smoke else CHECK_UNITS
    untraced = collect(args, False, args.repeats, 0.0, units_of)
    traced = collect(args, True, 1, 0.0, units_of)
    violations: List[str] = []
    for name in args.workloads:
        runs = untraced[name] + traced[name]
        first = runs[0]
        for index, run in enumerate(runs[1:], start=1):
            label = "traced run" if run["trace"] else f"repeat {index}"
            for key in ("counts", "summary", "sim", "attempted"):
                if run[key] != first[key]:
                    violations.append(f"{name}: {label} disagrees with repeat 0 on {key}")
        for run in runs:
            violations.extend(f"{name}: {failure}" for failure in run["failures"])
        print_workload(name, summarise(untraced[name]))
        print_workload(f"{name} (traced)", summarise(traced[name]))
    for violation in violations:
        print(f"VIOLATION: {violation}")
    print("check:", "FAILED" if violations else "passed")
    return 1 if violations else 0


# --------------------------------------------------------------------------- compare


def quartile_spread(values: List[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (what the driver computes; max - min for three values)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def worse_by(metric_better: str, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    change = (new - base) / base
    return change if metric_better == "lower" else -change


def compare_sets(first: dict, second: dict, bounds: Dict[str, dict]) -> List[dict]:
    rows = []
    for workload in sorted(set(first["workloads"]) & set(second["workloads"])):
        a_metrics = first["workloads"][workload]["metrics"]
        b_metrics = second["workloads"][workload]["metrics"]
        for name, spec in bounds.items():
            a, b = a_metrics.get(name), b_metrics.get(name)
            if not a or not b or a["median"] is None or b["median"] is None:
                continue
            worse = worse_by(spec["better"], a["median"], b["median"])
            spread = max(quartile_spread(row["values"]) for row in (a, b))
            if spec["better"] == "lower":
                separated = max(b["values"]) < min(a["values"])
            else:
                separated = min(b["values"]) > max(a["values"])
            if worse > spec["bound"]:
                verdict = "REGRESSED"
            elif spread > spec["bound"] and not separated:
                verdict = "unresolved"
            else:
                verdict = "within bound"
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": spec["unit"],
                    "a": a["median"],
                    "b": b["median"],
                    "worse_by": worse,
                    "spread": spread,
                    "bound": spec["bound"],
                    "verdict": verdict,
                }
            )
    return rows


def exact_differences(first: dict, second: dict) -> List[str]:
    """Counts and simulated metrics that two fixed-work result sets must
    share bit for bit (meaningless for time-boxed sets, whose horizons differ)."""
    out = []
    for workload in sorted(set(first["workloads"]) & set(second["workloads"])):
        a, b = first["workloads"][workload], second["workloads"][workload]
        for key in ("counts", "sim", "summary"):
            for name in sorted(set(a[key]) | set(b[key])):
                if a[key].get(name) != b[key].get(name):
                    out.append(f"{workload}: {key}.{name} {a[key].get(name)!r} != {b[key].get(name)!r}")
    return out


def command_compare(args) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bounds = {row["name"]: row for row in json.load(handle)["end_to_end"]}
    with open(args.first, encoding="utf-8") as handle:
        first = json.load(handle)
    with open(args.second, encoding="utf-8") as handle:
        second = json.load(handle)
    rows = compare_sets(first, second, bounds)
    print(f"{'workload':<16}{'metric':<30}{'A':>12}{'B':>12}{'worse by':>10}{'spread':>9}{'bound':>7}  verdict")
    for row in rows:
        print(
            f"{row['workload']:<16}{row['metric']:<30}{row['a']:>12.5g}{row['b']:>12.5g}"
            f"{row['worse_by']:>+10.1%}{row['spread']:>9.1%}{row['bound']:>7.0%}  {row['verdict']}"
        )
    steps_match = all(
        first["workloads"][w]["steps"] == second["workloads"][w]["steps"]
        for w in set(first["workloads"]) & set(second["workloads"])
    )
    if steps_match:
        differences = exact_differences(first, second)
        for difference in differences:
            print(f"EXACT COUNT DIFFERS: {difference}")
        print(f"exact counts and sim_* metrics: {'identical' if not differences else 'DIFFER'}")
    else:
        differences = []
        print("exact counts not compared: the sets ran different numbers of steps (time-boxed)")
    regressed = [row for row in rows if row["verdict"] == "REGRESSED"]
    return 1 if regressed or differences else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "trace", "check"):
        command = sub.add_parser(name)
        command.add_argument("--seed", type=int, default=0, help="offset added to every default seed")
        if name != "check":  # check always runs its own fixed work
            command.add_argument("--seconds", type=float, default=_run_seconds())
            command.add_argument("--fixed-work", action="store_true",
                                 help="box every workload by its LEDGER_UNITS steps, not by seconds")
        if name != "trace":  # a trace is one run
            command.add_argument("--repeats", type=int, default=DEFAULT_REPEATS if name == "run" else 2)
        command.add_argument("--workloads", type=lambda text: text.split(","), default=list(WORKLOAD_NAMES),
                             help="comma-separated subset, e.g. steady,dataplane_batch")
        command.add_argument("--out-dir", type=Path, default=OUT_DIR,
                             help="where run details, traces and the result set go")
        command.add_argument("--smoke", action="store_true", help="tiny populations and horizons (tests)")
        command.add_argument("--in-process", action="store_true",
                             help="no subprocess per run (tests; RSS and GC state are then shared)")
    compare = sub.add_parser("compare")
    compare.add_argument("first")
    compare.add_argument("second")
    args = parser.parse_args(argv)
    handler = {
        "run": command_measure,
        "trace": command_measure,
        "check": command_check,
        "compare": command_compare,
    }[args.command]
    return handler(args)


def _run_seconds() -> float:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return float(json.load(handle)["run_seconds"])


if __name__ == "__main__":
    raise SystemExit(main())
