"""Interleaved fresh-process pairs of the benchmark's contract command.

    python -m tools.pairs PARENT_DIR CHANGE_DIR --workload steady --seed 0 --pairs 10

Runs ``python3 bench/run.py --workload W --seed S --seconds 10 --trace 0`` in
each tree (each tree's own ``bench/``), one fresh process per run, pair after
pair, alternating which side runs first.  For every end-to-end metric that
``BENCHMARK.json`` declares it prints the raw values, each side's median and
quartiles, how many pairs the change won, and the verdict:

* ``gain``: the change won at least nine tenths of the pairs (ties count for
  neither side) and the medians differ, in the better direction, by more
  than the parent's spread (the distance between its quartiles);
* ``no worse``: every run of the change reads better than every run of the
  parent;
* ``unresolved``: the parent's spread, relative to its median, is wider than
  the metric's bound;
* ``worse beyond bound``: the change's median is worse than the parent's by
  more than the bound;
* ``within bound``: none of the above.

Standard library only; the verdict arithmetic is :func:`verdict`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence


@dataclass(frozen=True)
class Summary:
    """One side's runs of one metric."""

    values: tuple
    median: float
    q1: float
    q3: float


def summarize(values: Sequence[float]) -> Summary:
    """Median and quartiles (``statistics.quantiles``, exclusive method)."""
    values = tuple(values)
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    return Summary(values, statistics.median(values), q1, q3)


def wins(parent: Sequence[float], change: Sequence[float], better: str) -> int:
    """Pairs in which the change reads strictly better than the parent."""
    if better == "higher":
        return sum(1 for p, c in zip(parent, change) if c > p)
    return sum(1 for p, c in zip(parent, change) if c < p)


def verdict(parent: Sequence[float], change: Sequence[float], better: str, bound: float) -> str:
    """The verdict on one metric from paired runs (see the module docstring)."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs on both sides")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', not {better!r}")
    p, c = summarize(parent), summarize(change)
    sign = 1.0 if better == "higher" else -1.0
    gap = sign * (c.median - p.median)  # > 0: the change is better
    spread = p.q3 - p.q1
    if 10 * wins(parent, change, better) >= 9 * len(parent) and gap > spread:
        return "gain"
    if better == "higher":
        every_run_better = min(change) > max(parent)
    else:
        every_run_better = max(change) < min(parent)
    if every_run_better:
        return "no worse"
    scale = abs(p.median)
    if scale and spread / scale > bound:
        return "unresolved"
    if scale and -gap / scale > bound:
        return "worse beyond bound"
    return "within bound"


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One contract-command run in ``tree``; returns its parsed JSON line."""
    command = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", "10", "--trace", "0",
    ]
    completed = subprocess.run(command, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tools.pairs", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    metrics = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]
    runs: Dict[str, List[dict]] = {"parent": [], "change": []}
    trees = {"parent": args.parent, "change": args.change}
    for index in range(args.pairs):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(trees[side], args.workload, args.seed)
            runs[side].append(result)
            print(f"pair {index + 1}/{args.pairs} {side}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr, flush=True)

    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs, alternating first side")
    for side in ("parent", "change"):
        failed = sum(result["failed"] for result in runs[side])
        correct = all(result["correct"] for result in runs[side])
        print(f"  {side}: every run correct={correct}, failed operations={failed}")
    for metric in metrics:
        name = metric["name"]
        parent = [result["metrics"][name]["value"] for result in runs["parent"]]
        change = [result["metrics"][name]["value"] for result in runs["change"]]
        if None in parent or None in change:
            print(f"{name}: not reported by every run")
            continue
        better, bound = metric["better"], metric["bound"]
        print(f"{name} ({metric['unit']}, {better} is better, bound {bound}):")
        for side, summary in (("parent", summarize(parent)), ("change", summarize(change))):
            raw = " ".join(f"{value:.6g}" for value in summary.values)
            print(f"  {side}: median {summary.median:.6g}  Q1 {summary.q1:.6g}  "
                  f"Q3 {summary.q3:.6g}  [{raw}]")
        ratio = statistics.median(change) / statistics.median(parent)
        print(f"  change/parent medians {ratio:.3f}; change won "
              f"{wins(parent, change, better)}/{args.pairs}; "
              f"verdict: {verdict(parent, change, better, bound)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
