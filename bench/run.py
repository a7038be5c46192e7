"""Contract entry point: one workload, one run, one JSON line.

    python3 bench/run.py --workload steady --seed 0 --seconds 10 --trace 0

``--seed`` offsets the workload's default seed (0 = the documented
defaults; 1000 is the held-out seed, never used for tuning).  ``--trace 0``
prints every end-to-end metric, ``--trace 1`` every per-layer metric and
writes ``bench/out/trace-<workload>.json``.  ``--units`` boxes the run by
steps instead of seconds, which makes every count repeat exactly.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

if __package__ in (None, ""):  # run as a script: make the package importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.harness import OUT_DIR, contract_line, pin_to_one_cpu, run_workload, write_detail

WORKLOAD_NAMES = ("steady", "zipf_hotset", "adapt_loss", "control_churn", "dataplane_batch")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 bench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--units", type=int, default=None, help="run exactly this many steps")
    parser.add_argument("--smoke", action="store_true", help="tiny populations (tests only)")
    parser.add_argument("--out", default=None, help="write the run's detail JSON here")
    args = parser.parse_args(argv)

    pin_to_one_cpu()
    result = run_workload(
        args.workload,
        seed_offset=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        units=args.units,
        smoke=args.smoke,
    )
    out = args.out
    if out is None and args.trace:
        out = OUT_DIR / f"trace-{args.workload}.json"
    if out is not None:
        write_detail(result, out)
    for failure in result["failures"][:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(contract_line(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
