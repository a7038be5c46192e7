"""CLI runner for the canned scenario library.

Usage::

    python -m repro.scenario churn_storm [--smoke] [--duration S] [--seed N]
    python -m repro.scenario --list

Runs the named scenario to its horizon, prints the applied event log and
per-meeting receive metrics, and *reconciles* the SFU-side state against the
surviving population — any leaked table entry, PRE node, or accountant
charge after churn fails the run (exit code 1), which is what CI's
``churn_storm --smoke`` step gates on.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .driver import build_scenario
from .library import LIBRARY


def _print_run(run) -> None:
    print(f"=== scenario: {run.scenario.name} ({run.simulator.now:.1f} s simulated) ===")
    if run.event_log:
        print("events:")
        for at_s, message in run.event_log:
            print(f"  {at_s:7.2f}s  {message}")
    stats = run.meeting_stats()
    if stats:
        print(f"{'meeting':<14}{'parts':>6}{'streams':>8}{'fps':>7}{'jitter':>8}{'pkts':>9}{'frz':>5}")
        for meeting in stats.values():
            print(
                f"{meeting.meeting_id:<14}{meeting.participants:>6}"
                f"{meeting.inbound_video_streams:>8}{meeting.mean_receive_fps:>7.1f}"
                f"{meeting.mean_jitter_ms:>8.2f}{meeting.video_packets_received:>9}"
                f"{meeting.freeze_events:>5}"
            )
    print("summary:")
    for key, value in run.summary().items():
        print(f"  {key}: {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.scenario", description=__doc__)
    parser.add_argument("name", nargs="?", choices=sorted(LIBRARY), help="canned scenario to run")
    parser.add_argument("--smoke", action="store_true", help="short-horizon CI variant")
    parser.add_argument("--duration", type=float, default=None, help="override the horizon (s)")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the run's repro.obs telemetry snapshot (JSON) to PATH; "
        "arms the backend's obs knob so the tracing series are present",
    )
    parser.add_argument("--list", action="store_true", help="list the scenario library")
    args = parser.parse_args(argv)

    if args.list or args.name is None:
        for name, factory in sorted(LIBRARY.items()):
            doc = (factory.__doc__ or "").strip().splitlines()[0]
            print(f"{name:<18} {doc}")
        return 0

    scenario = LIBRARY[args.name](args.smoke)
    if args.duration is not None:
        scenario = dataclasses.replace(scenario, duration_s=args.duration)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    if args.metrics_out is not None and scenario.backend.kind == "scallop":
        # arm the declarative telemetry knob so the snapshot carries the
        # per-shard tracing series; it changes no simulated value and no
        # engine choice, so stdout stays the golden one
        scenario = dataclasses.replace(
            scenario, backend=dataclasses.replace(scenario.backend, obs=True)
        )

    with build_scenario(scenario) as run:
        run.run()
        _print_run(run)
        if args.metrics_out is not None:
            from ..obs.export import to_json

            snapshot = run.metrics_snapshot()
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                handle.write(to_json(snapshot))
            print(
                f"metrics snapshot: {len(snapshot['series'])} series, "
                f"{len(snapshot['traces'])} traces -> {args.metrics_out}"
            )
        problems = run.reconcile()
    if problems:
        print("RECONCILIATION FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print("reconciliation: SFU state matches the surviving population")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
