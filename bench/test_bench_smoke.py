"""Tier-1 smoke test of the performance ledger (``bench/``).

Runs every workload at a ``--smoke`` horizon through ``run``, ``trace`` and
``check`` in-process, and pins the pieces later PRs must not be able to break
silently: every named metric is emitted, the layer map covers every module of
``src/repro``, layer shares sum to one, and ``BENCHMARK.json`` agrees with
``bench/metrics.py``.  Smoke numbers are never ledger numbers.
"""

import json
import math

from bench import ROOT, workloads
from bench.__main__ import main
from bench.harness import _median_part_rate
from bench.layers import CALLER, LAYERS, layer_of_module
from bench.metrics import END_TO_END, PER_LAYER
from bench.run import WORKLOAD_NAMES
from bench.run import main as contract_main
from bench.workloads import WORKLOADS, scenario_report
from repro.rtp.wire import PacketView

CONTRACT_KEYS = {"correct", "attempted", "failed", "metrics"}


def load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def test_layer_map_covers_every_module():
    package = ROOT / "src" / "repro"
    unmapped = [
        str(path.relative_to(package))
        for path in sorted(package.rglob("*.py"))
        if layer_of_module(str(path.relative_to(package))) not in LAYERS + (CALLER,)
    ]
    assert not unmapped, f"modules without a layer in bench/layers.py: {unmapped}"


def test_benchmark_json_matches_the_metric_tables():
    contract = load(ROOT / "BENCHMARK.json")
    assert set(contract) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert contract["paths"] == ["bench"]
    assert [row["name"] for row in contract["workloads"]] == list(WORKLOAD_NAMES)
    assert list(WORKLOADS) == list(WORKLOAD_NAMES)
    assert [(r["name"], r["unit"], r["better"]) for r in contract["end_to_end"]] == END_TO_END
    assert [(r["name"], r["unit"], r["better"]) for r in contract["per_layer"]] == PER_LAYER
    assert all(0.0 < row["bound"] <= 0.25 for row in contract["end_to_end"])
    names = [name for name, _unit, _better in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))


def test_contract_line_has_exactly_the_contract_keys(capsys, tmp_path):
    for trace, table in ((0, END_TO_END), (1, PER_LAYER)):
        code = contract_main(
            ["--workload", "dataplane_batch", "--smoke", "--units", "6", "--trace", str(trace),
             "--out", str(tmp_path / "detail.json")]
        )
        assert code == 0
        line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(line) == CONTRACT_KEYS
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [name for name, _unit, _better in table]
        for name, unit, _better in table:
            assert line["metrics"][name]["unit"] == unit
            assert math.isfinite(line["metrics"][name]["value"])


def test_rate_ignores_a_slow_stretch_but_not_a_cost_spread_over_the_window():
    handled = [1000 + 100 * (step + 1) for step in range(10)]  # 100 packets a step, 1000 before
    even = [1.0] * 10
    assert _median_part_rate(even, handled, 1000) == 100.0
    stretch = [2.0, 2.0, 2.0] + [1.0] * 7  # the host slows for the first three steps
    assert _median_part_rate(stretch, handled, 1000) == 100.0
    spread = [1.0, 2.0] * 5  # the program stalls on every other step
    assert _median_part_rate(spread, handled, 1000) == 200 / 3.0


def test_a_defect_beyond_its_pin_is_a_failed_operation():
    """Holds whether or not ``src/`` still has the defects: the drift is made up."""
    workload = WORKLOADS["steady"]
    state = workload.setup(workload.default_seed, True)
    try:
        workload.prepare(state)
        workload.step(state)
        drift = {"feedback_entries": (18, 12)}
        reports = [
            scenario_report(
                state.run, state.history[0], 0, [],
                {"cross_meeting_streams": 10**6, "fingerprint_drift": pinned}, drift,
            )
            for pinned in (6, 4)
        ]
    finally:
        workload.teardown(state)
    at_pin, beyond_pin = (len(report["failures"]) for report in reports)
    assert beyond_pin == at_pin + 2
    assert reports[1]["counts"]["scenario.fingerprint_drift"] == 6


def test_identity_check_is_skipped_once_object_ingress_is_gone(monkeypatch):
    build = workloads.build_batch_pipeline

    def build_wire_only(seed, meetings):
        pipeline, traffic, adapted = build(seed, meetings)
        process_batch = pipeline.process_batch

        def wire_only(datagrams):
            if not all(isinstance(datagram.payload, (PacketView, tuple)) for datagram in datagrams):
                raise TypeError("RtpPacket ingress was removed")
            return process_batch(datagrams)

        pipeline.process_batch = wire_only
        return pipeline, traffic, adapted

    monkeypatch.setattr(workloads, "build_batch_pipeline", build_wire_only)
    problems, skipped = workloads.check_batch_equivalence(seed=37, meetings=2, ticks=6)
    assert problems == []
    assert "RtpPacket ingress was removed" in skipped


def test_run_trace_check_and_compare_at_smoke_horizon(tmp_path, capsys):
    common = ["--smoke", "--in-process", "--out-dir", str(tmp_path)]

    assert main(["run", "--repeats", "1"] + common) == 0
    run_set = load(tmp_path / "run.json")
    assert sorted(run_set["workloads"]) == sorted(WORKLOAD_NAMES)
    for workload, folded in run_set["workloads"].items():
        assert folded["ops_failed"] == 0, (workload, folded["failures"])
        for name, _unit, _better in END_TO_END:
            value = folded["metrics"][name]["median"]
            assert value is not None and math.isfinite(value) and value > 0.0, (workload, name)

    assert main(["trace"] + common) == 0
    trace_set = load(tmp_path / "trace.json")
    for workload, folded in trace_set["workloads"].items():
        metrics = folded["metrics"]
        assert sorted(metrics) == sorted(name for name, _unit, _better in PER_LAYER)
        for name, row in metrics.items():
            if row["median"] is None:
                assert folded["null_reasons"].get(name), f"{workload}: {name} is null without a reason"
            else:
                assert math.isfinite(row["median"]), (workload, name)
        shares = sum(metrics[f"{layer}.share"]["median"] for layer in LAYERS)
        assert abs(shares - 1.0) <= 1e-6, (workload, shares)
        assert (tmp_path / f"trace-{workload}.json").exists()
    # each workload demonstrably stresses the layers it was chosen for
    batch = trace_set["workloads"]["dataplane_batch"]["metrics"]
    assert batch["netsim.share"]["median"] == 0.0 and batch["webrtc.share"]["median"] == 0.0
    assert sum(batch[f"{layer}.share"]["median"] for layer in ("dataplane", "seqrewrite", "rtp")) >= 0.8

    assert main(["check", "--repeats", "1"] + common) == 0
    assert "check: passed" in capsys.readouterr().out

    # a result set compared with itself is within every bound
    assert main(["compare", str(tmp_path / "run.json"), str(tmp_path / "run.json")]) == 0

    # a subset run is compared on the workloads both sets hold
    subset = ["run", "--repeats", "1", "--workloads", "dataplane_batch", "--smoke", "--in-process"]
    assert main(subset + ["--out-dir", str(tmp_path / "subset")]) == 0
    capsys.readouterr()
    main(["compare", str(tmp_path / "run.json"), str(tmp_path / "subset" / "run.json")])
    compared = capsys.readouterr().out
    assert "dataplane_batch" in compared and "steady" not in compared
