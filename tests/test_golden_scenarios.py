"""Golden stdout of the six canned scenarios.

The simulation is deterministic to the bit, so ``python -m repro.scenario
<name> --smoke`` prints the same event log, per-meeting receive metrics,
summary and reconciliation verdict in every process.  Each scenario runs in
a fresh interpreter (exactly what CI and a user run) and its stdout must
equal ``tests/golden/<name>.txt`` byte for byte.  A change that moves a
packet count, a frame rate or the verdict is a behaviour change: argue it,
then regenerate the golden with the command the failure prints.

``--metrics-out`` must not move that stdout, and the telemetry snapshot it
writes is as reproducible as the run: two fresh processes write the same
bytes.
"""

import difflib
import os
import subprocess
import sys
from pathlib import Path
from typing import List

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
SCENARIOS = ("steady", "churn_storm", "flash_crowd", "degrading_uplink", "zipf_hotset", "federated_pair")


def _smoke_command(name: str, *extra: str) -> subprocess.Popen:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.scenario", name, "--smoke", *extra],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _finish(processes: List[subprocess.Popen]) -> List[str]:
    """Wait for every process, then require each to have exited cleanly."""
    results = [process.communicate(timeout=600) for process in processes]
    for process, (_stdout, stderr) in zip(processes, results):
        assert process.returncode == 0, stderr
    return [stdout for stdout, _stderr in results]


def _assert_matches_golden(name: str, stdout: str, flags: str = "") -> None:
    expected = (GOLDEN / f"{name}.txt").read_text()
    if stdout != expected:
        diff = "".join(
            difflib.unified_diff(
                expected.splitlines(keepends=True),
                stdout.splitlines(keepends=True),
                fromfile=f"tests/golden/{name}.txt",
                tofile=f"python -m repro.scenario {name} --smoke{flags}",
            )
        )
        pytest.fail(
            f"{name} --smoke{flags} stdout differs from its golden:\n{diff}\n"
            "If the change is intended, regenerate the golden from the repo root with:\n"
            f"  PYTHONPATH=src python -m repro.scenario {name} --smoke > tests/golden/{name}.txt"
        )


@pytest.mark.parametrize("name", SCENARIOS)
def test_smoke_stdout_matches_golden(name):
    (stdout,) = _finish([_smoke_command(name)])
    _assert_matches_golden(name, stdout)


@pytest.mark.parametrize("name", SCENARIOS)
def test_metrics_out_is_reproducible_and_leaves_stdout_golden(name, tmp_path):
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    outputs = _finish([_smoke_command(name, "--metrics-out", str(path)) for path in paths])
    for stdout in outputs:
        kept = "".join(
            line
            for line in stdout.splitlines(keepends=True)
            if not line.startswith("metrics snapshot:")
        )
        _assert_matches_golden(name, kept, " --metrics-out PATH")
    first, second = (path.read_bytes() for path in paths)
    assert first, "the run wrote an empty snapshot"
    assert first == second, f"{name}: two identically seeded runs wrote different snapshots"


def test_every_canned_scenario_has_a_golden():
    from repro.scenario.library import LIBRARY

    assert sorted(SCENARIOS) == sorted(LIBRARY)
    assert sorted(path.stem for path in GOLDEN.glob("*.txt")) == sorted(SCENARIOS)
