"""Golden stdout of the six canned scenarios.

The simulation is deterministic to the bit, so ``python -m repro.scenario
<name> --smoke`` prints the same event log, per-meeting receive metrics,
summary and reconciliation verdict in every process.  Each scenario runs in
a fresh interpreter (exactly what CI and a user run) and its stdout must
equal ``tests/golden/<name>.txt`` byte for byte.  A change that moves a
packet count, a frame rate or the verdict is a behaviour change: argue it,
then regenerate the golden with the command the failure prints.
"""

import difflib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
SCENARIOS = ("steady", "churn_storm", "flash_crowd", "degrading_uplink", "zipf_hotset", "federated_pair")


def _smoke_stdout(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, "-m", "repro.scenario", name, "--smoke"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("name", SCENARIOS)
def test_smoke_stdout_matches_golden(name):
    result = _smoke_stdout(name)
    assert result.returncode == 0, result.stderr
    expected = (GOLDEN / f"{name}.txt").read_text()
    if result.stdout != expected:
        diff = "".join(
            difflib.unified_diff(
                expected.splitlines(keepends=True),
                result.stdout.splitlines(keepends=True),
                fromfile=f"tests/golden/{name}.txt",
                tofile=f"python -m repro.scenario {name} --smoke",
            )
        )
        pytest.fail(
            f"{name} --smoke stdout differs from its golden:\n{diff}\n"
            "If the change is intended, regenerate the golden from the repo root with:\n"
            f"  PYTHONPATH=src python -m repro.scenario {name} --smoke > tests/golden/{name}.txt"
        )


def test_every_canned_scenario_has_a_golden():
    from repro.scenario.library import LIBRARY

    assert sorted(SCENARIOS) == sorted(LIBRARY)
    assert sorted(path.stem for path in GOLDEN.glob("*.txt")) == sorted(SCENARIOS)
