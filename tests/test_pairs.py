"""The verdict arithmetic of ``tools/pairs.py`` on fixed lists."""

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.pairs import summarize, verdict, wins

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0, 101.0, 99.0]


def test_summary_uses_exclusive_quartiles():
    summary = summarize(PARENT)
    assert summary.median == 100.0
    assert (summary.q1, summary.q3) == (98.75, 101.25)


def test_gain_needs_nine_wins_in_ten_and_a_gap_wider_than_the_spread():
    change = [value * 1.3 for value in PARENT]
    assert wins(PARENT, change, "higher") == 10
    assert verdict(PARENT, change, "higher", 0.25) == "gain"
    # eight wins of ten: no gain, even with a wide gap
    eight = change[:8] + [PARENT[8] - 1.0, PARENT[9] - 1.0]
    assert wins(PARENT, eight, "higher") == 8
    assert verdict(PARENT, eight, "higher", 0.25) != "gain"
    # ten wins by a hair: the gap (1.0) is inside the spread (2.5)
    hair = [value + 1.0 for value in PARENT]
    assert wins(PARENT, hair, "higher") == 10
    assert verdict(PARENT, hair, "higher", 0.25) == "within bound"


def test_lower_is_better_mirrors_higher():
    change = [value * 0.7 for value in PARENT]
    assert wins(PARENT, change, "lower") == 10
    assert verdict(PARENT, change, "lower", 0.25) == "gain"
    assert verdict(PARENT, change, "higher", 0.25) == "worse beyond bound"


def test_ties_count_for_neither_side():
    assert wins(PARENT, PARENT, "higher") == 0
    assert wins(PARENT, PARENT, "lower") == 0
    assert verdict(PARENT, PARENT, "higher", 0.25) == "within bound"


def test_bound_and_spread_verdicts():
    slower = [value * 0.8 for value in PARENT]
    assert verdict(PARENT, slower, "higher", 0.25) == "within bound"
    assert verdict(PARENT, slower, "higher", 0.1) == "worse beyond bound"
    noisy = [60.0, 140.0, 100.0, 70.0, 130.0, 100.0, 90.0, 110.0, 80.0, 120.0]
    assert verdict(noisy, [value * 0.99 for value in noisy], "higher", 0.25) == "unresolved"
    # every change run above every parent run, by less than the spread
    split = [0.0] * 5 + [50.0] + [100.0] * 4
    assert verdict(split, [101.0] * 10, "higher", 0.25) == "no worse"


def test_rejects_unpaired_or_empty_runs():
    with pytest.raises(ValueError):
        verdict(PARENT, PARENT[:-1], "higher", 0.25)
    with pytest.raises(ValueError):
        verdict([], [], "higher", 0.25)
    with pytest.raises(ValueError):
        verdict(PARENT, PARENT, "sideways", 0.25)
