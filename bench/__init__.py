"""The repo's performance ledger: five workloads, end-to-end and per-layer metrics.

Everything here measures ``src/repro`` *from outside*: the harness times
calls into public functions (``build_scenario``, ``ScenarioRun.run_for`` /
``add_participant`` / ``leave`` / ``migrate``, ``ScallopPipeline.process_batch``)
and, where the simulator rather than the harness makes the call, attributes a
``cProfile`` run to layers by module path.  See ``bench/README.md`` for the
metric glossary and ``bench/SURFACE.md`` for every ``repro`` name imported.

``BENCHMARK.json`` at the repo root is the machine-readable contract; the
driver runs ``python3 bench/run.py --workload W --seed N --seconds S --trace T``.
"""

import sys
from pathlib import Path

#: The checkout this package sits in; ``src/`` beside it holds the program.
ROOT = Path(__file__).resolve().parent.parent

# The contract command runs without PYTHONPATH, so make the sibling ``src/``
# importable.  Deliberately guarded: in a directory that holds only the
# benchmark, ``import repro`` must fail and the run exit non-zero.
_SRC = ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
