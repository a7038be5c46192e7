"""archlint: AST-based architecture-invariant checker for the repro tree.

The dataplane's correctness rests on conventions the test suite can only
sample — datapath shards must never write control-plane state, the hot path
must stay zero-pickle, control-plane mutations must bump generations, all
simulation randomness/time must flow through seeded RNGs and the simulator
clock, the wire path must never materialize ``RtpPacket`` objects, and
membership must reach the replication engine only through the switch agent,
which (like the trunk manager) never walks a whole pipeline table.
archlint checks those conventions mechanically at the AST level (stdlib
``ast`` only, no dependencies), so a violation fails CI instead of surfacing
later as flaky nondeterminism or state leaking between shards.

Usage::

    python -m tools.archlint src/            # lint the tree, exit 1 on new findings
    python -m tools.archlint --list-rules    # describe the rules

Per-line suppressions: append ``# archlint: ignore[rule-name]`` (or a bare
``# archlint: ignore`` for all rules) to the flagged line or the comment line
directly above it.  Grandfathered findings live in
``tools/archlint/baseline.txt`` (rule/path/fingerprint triples keyed on the
enclosing scope plus the source text, so they survive line drift); a finding
is *new* — and fails the run — only if it is neither suppressed nor baselined.

The static pass is paired with a runtime shard-isolation sanitizer
(:mod:`repro.dataplane.sanitize`) that catches what the AST can't: mutations
through aliased references, enforced by write-barrier proxies when
``REPRO_SANITIZE=1``.
"""

from .engine import Finding, Report, check_source, load_baseline, run_paths
from .rules import ALL_RULES

__all__ = ["ALL_RULES", "Finding", "Report", "check_source", "load_baseline", "run_paths"]
