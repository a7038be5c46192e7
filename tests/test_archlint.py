"""Per-rule and end-to-end suite for the archlint architecture checker.

Each rule gets four fixtures: a violating snippet, a clean snippet, the
violating snippet with an inline ``# archlint: ignore[...]`` suppression, and
the violating snippet grandfathered through a baseline.  The end-to-end tests
pin the CI contract: ``python -m tools.archlint src`` exits 0 against the
committed baseline, and exits non-zero against the violating fixture file.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.archlint import ALL_RULES, check_source, load_baseline, run_paths
from tools.archlint.engine import format_baseline_entry
from tools.archlint.rules import (
    DeterminismRule,
    GenerationDisciplineRule,
    ShareNothingRule,
    WireHygieneRule,
    ZeroPickleRule,
)


def lint(source, module, rules=None, baseline=None):
    return check_source(
        textwrap.dedent(source),
        module=module,
        rules=rules,
        baseline=baseline,
    )


def new_rules(findings):
    return sorted({finding.rule for finding in findings if finding.is_new})


# --------------------------------------------------------------------------- rule 1: share-nothing


class TestShareNothingRule:
    RULES = (ShareNothingRule(),)

    def test_datapath_method_mutating_control_state_flags(self):
        findings = lint(
            """
            class PipelineDatapath:
                def _process_media_fast(self, view):
                    self.pre.copies_produced += 1
                    self.stream_table.install(("a", 1), object())
                    self.control.stream_indices["x"] = 3
            """,
            module="repro.dataplane.pipeline",
            rules=self.RULES,
        )
        assert len([finding for finding in findings if finding.is_new]) == 3
        assert new_rules(findings) == ["share-nothing"]

    def test_reads_and_sanctioned_accounting_are_clean(self):
        findings = lint(
            """
            class PipelineDatapath:
                def _process_media_fast(self, view):
                    entry = self.stream_table.lookup(("a", 1))
                    self.pre.note_replication(3)
                    self.local_counter += 1
                    return entry
            """,
            module="repro.dataplane.pipeline",
            rules=self.RULES,
        )
        assert not findings

    def test_control_plane_class_is_out_of_scope(self):
        findings = lint(
            """
            class PipelineControlPlane:
                def install_stream(self, key, entry):
                    self.stream_table.install(key, entry)
            """,
            module="repro.dataplane.pipeline",
            rules=self.RULES,
        )
        assert not findings

    def test_inline_suppression(self):
        findings = lint(
            """
            class PipelineDatapath:
                def _process_media_fast(self, view):
                    self.pre.copies_produced += 1  # archlint: ignore[share-nothing]
            """,
            module="repro.dataplane.pipeline",
            rules=self.RULES,
        )
        assert len(findings) == 1
        assert findings[0].suppressed and not findings[0].is_new

    def test_baseline_grandfathers_exact_fingerprint(self):
        source = """
        class PipelineDatapath:
            def _process_media_fast(self, view):
                self.pre.copies_produced += 1
        """
        first = lint(source, module="repro.dataplane.pipeline", rules=self.RULES)
        assert len(first) == 1 and first[0].is_new
        baseline = {("share-nothing", "<fixture>", first[0].fingerprint): 1}
        again = lint(source, module="repro.dataplane.pipeline", rules=self.RULES, baseline=baseline)
        assert len(again) == 1
        assert again[0].baselined and not again[0].is_new


# --------------------------------------------------------------------------- rule 2: zero-pickle


class TestZeroPickleRule:
    RULES = (ZeroPickleRule(),)

    def test_pickle_import_and_call_flag_outside_whitelist(self):
        findings = lint(
            """
            import pickle
            from copy import deepcopy

            def encode(batch):
                return pickle.dumps(batch), deepcopy(batch)
            """,
            module="repro.dataplane.pipeline",
            rules=self.RULES,
        )
        assert len([finding for finding in findings if finding.is_new]) >= 3
        assert new_rules(findings) == ["zero-pickle"]

    def test_pickle_in_sharding_module_is_a_finding(self):
        # no module is whitelisted any more: the sharded engine's own module
        # gets flagged for a module-scope import like any other
        findings = lint(
            """
            import pickle
            """,
            module="repro.dataplane.sharding",
            rules=self.RULES,
        )
        assert new_rules(findings) == ["zero-pickle"]

    def test_non_dataplane_modules_out_of_scope_unless_repro(self):
        findings = lint(
            """
            import pickle

            def snapshot(obj):
                return pickle.dumps(obj)
            """,
            module="repro.scenario.library",
            rules=self.RULES,
        )
        # scenario code is still repro simulation code: pickle there is a finding
        assert new_rules(findings) == ["zero-pickle"]

    def test_inline_suppression(self):
        findings = lint(
            """
            import pickle  # archlint: ignore[zero-pickle]

            def bench(graph):
                return pickle.dumps(graph)  # archlint: ignore[zero-pickle]
            """,
            module="repro.experiments.fig_latency",
            rules=self.RULES,
        )
        assert findings and all(finding.suppressed for finding in findings)


# --------------------------------------------------------------------------- rule 3: generation discipline


class TestGenerationDisciplineRule:
    RULES = (GenerationDisciplineRule(),)

    def test_table_mutation_outside_control_plane_flags(self):
        findings = lint(
            """
            def rogue_helper(pipeline):
                pipeline.stream_table.install(("a", 1), object())
                pipeline.replica_table.remove(("a", 1))
            """,
            module="repro.dataplane.pipeline",
            rules=self.RULES,
        )
        assert len([finding for finding in findings if finding.is_new]) == 2
        assert new_rules(findings) == ["generation-discipline"]

    def test_control_plane_methods_are_sanctioned(self):
        findings = lint(
            """
            class PipelineControlPlane:
                def install_stream(self, key, entry):
                    self.stream_table.install(key, entry)
                    self.generation += 1
            """,
            module="repro.dataplane.pipeline",
            rules=self.RULES,
        )
        assert not [finding for finding in findings if finding.is_new]

    def test_table_internals_owned_by_tables_module(self):
        findings = lint(
            """
            class ExactMatchTable:
                def install(self, key, value):
                    self._entries[key] = value
            """,
            module="repro.dataplane.tables",
            rules=self.RULES,
        )
        assert not [finding for finding in findings if finding.is_new]

    def test_reaching_into_table_internals_elsewhere_flags(self):
        findings = lint(
            """
            def poke(table):
                table._entries["k"] = 1
            """,
            module="repro.dataplane.pipeline",
            rules=self.RULES,
        )
        assert new_rules(findings) == ["generation-discipline"]


# --------------------------------------------------------------------------- rule 4: determinism


class TestDeterminismRule:
    RULES = (DeterminismRule(),)

    def test_bare_random_and_wall_clock_flag(self):
        findings = lint(
            """
            import random
            import time

            def jitter():
                return random.random() + time.time()
            """,
            module="repro.netsim.link",
            rules=self.RULES,
        )
        assert len([finding for finding in findings if finding.is_new]) == 2
        assert new_rules(findings) == ["determinism"]

    def test_seeded_random_instances_are_clean(self):
        findings = lint(
            """
            import random

            def make_rng(seed):
                return random.Random(seed)
            """,
            module="repro.netsim.link",
            rules=self.RULES,
        )
        assert not findings

    def test_unseeded_random_instance_flags(self):
        findings = lint(
            """
            import random

            def make_rng():
                return random.Random()
            """,
            module="repro.netsim.link",
            rules=self.RULES,
        )
        assert new_rules(findings) == ["determinism"]

    def test_experiments_namespace_is_in_scope(self):
        # host time is measured only outside src/ (the bench/ ledger): a
        # wall-clock read in the paper-figure modules is a finding too
        findings = lint(
            """
            import time

            def wall_clock_benchmark():
                return time.perf_counter()
            """,
            module="repro.experiments.fig_latency",
            rules=self.RULES,
        )
        assert new_rules(findings) == ["determinism"]

    def test_datetime_now_flags(self):
        findings = lint(
            """
            import datetime

            def stamp():
                return datetime.datetime.now()
            """,
            module="repro.scenario.library",
            rules=self.RULES,
        )
        assert new_rules(findings) == ["determinism"]


# --------------------------------------------------------------------------- rule 5: wire hygiene


class TestWireHygieneRule:
    RULES = (WireHygieneRule(),)

    def test_packet_construction_in_wire_path_flags(self):
        findings = lint(
            """
            class PipelineDatapath:
                def _process_media_wire(self, view):
                    packet = RtpPacket(ssrc=view.ssrc, seq=view.seq)
                    return view.to_packet(), packet
            """,
            module="repro.dataplane.pipeline",
            rules=self.RULES,
        )
        assert len([finding for finding in findings if finding.is_new]) == 2
        assert new_rules(findings) == ["wire-hygiene"]

    def test_packetview_methods_must_stay_wire_native(self):
        findings = lint(
            """
            class PacketView:
                def rewrite_seq(self, seq):
                    return RtpPacket(seq=seq)

                def to_packet(self):
                    return RtpPacket(seq=self.seq)
            """,
            module="repro.rtp.wire",
            rules=self.RULES,
        )
        new = [finding for finding in findings if finding.is_new]
        # rewrite_seq flags; to_packet is the sanctioned object-model bridge
        assert len(new) == 1
        assert "rewrite_seq" in new[0].fingerprint

    def test_object_model_slow_path_is_out_of_scope(self):
        findings = lint(
            """
            class PipelineDatapath:
                def _process_media(self, packet):
                    return RtpPacket(ssrc=1, seq=2)
            """,
            module="repro.dataplane.pipeline",
            rules=self.RULES,
        )
        assert not findings

    def test_wirebatch_module_is_fast_path_everywhere(self):
        # the columnar module has no non-fast-path scope: construction and
        # conversion flag in any function, not just _process_media_wire names
        findings = lint(
            """
            def from_datagrams(datagrams):
                return [RtpPacket(ssrc=1, seq=0) for _ in datagrams]

            def replay_payloads(view, seqs):
                return [view.to_packet() for _ in seqs]
            """,
            module="repro.rtp.wirebatch",
            rules=self.RULES,
        )
        assert len([finding for finding in findings if finding.is_new]) == 2
        assert new_rules(findings) == ["wire-hygiene"]

    def test_wirebatch_attribute_reads_are_clean(self):
        # object rows read already-decoded RtpPacket attributes — that is
        # the sanctioned cheap path, only construction/conversion is flagged
        findings = lint(
            """
            def from_datagrams(datagrams):
                return [d.payload.ssrc for d in datagrams]
            """,
            module="repro.rtp.wirebatch",
            rules=self.RULES,
        )
        assert not findings

    def test_same_functions_outside_wirebatch_are_out_of_scope(self):
        findings = lint(
            """
            def from_datagrams(datagrams):
                return [RtpPacket(ssrc=1, seq=0) for _ in datagrams]
            """,
            module="repro.rtp.codecs",
            rules=self.RULES,
        )
        assert not findings


# --------------------------------------------------------------------------- suppression mechanics


class TestSuppressionMechanics:
    def test_comment_only_line_covers_next_line(self):
        findings = lint(
            """
            import random

            def jitter():
                # archlint: ignore[determinism]
                return random.random()
            """,
            module="repro.netsim.link",
            rules=(DeterminismRule(),),
        )
        assert len(findings) == 1 and findings[0].suppressed

    def test_bare_ignore_suppresses_all_rules(self):
        findings = lint(
            """
            import random

            def jitter():
                return random.random()  # archlint: ignore
            """,
            module="repro.netsim.link",
            rules=(DeterminismRule(),),
        )
        assert len(findings) == 1 and findings[0].suppressed

    def test_ignore_for_other_rule_does_not_suppress(self):
        findings = lint(
            """
            import random

            def jitter():
                return random.random()  # archlint: ignore[zero-pickle]
            """,
            module="repro.netsim.link",
            rules=(DeterminismRule(),),
        )
        assert len(findings) == 1 and findings[0].is_new

    def test_baseline_consumed_once_per_entry(self):
        source = """
        import random

        def jitter():
            return random.random() + random.random()
        """
        first = lint(source, module="repro.netsim.link", rules=(DeterminismRule(),))
        assert len(first) == 2
        # both findings share one fingerprint (same line); baseline count 1
        # grandfathers exactly one of them
        baseline = {("determinism", "<fixture>", first[0].fingerprint): 1}
        again = lint(source, module="repro.netsim.link", rules=(DeterminismRule(),), baseline=baseline)
        assert sorted(finding.baselined for finding in again) == [False, True]


# --------------------------------------------------------------------------- end to end


class TestEndToEnd:
    def test_src_is_clean_against_committed_baseline(self):
        baseline = load_baseline(REPO_ROOT / "tools" / "archlint" / "baseline.txt")
        assert len(baseline) <= 5, "baseline must stay small and justified"
        report = run_paths([str(REPO_ROOT / "src")], baseline=baseline)
        assert report.files_checked > 40
        assert report.ok, "\n".join(finding.render() for finding in report.new)
        assert not report.unused_baseline, "stale baseline entries should be pruned"

    def test_violating_fixture_trips_every_rule(self):
        fixture = REPO_ROOT / "tools" / "archlint" / "fixtures" / "violating.py"
        report = run_paths([str(fixture)])
        tripped = {finding.rule for finding in report.new}
        assert tripped == {rule.name for rule in ALL_RULES}

    def test_obs_fixture_trips_determinism(self):
        # the telemetry plane is ordinary repro.* simulation code: the
        # determinism rule must bite inside repro.obs exactly as it does in
        # the dataplane (wall-clock tracer stamps, RNG-based flow sampling)
        fixture = REPO_ROOT / "tools" / "archlint" / "fixtures" / "violating_obs.py"
        report = run_paths([str(fixture)])
        assert {finding.rule for finding in report.new} == {"determinism"}
        messages = [finding.message for finding in report.new]
        assert any("wall-clock read time.time()" in message for message in messages)
        assert any("random.random()" in message for message in messages)

    def test_obs_package_is_inside_determinism_jurisdiction(self):
        rule = DeterminismRule()
        assert rule._in_scope("repro.obs.tracing")
        assert rule._in_scope("repro.obs.registry")
        assert rule._in_scope("repro.experiments.fig_latency")
        assert not rule._in_scope("bench.harness")

    def test_cluster_fixture_trips_determinism_and_pickle(self):
        # the federation layer is ordinary repro.* simulation code: a pickled
        # migration snapshot, a wall-clock drain deadline, or RNG placement
        # in repro.cluster must flag exactly as they would in the dataplane
        fixture = REPO_ROOT / "tools" / "archlint" / "fixtures" / "violating_cluster.py"
        report = run_paths([str(fixture)])
        assert {finding.rule for finding in report.new} == {"determinism", "zero-pickle"}
        messages = [finding.message for finding in report.new]
        assert any("pickle.dumps()" in message for message in messages)
        assert any("wall-clock read time.time()" in message for message in messages)
        assert any("random.random()" in message for message in messages)

    def test_cluster_package_is_inside_jurisdictions(self):
        determinism = DeterminismRule()
        assert determinism._in_scope("repro.cluster.trunk")
        assert determinism._in_scope("repro.cluster.snapshot")
        # the migration snapshot path must stay zero-pickle end to end
        findings = lint("import pickle\n", module="repro.cluster.snapshot", rules=(ZeroPickleRule(),))
        assert new_rules(findings) == ["zero-pickle"]

    def test_wirebatch_fixture_trips_wire_hygiene(self):
        # proves the extended jurisdiction bites: the fixture impersonates
        # repro.rtp.wirebatch via the module override and must produce both
        # a construction and a conversion finding
        fixture = REPO_ROOT / "tools" / "archlint" / "fixtures" / "violating_wirebatch.py"
        report = run_paths([str(fixture)])
        assert {finding.rule for finding in report.new} == {"wire-hygiene"}
        messages = [finding.message for finding in report.new]
        assert any("constructs RtpPacket" in message for message in messages)
        assert any("to_packet" in message for message in messages)

    def test_cli_exit_codes(self):
        clean = subprocess.run(
            [sys.executable, "-m", "tools.archlint", "src"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert clean.returncode == 0, clean.stdout + clean.stderr
        assert "0 new finding(s)" in clean.stdout

        dirty = subprocess.run(
            [
                sys.executable,
                "-m",
                "tools.archlint",
                "--no-baseline",
                "tools/archlint/fixtures",
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert dirty.returncode == 1, dirty.stdout + dirty.stderr
        assert "new finding" in dirty.stdout

    def test_failure_output_offers_baseline_entries(self):
        fixture = REPO_ROOT / "tools" / "archlint" / "fixtures" / "violating.py"
        result = subprocess.run(
            [sys.executable, "-m", "tools.archlint", "--no-baseline", str(fixture)],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        # every new finding should have a ready-to-paste baseline line
        report = run_paths([str(fixture)])
        for finding in report.new:
            assert format_baseline_entry(finding).split("\t")[0] in result.stdout
