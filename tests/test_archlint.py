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
    NoTableScanOnMembershipPathRule,
    OneMembershipPathRule,
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
                def _process_media(self, view):
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
                def _process_media(self, view):
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
                def _process_media(self, view):
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
            def _process_media(self, view):
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
                def _process_media(self, view):
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
        # the unmemoized reference walk and the RTCP handlers may build
        # objects: only the one media function is the fast path
        findings = lint(
            """
            class PipelineDatapath:
                def _handle_media(self, packet):
                    return RtpPacket(ssrc=1, seq=2)

                def _handle_sender_rtcp(self, packet):
                    return packet.to_packet()
            """,
            module="repro.dataplane.pipeline",
            rules=self.RULES,
        )
        assert not findings

    def test_media_path_reads_object_fields_but_never_builds_a_packet(self):
        # _process_media serves object and wire ingress: reading an
        # RtpPacket's fields in its header step is clean, constructing one
        # (or converting a view) anywhere in it is a finding
        findings = lint(
            """
            class PipelineDatapath:
                def _process_media(self, datagram, tally, acc):
                    payload = datagram.payload
                    if isinstance(payload, RtpPacket):
                        ssrc, seq = payload.ssrc, payload.sequence_number
                    else:
                        payload = PacketView.from_packet(payload.to_packet())
                    return RtpPacket(ssrc=ssrc, sequence_number=seq)
            """,
            module="repro.dataplane.pipeline",
            rules=self.RULES,
        )
        messages = sorted(finding.message for finding in findings if finding.is_new)
        assert len(messages) == 3
        assert new_rules(findings) == ["wire-hygiene"]
        assert sum("constructs RtpPacket" in message for message in messages) == 1
        assert any("calls from_packet()" in message for message in messages)
        assert any("calls to_packet()" in message for message in messages)

    def test_wirebatch_module_is_fast_path_everywhere(self):
        # the columnar module has no non-fast-path scope: construction and
        # conversion flag in any function, not just _process_media
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

    def test_header_objects_in_the_byte_level_parse_flag(self):
        # the parser module and _process_media read header bytes: no
        # extension / element / descriptor / template object, no object walk
        findings = lint(
            """
            class IngressParser:
                def _parse_rtp(self, packet):
                    elements = decode_extensions(packet.extension)
                    descriptor = DependencyDescriptor.parse_prefix(elements[0].data)
                    return ExtensionElement(12, b""), TemplateStructure.l1t3(), descriptor
            """,
            module="repro.dataplane.parser",
            rules=self.RULES,
        )
        messages = sorted(finding.message for finding in findings if finding.is_new)
        assert len(messages) == 4
        assert any("calls decode_extensions()" in message for message in messages)
        assert any("builds DependencyDescriptor" in message for message in messages)
        assert any("builds ExtensionElement" in message for message in messages)
        assert any("builds TemplateStructure" in message for message in messages)

    def test_header_objects_in_the_wire_media_path_flag(self):
        findings = lint(
            """
            class PipelineDatapath:
                def _process_media(self, view):
                    block = RtpHeaderExtension(view.extension_profile, view.extension_bytes())
                    return DependencyDescriptor.parse_prefix(block.data)
            """,
            module="repro.dataplane.pipeline",
            rules=self.RULES,
        )
        assert len([finding for finding in findings if finding.is_new]) == 2
        assert new_rules(findings) == ["wire-hygiene"]

    def test_header_objects_outside_the_byte_level_parse_are_out_of_scope(self):
        # the codecs, the software SFU and the switch agent decode objects
        # legitimately; so may the pipeline outside its media function
        source = """
            def _handle_extended_descriptor(packet):
                structure = TemplateStructure.l1t3()
                return DependencyDescriptor.parse(find_extension(packet.extension, 12)), structure

            class PipelineDatapath:
                def _handle_sender_rtcp(self, packet):
                    return decode_extensions(packet.extension)
            """
        for module in ("repro.rtp.av1", "repro.core.switch_agent", "repro.dataplane.pipeline"):
            assert not lint(source, module=module, rules=self.RULES)

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


# --------------------------------------------------------------------------- rule 6: one-membership-path


class TestOneMembershipPathRule:
    RULES = (OneMembershipPathRule(),)

    VIOLATING = """
    def shed(member, meeting_id, endpoints, design):
        member.agent.replication.sync_meeting(meeting_id, endpoints, design)
        member.agent.replication.remove_meeting(meeting_id)
        manager.install_meeting(meeting_id, endpoints, design)
    """

    def test_replication_calls_outside_the_agent_flag(self):
        findings = lint(self.VIOLATING, module="repro.cluster.cluster", rules=self.RULES)
        assert [finding.line for finding in findings if finding.is_new] == [3, 4, 5]
        assert "configure_meeting" in findings[0].message

    def test_the_agent_is_the_one_caller(self):
        findings = lint(self.VIOLATING, module="repro.core.switch_agent", rules=self.RULES)
        assert not findings

    def test_trunk_syncs_and_configure_calls_are_clean(self):
        findings = lint(
            """
            def sync(self, member, meeting_id, endpoints):
                member.agent.configure_meeting(meeting_id, endpoints)
                member.trunks.sync_meeting(meeting_id, {}, endpoints)
                self.sync_meeting(meeting_id, {}, [])
            """,
            module="repro.cluster.cluster",
            rules=self.RULES,
        )
        assert not findings

    def test_inline_suppression(self):
        findings = lint(
            """
            def drop(member, meeting_id):
                member.agent.replication.remove_meeting(meeting_id)  # archlint: ignore[one-membership-path]
            """,
            module="repro.cluster.cluster",
            rules=self.RULES,
        )
        assert len(findings) == 1 and findings[0].suppressed


# --------------------------------------------------------------------------- rule 7: no-table-scan-on-membership-path


class TestNoTableScanOnMembershipPathRule:
    RULES = (NoTableScanOnMembershipPathRule(),)

    VIOLATING = """
    def release(self, address):
        for key, _rule in self.pipeline.feedback_table.entries():
            pass
        rows = list(pipeline.control.placement_table.entries())
        return [k for k, _e in self.pipeline.adaptation_table.entries() if k[1] == address]
    """

    @pytest.mark.parametrize("module", ["repro.core.switch_agent", "repro.cluster.trunk"])
    def test_table_scans_on_the_membership_path_flag(self, module):
        findings = lint(self.VIOLATING, module=module, rules=self.RULES)
        assert [finding.line for finding in findings if finding.is_new] == [3, 5, 6]
        assert "feedback_table.entries()" in findings[0].message

    def test_scans_elsewhere_are_out_of_scope(self):
        # reconciliation audits and snapshots walk whole tables on purpose
        for module in ("repro.cluster.cluster", "repro.dataplane.pipeline", "repro.scenario.driver"):
            assert not lint(self.VIOLATING, module=module, rules=self.RULES)

    def test_index_reads_and_other_entries_calls_are_clean(self):
        findings = lint(
            """
            def release(self, address, ssrcs):
                for key in self.pipeline.feedback_rules_for(address, ssrcs):
                    self.pipeline.remove_feedback_rule(*key)
                rule = self.pipeline.feedback_table.peek(key)
                return list(self._registry.entries())
            """,
            module="repro.core.switch_agent",
            rules=self.RULES,
        )
        assert not findings

    def test_inline_suppression(self):
        findings = lint(
            """
            def audit(self):
                return list(self.pipeline.feedback_table.entries())  # archlint: ignore[no-table-scan-on-membership-path]
            """,
            module="repro.cluster.trunk",
            rules=self.RULES,
        )
        assert len(findings) == 1 and findings[0].suppressed


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
        """``violating.py`` poses as ``repro.dataplane.pipeline``, so it trips
        every rule but the one scoped to the membership modules, which its
        own fixture trips; the fixtures directory trips all seven."""
        fixtures = REPO_ROOT / "tools" / "archlint" / "fixtures"
        report = run_paths([str(fixtures / "violating.py")])
        tripped = {finding.rule for finding in report.new}
        assert tripped == {rule.name for rule in ALL_RULES} - {NoTableScanOnMembershipPathRule.name}
        everywhere = {finding.rule for finding in run_paths([str(fixtures)]).new}
        assert everywhere == {rule.name for rule in ALL_RULES}

    def test_table_scan_fixture_trips_no_table_scan_on_membership_path(self):
        fixture = REPO_ROOT / "tools" / "archlint" / "fixtures" / "violating_table_scan.py"
        report = run_paths([str(fixture)])
        assert {finding.rule for finding in report.new} == {"no-table-scan-on-membership-path"}
        messages = [finding.message for finding in report.new]
        assert any("feedback_table.entries()" in message for message in messages)
        assert any("control.adaptation_table.entries()" in message for message in messages)

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

    def test_membership_fixture_trips_one_membership_path(self):
        fixture = REPO_ROOT / "tools" / "archlint" / "fixtures" / "violating_membership.py"
        report = run_paths([str(fixture)])
        assert {finding.rule for finding in report.new} == {"one-membership-path"}
        messages = [finding.message for finding in report.new]
        assert any("replication.sync_meeting()" in message for message in messages)
        assert any("replication.remove_meeting()" in message for message in messages)

    def test_trackers_fixture_trips_share_nothing(self):
        # the datapath's trackers binding is the control plane's register
        # file: a write through it is a control-plane write
        fixture = REPO_ROOT / "tools" / "archlint" / "fixtures" / "violating_trackers.py"
        report = run_paths([str(fixture)])
        assert "share-nothing" in {finding.rule for finding in report.new}
        messages = [finding.message for finding in report.new if finding.rule == "share-nothing"]
        assert any("self.trackers.write()" in message for message in messages)
        assert any("self.trackers._cells[...]" in message for message in messages)

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

    def test_parser_fixture_trips_wire_hygiene(self):
        # the widened jurisdiction bites: the fixture impersonates
        # repro.dataplane.parser and walks the block as protocol objects
        fixture = REPO_ROOT / "tools" / "archlint" / "fixtures" / "violating_parser.py"
        report = run_paths([str(fixture)])
        assert {finding.rule for finding in report.new} == {"wire-hygiene"}
        messages = [finding.message for finding in report.new]
        assert any("decode_extensions()" in message for message in messages)
        assert any("builds DependencyDescriptor" in message for message in messages)
        assert any("builds TemplateStructure" in message for message in messages)
        assert any("builds RtpHeaderExtension" in message for message in messages)

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
