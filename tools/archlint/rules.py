"""The archlint rule set: five architecture invariants of the repro tree.

Each rule is grounded in a specific contract the dataplane split established
(see ROADMAP "Enforced invariants"):

``share-nothing``
    Datapath code (``PipelineDatapath`` methods and ``dataplane/parser.py``)
    must never *write* control-plane-owned state — tables, PRE, register
    file, placement table, accountant.  Reads are the interface
    (``lookup``/``peek``/``read``/``replicate``); every write must go through
    a ``PipelineControlPlane`` method.  Each shard models one switch pipe, so
    a datapath write to shared state would leak one pipe's state into all
    the others.

``zero-pickle``
    No ``pickle``/``marshal``/``copy.deepcopy`` anywhere in ``src/``: state
    that crosses a boundary (a cross-SFU meeting migration) ships as packed
    register images and plain builtins, never as pickled object graphs.

``generation-discipline``
    Match-action tables, the PRE's trees, and the placement table may only be
    mutated through APIs that bump the corresponding write generation —
    ``install``/``remove`` on the table attributes of the control plane from
    inside ``PipelineControlPlane``, and never by poking the underlying
    ``_entries``/``_trees``/``_cells`` dicts directly (datapath caches key
    their freshness on those generations).

``determinism``
    Simulation code takes a seeded ``random.Random`` and reads
    ``Simulator.now``; bare module-level ``random.*`` calls, unseeded
    ``random.Random()``, and wall-clock reads (``time.time``,
    ``datetime.now``, ...) make runs unreproducible.  Everything under
    ``repro.*`` is in scope, ``repro.experiments`` included: host time is
    measured only by the ``bench/`` ledger, outside ``src/``.

``wire-hygiene``
    The wire-native fast path (``_process_media_wire``, ``PacketView``
    methods) must never construct ``RtpPacket`` dataclasses or round-trip
    through ``to_packet``/``from_packet`` — materializing the object model is
    exactly the cost the wire path exists to avoid.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, List, Optional, Tuple

from .engine import ModuleContext, ScopedVisitor, dotted_name

RawFinding = Tuple[int, int, str]  # (line, col, message)


def _chain_parts(name: Optional[str]) -> List[str]:
    return name.split(".") if name else []


# --------------------------------------------------------------------------- rule 1

#: Attribute names that resolve to control-plane-owned objects when they
#: appear anywhere in a receiver chain (``self.pre``, ``state.control``,
#: ``engine.control.stream_table``, ...).
CONTROL_OWNED_SEGMENTS: FrozenSet[str] = frozenset(
    {
        "control",
        "pre",
        "stream_table",
        "replica_table",
        "adaptation_table",
        "feedback_table",
        "ssrc_table",
        "placement_table",
        "stream_trackers",
        "stream_indices",
        "accountant",
    }
)

#: Method names that mutate control-plane structures.  The *read* API —
#: ``lookup``/``peek``/``read``/``entries``/``replicate``/``note_replication``
#: — is deliberately absent: reads (and the PRE's sanctioned data-plane
#: accounting) are how a datapath is supposed to touch shared state.
MUTATING_METHODS: FrozenSet[str] = frozenset(
    {
        "install",
        "install_many",
        "remove",
        "write",
        "clear",
        "allocate",
        "release",
        "create_tree",
        "destroy_tree",
        "add_node",
        "remove_node",
        "install_stream",
        "remove_stream",
        "install_replica_target",
        "remove_replica_target",
        "install_adaptation",
        "update_adaptation_templates",
        "remove_adaptation",
        "install_feedback_rule",
        "remove_feedback_rule",
        "install_placement",
        "remove_placement",
        "remove_placements_for",
        "attach_datapath",
        "_write_tracker",
        "allocate_stream_state",
        "release_stream_state",
        "allocate_tree",
        "release_tree",
        "defer_version_bumps",
        "commit_version_bumps",
        "defer_generation_bumps",
        "commit_generation_bumps",
        "batched_writes",
        "pop",
        "popitem",
        "update",
        "setdefault",
        "append",
        "extend",
    }
)


class ShareNothingRule:
    """Rule 1: datapath scope must not mutate control-plane-owned state."""

    name = "share-nothing"
    description = (
        "attribute stores or mutating-method calls on control-plane-owned "
        "objects from datapath code (PipelineDatapath methods, dataplane/"
        "parser.py)"
    )

    _WHOLE_MODULES = {"repro.dataplane.parser"}

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        whole_module = ctx.module in self._WHOLE_MODULES
        findings: List[RawFinding] = []

        class _Visitor(ScopedVisitor):
            def _in_scope(self) -> bool:
                return whole_module or self.enclosing_class() == "PipelineDatapath"

            def _flag_target(self, target: ast.AST) -> None:
                # only dotted stores can reach shared state; a bare-name
                # rebind (``control = ...``) is a local
                if isinstance(target, ast.Subscript):
                    chain = _chain_parts(dotted_name(target.value))
                    if set(chain) & CONTROL_OWNED_SEGMENTS:
                        findings.append(
                            (
                                target.lineno,
                                target.col_offset,
                                f"datapath scope {self.qualname!r} stores into "
                                f"control-plane-owned {'.'.join(chain)}[...]",
                            )
                        )
                elif isinstance(target, ast.Attribute):
                    chain = _chain_parts(dotted_name(target))
                    # the final attribute is what's being written; the owner
                    # is everything before it
                    if set(chain[:-1]) & CONTROL_OWNED_SEGMENTS:
                        findings.append(
                            (
                                target.lineno,
                                target.col_offset,
                                f"datapath scope {self.qualname!r} writes "
                                f"control-plane-owned attribute {'.'.join(chain)}",
                            )
                        )
                elif isinstance(target, (ast.Tuple, ast.List)):
                    for element in target.elts:
                        self._flag_target(element)

            def visit_Assign(self, node: ast.Assign) -> None:
                if self._in_scope():
                    for target in node.targets:
                        self._flag_target(target)
                self.generic_visit(node)

            def visit_AugAssign(self, node: ast.AugAssign) -> None:
                if self._in_scope():
                    self._flag_target(node.target)
                self.generic_visit(node)

            def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
                if self._in_scope() and node.value is not None:
                    self._flag_target(node.target)
                self.generic_visit(node)

            def visit_Call(self, node: ast.Call) -> None:
                if self._in_scope() and isinstance(node.func, ast.Attribute):
                    method = node.func.attr
                    if method in MUTATING_METHODS:
                        chain = _chain_parts(dotted_name(node.func.value))
                        if set(chain) & CONTROL_OWNED_SEGMENTS:
                            findings.append(
                                (
                                    node.lineno,
                                    node.col_offset,
                                    f"datapath scope {self.qualname!r} calls mutating "
                                    f"method {'.'.join(chain)}.{method}() on "
                                    "control-plane-owned state",
                                )
                            )
                self.generic_visit(node)

        _Visitor(ctx).visit(ctx.tree)
        return iter(findings)


# --------------------------------------------------------------------------- rule 2

_PICKLE_MODULES = frozenset({"pickle", "cPickle", "marshal", "dill"})


class ZeroPickleRule:
    """Rule 2: no pickle/deepcopy/marshal anywhere."""

    name = "zero-pickle"
    description = "pickle/marshal imports or pickle/marshal/copy.deepcopy calls anywhere"

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        findings: List[RawFinding] = []

        class _Visitor(ScopedVisitor):
            def visit_Import(self, node: ast.Import) -> None:
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in _PICKLE_MODULES:
                        findings.append(
                            (node.lineno, node.col_offset, f"import of {alias.name!r}")
                        )
                self.generic_visit(node)

            def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
                root = (node.module or "").split(".")[0]
                if root in _PICKLE_MODULES:
                    findings.append(
                        (node.lineno, node.col_offset, f"import from {node.module!r}")
                    )
                if root == "copy" and any(alias.name == "deepcopy" for alias in node.names):
                    findings.append(
                        (node.lineno, node.col_offset, "import of copy.deepcopy (deep object-graph copies are off the hot path)")
                    )
                self.generic_visit(node)

            def visit_Call(self, node: ast.Call) -> None:
                name = dotted_name(node.func)
                if name:
                    parts = name.split(".")
                    if parts[0] in _PICKLE_MODULES:
                        findings.append(
                            (node.lineno, node.col_offset, f"call to {name}()")
                        )
                    elif name == "copy.deepcopy" or name == "deepcopy":
                        findings.append(
                            (node.lineno, node.col_offset, f"call to {name}() (deep object-graph copies are off the hot path)")
                        )
                self.generic_visit(node)

        _Visitor(ctx).visit(ctx.tree)
        return iter(findings)


# --------------------------------------------------------------------------- rule 3

#: The control plane's generation-stamped table attributes.
TABLE_ATTRIBUTES: FrozenSet[str] = frozenset(
    {
        "stream_table",
        "replica_table",
        "adaptation_table",
        "feedback_table",
        "ssrc_table",
        "placement_table",
    }
)

#: Private backing dicts whose direct mutation bypasses the generation bump.
_BACKING_DICTS = frozenset({"_entries", "_trees", "_cells"})
_BACKING_OWNERS = {"repro.dataplane.tables", "repro.dataplane.pre"}


class GenerationDisciplineRule:
    """Rule 3: table/PRE/placement mutations only via generation-bumping APIs."""

    name = "generation-discipline"
    description = (
        "direct mutation of match-action table / PRE / placement state outside "
        "PipelineControlPlane methods (or of the private backing dicts outside "
        "their defining modules) — datapath caches key freshness on the "
        "generation such mutations must bump"
    )

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        findings: List[RawFinding] = []
        backing_owner = ctx.module in _BACKING_OWNERS

        class _Visitor(ScopedVisitor):
            def _in_control_plane(self) -> bool:
                return (
                    ctx.module == "repro.dataplane.pipeline"
                    and self.enclosing_class() == "PipelineControlPlane"
                )

            def visit_Call(self, node: ast.Call) -> None:
                if isinstance(node.func, ast.Attribute) and not self._in_control_plane():
                    method = node.func.attr
                    chain = _chain_parts(dotted_name(node.func.value))
                    if method in ("install", "remove", "clear") and chain and chain[-1] in TABLE_ATTRIBUTES:
                        findings.append(
                            (
                                node.lineno,
                                node.col_offset,
                                f"{self.qualname!r} calls {'.'.join(chain)}.{method}() outside "
                                "PipelineControlPlane (table writes must go through the "
                                "control plane so the version bump is observable)",
                            )
                        )
                    elif (
                        not backing_owner
                        and method in MUTATING_METHODS
                        and set(chain) & _BACKING_DICTS
                    ):
                        findings.append(
                            (
                                node.lineno,
                                node.col_offset,
                                f"{self.qualname!r} mutates private backing dict "
                                f"{'.'.join(chain)}.{method}() — bypasses the generation bump",
                            )
                        )
                self.generic_visit(node)

            def _flag_store(self, target: ast.AST) -> None:
                if backing_owner or self._in_control_plane():
                    return
                if isinstance(target, ast.Subscript):
                    chain = _chain_parts(dotted_name(target.value))
                    if chain and (chain[-1] in _BACKING_DICTS or set(chain) & _BACKING_DICTS):
                        findings.append(
                            (
                                target.lineno,
                                target.col_offset,
                                f"{self.qualname!r} stores into private backing dict "
                                f"{'.'.join(chain)}[...] — bypasses the generation bump",
                            )
                        )

            def visit_Assign(self, node: ast.Assign) -> None:
                for target in node.targets:
                    self._flag_store(target)
                self.generic_visit(node)

            def visit_Delete(self, node: ast.Delete) -> None:
                for target in node.targets:
                    self._flag_store(target)
                self.generic_visit(node)

        _Visitor(ctx).visit(ctx.tree)
        return iter(findings)


# --------------------------------------------------------------------------- rule 4

_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
        "date.today",
    }
)


class DeterminismRule:
    """Rule 4: seeded RNGs and the simulator clock only."""

    name = "determinism"
    description = (
        "bare random.* module-level calls, unseeded random.Random(), or "
        "wall-clock reads (time.time/time.monotonic/datetime.now) in "
        "simulation code — randomness must flow through a seeded "
        "random.Random and time through Simulator.now"
    )

    def _in_scope(self, module: str) -> bool:
        return module.startswith("repro.")

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        if not self._in_scope(ctx.module):
            return iter(())
        findings: List[RawFinding] = []

        class _Visitor(ScopedVisitor):
            def visit_Call(self, node: ast.Call) -> None:
                name = dotted_name(node.func)
                if name:
                    parts = name.split(".")
                    if parts[0] == "random" and len(parts) == 2:
                        attr = parts[1]
                        if attr == "Random":
                            if not node.args and not node.keywords:
                                findings.append(
                                    (
                                        node.lineno,
                                        node.col_offset,
                                        "unseeded random.Random() — thread a seed from the scenario",
                                    )
                                )
                        elif attr == "SystemRandom":
                            findings.append(
                                (node.lineno, node.col_offset, "random.SystemRandom is never reproducible")
                            )
                        else:
                            findings.append(
                                (
                                    node.lineno,
                                    node.col_offset,
                                    f"bare module-level random.{attr}() — use a seeded "
                                    "per-component random.Random",
                                )
                            )
                    elif name in _CLOCK_CALLS:
                        findings.append(
                            (
                                node.lineno,
                                node.col_offset,
                                f"wall-clock read {name}() in simulation code — read Simulator.now",
                            )
                        )
                self.generic_visit(node)

        _Visitor(ctx).visit(ctx.tree)
        return iter(findings)


# --------------------------------------------------------------------------- rule 5


class WireHygieneRule:
    """Rule 5: the wire fast path never materializes RtpPacket objects."""

    name = "wire-hygiene"
    description = (
        "constructing RtpPacket (or calling to_packet/from_packet) inside "
        "_process_media_wire, PacketView fast-path methods, or the columnar "
        "wirebatch module — materializing the object model is the cost the "
        "wire path exists to avoid"
    )

    #: PacketView methods allowed to touch RtpPacket: the two explicit
    #: conversion escape hatches.
    _CONVERSIONS = frozenset({"to_packet", "from_packet"})

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        wire_module = ctx.module == "repro.rtp.wire"
        # the columnar bulk-extraction module is fast path in its entirety:
        # every function there exists to replace per-packet loops, so there
        # is no non-fast-path scope to exempt (reading RtpPacket *attributes*
        # for object rows is fine — only construction/conversion is flagged)
        batch_module = ctx.module == "repro.rtp.wirebatch"
        findings: List[RawFinding] = []
        conversions = self._CONVERSIONS

        class _Visitor(ScopedVisitor):
            def _in_fast_path(self) -> bool:
                if batch_module:
                    return True
                if self.in_function("_process_media_wire"):
                    return True
                if wire_module and self.enclosing_class() == "PacketView":
                    return not any(name in conversions for name in self.scope)
                return False

            def visit_Call(self, node: ast.Call) -> None:
                if self._in_fast_path():
                    name = dotted_name(node.func)
                    if name:
                        parts = name.split(".")
                        if parts[-1] == "RtpPacket":
                            findings.append(
                                (
                                    node.lineno,
                                    node.col_offset,
                                    f"{self.qualname!r} constructs RtpPacket on the wire fast path",
                                )
                            )
                        elif parts[-1] in conversions and len(parts) > 1:
                            findings.append(
                                (
                                    node.lineno,
                                    node.col_offset,
                                    f"{self.qualname!r} calls {parts[-1]}() on the wire fast path "
                                    "(object-model round trip)",
                                )
                            )
                self.generic_visit(node)

        _Visitor(ctx).visit(ctx.tree)
        return iter(findings)


ALL_RULES = (
    ShareNothingRule(),
    ZeroPickleRule(),
    GenerationDisciplineRule(),
    DeterminismRule(),
    WireHygieneRule(),
)
